"""Exception types shared across the package, and the key check of parsed objects."""

from dataclasses import fields


class WingcpError(Exception):
    """Base class for all package-specific errors."""


class DegenerateMetric(WingcpError):
    """Metric tensor is numerically singular at a surface point.

    Carries the offending determinant and, when known, the surface point.
    """

    def __init__(self, det, point=None):
        self.det = det
        self.point = point
        where = f" at {point}" if point is not None else ""
        super().__init__(f"degenerate metric{where}: det(g) = {det:.3e}")


class StencilOutOfPatch(WingcpError):
    """Requested neighbor spacing exceeds the patch extent along an axis."""


class InvalidPatch(WingcpError):
    """Patch failed (or never ran) the immersion / self-intersection check."""


class SampleParseError(WingcpError):
    """An input file that is not UTF-8, not valid CSV or JSON, or holds a malformed row or value.

    The message names the file, and the line where one is known.
    """


class ConfigError(WingcpError):
    """Inconsistent or unknown configuration value."""


class AssemblyError(WingcpError):
    """Too many samples dropped during feature assembly."""

    def __init__(self, message, dropped=None):
        self.dropped = dropped or []
        super().__init__(message)


class TrainingDiverged(WingcpError):
    """Loss or gradients became non-finite during training.

    ``last_good`` holds a copy of the last finite parameter set.
    """

    def __init__(self, message, last_good=None):
        self.last_good = last_good
        super().__init__(message)


def check_keys(d, cls, what: str, optional=()):
    """Raise ConfigError unless ``d`` is a dict with exactly the fields of ``cls``.

    Keys in ``optional`` may also appear.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{what} is not an object")
    names = {f.name for f in fields(cls)}
    for problem, keys in (("unknown", set(d) - names - set(optional)), ("missing", names - set(d))):
        if keys:
            raise ConfigError(f"{problem} {what} key(s) {', '.join(sorted(keys))}")


def check_int(value, name: str, low: int):
    """Raise ConfigError unless ``value`` is an int (a bool is not) >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
