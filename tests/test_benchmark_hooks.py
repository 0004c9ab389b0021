"""The traced benchmark run wraps wingcp names from outside the package.

``pipebench/layers.py`` looks every name up with ``getattr``; a deleted or
renamed function, method or module-level import makes its ``install``
raise, and the traced run then reports no per-layer metrics. Installing
and removing the wraps here keeps those names pinned.
"""

import os

import wingcp
import wingcp.cli  # noqa: F401  (layers.install reads wingcp.cli)

PIPEBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pipebench")


def test_traced_names_install_and_unwrap(monkeypatch):
    monkeypatch.syspath_prepend(PIPEBENCH)
    import layers
    from tracing import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer, wingcp)
        wraps = list(tracer._undo)
        assert wraps
        for owner, attr, fn in wraps:
            assert getattr(owner, attr) is not fn
    finally:
        tracer.unwrap_all()
    for owner, attr, fn in wraps:
        assert getattr(owner, attr) is fn
