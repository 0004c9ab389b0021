"""Deterministic synthetic wing manifold and pressure-sample generator.

The wing is a swept, tapered polynomial sheet split spanwise into
Bezier patches (built exactly from monomial coefficients, so geometry
checks and jets are exact). Pressure coefficients come from a smooth
analytic formula with explicit dependence on the local scalar curvature
and connection norm, which keeps feature-ablation experiments
meaningful, plus optional Gaussian noise. Formula and coefficients are
written into the dataset manifest so cp values can be re-derived
independently.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .bezier import PiecewiseManifold, SurfacePoint, save_control_grids
from .data import Samples, save_samples
from .errors import ConfigError, DegenerateMetric, check_int
from .files import write_json
from .geometry import DEFAULT_CONVENTION, point_features
from .shapes import poly_substitute_affine_v, surface_from_polynomials

__all__ = ["SynthConfig", "SynthResult", "generate_synthetic", "cp_formula", "CP_FORMULA_TEXT"]

CP_FORMULA_TEXT = (
    "cp = b0 + b1*a + b2*a*(1-u)^2 + b3*cos(pi*u) + b4*w + b5*S + b6*a*S + b7*G + b8*u*w"
    " + noise;  a = AoA/10, u = chordwise parameter, w = span fraction,"
    " S = scalar curvature (standard convention), G = frobenius norm of the Christoffel array"
)

DEFAULT_COEFFS = {
    "b0": -0.40,
    "b1": -0.45,
    "b2": -0.90,
    "b3": 0.50,
    "b4": 0.20,
    "b5": 0.50,
    "b6": 0.35,
    "b7": 0.40,
    "b8": 0.25,
}


@dataclass
class SynthConfig:
    seed: int = 0
    aoa_set: tuple = (0.0, 7.0, 12.0, 16.0, 18.0, 18.5, 19.0, 20.0, 21.0)
    stations: int = 6
    points_per_section: int = 20
    n_patches: int = 4
    noise_sigma: float = 0.01
    ma: float = 0.175
    reynolds: float = 1.35e6
    span_length: float = 2.0
    thickness: float = 0.25
    twist: float = 0.15
    coefficients: dict = field(default_factory=lambda: dict(DEFAULT_COEFFS))

    def __post_init__(self):
        check_int(self.seed, "seed", 0)
        if not 3 <= self.n_patches <= 6:
            raise ConfigError(f"n_patches must be in 3..6, got {self.n_patches}")
        for key in ("stations", "points_per_section"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("thickness", "twist", "span_length", "ma", "reynolds", "noise_sigma"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        if not all(math.isfinite(a) for a in self.aoa_set):
            raise ConfigError(f"aoa_set must hold finite angles, got {list(self.aoa_set)}")
        for key in ("ma", "reynolds"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be > 0, got {getattr(self, key)}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


def cp_formula(coeffs, aoa, u, w, scalar_curv, gamma_norm) -> float:
    """The noiseless generator formula; see CP_FORMULA_TEXT."""
    a = aoa / 10.0
    return (
        coeffs["b0"]
        + coeffs["b1"] * a
        + coeffs["b2"] * a * (1.0 - u) ** 2
        + coeffs["b3"] * math.cos(math.pi * u)
        + coeffs["b4"] * w
        + coeffs["b5"] * scalar_curv
        + coeffs["b6"] * a * scalar_curv
        + coeffs["b7"] * gamma_norm
        + coeffs["b8"] * u * w
    )


def _wing_polynomials(cfg: SynthConfig):
    """Global monomial coefficient matrices over (u, w) for x, y, z."""
    # swept, tapered planform: x = 0.55 w + (1 - 0.45 w) u, y = L w
    cx = np.zeros((2, 2))
    cx[0, 1] = 0.55
    cx[1, 0] = 1.0
    cx[1, 1] = -0.45
    cy = np.zeros((1, 2))
    cy[0, 1] = cfg.span_length
    # thickness bump 16 u^2 (1-u)^2 tapering outboard, spanwise bow, twist-like term
    cz = np.zeros((5, 3))
    bump = 16.0 * cfg.thickness
    for p, c in ((2, 1.0), (3, -2.0), (4, 1.0)):
        cz[p, 0] += bump * c
        cz[p, 1] += bump * c * -0.4
    cz[0, 2] += 0.10
    cz[1, 1] += cfg.twist
    cz[2, 1] -= cfg.twist
    return cx, cy, cz


def _build_patches(cfg: SynthConfig):
    cx, cy, cz = _wing_polynomials(cfg)
    grids = []
    for k in range(cfg.n_patches):
        w0 = k / cfg.n_patches
        dw = 1.0 / cfg.n_patches
        grids.append(
            surface_from_polynomials(
                poly_substitute_affine_v(cx, w0, dw),
                poly_substitute_affine_v(cy, w0, dw),
                poly_substitute_affine_v(cz, w0, dw),
                m=4,
                n=3,
                patch_id=f"patch{k}",
            )
        )
    return grids


def _locate(cfg: SynthConfig, w: float):
    """Map a global span fraction to (patch index, local v)."""
    k = min(int(w * cfg.n_patches), cfg.n_patches - 1)
    return k, w * cfg.n_patches - k


@dataclass
class SynthResult:
    manifold: PiecewiseManifold
    samples: Samples
    manifest: dict
    samples_path: str | None = None


def generate_synthetic(cfg: SynthConfig, outdir=None) -> SynthResult:
    """Build the wing, sample cp on a fixed grid, optionally write files.

    Sample count is exactly len(aoa_set) * stations * points_per_section.
    Same seed, same bytes.
    """
    grids = _build_patches(cfg)
    manifold = PiecewiseManifold(grids)
    manifold.check_all(samples_per_axis=24)
    seams = manifold.detect_seams()

    # curvature features depend only on the point, so compute them once
    # per (station, chordwise) location, one call per station, and reuse
    # them across AoAs
    station_ws = [(s + 0.5) / cfg.stations for s in range(cfg.stations)]
    chord_us = np.linspace(0.04, 0.96, cfg.points_per_section)
    geo = []  # (patch id, u, v, w, S, |Gamma|) of each location
    for w in station_ws:
        k, v = _locate(cfg, w)
        pid = grids[k].patch_id
        manifold.assert_ready(pid)
        f = point_features(manifold.grid(pid), chord_us, v)
        if f.degenerate.any():
            i = int(np.argmax(f.degenerate))
            raise DegenerateMetric(f.det_g[i], SurfacePoint(pid, float(chord_us[i]), v))
        gnorm = np.sqrt(np.sum((f.gamma**2).reshape(len(chord_us), -1), axis=1))
        geo += [(pid, u, v, w, s, g) for u, s, g in zip(chord_us.tolist(), f.scalar.tolist(), gnorm.tolist())]

    rng = np.random.default_rng(cfg.seed)
    rows = []
    for aoa in cfg.aoa_set:
        for pid, u, v, w, s_curv, gnorm in geo:
            cp = cp_formula(cfg.coefficients, aoa, u, w, s_curv, gnorm)
            if cfg.noise_sigma > 0.0:
                cp += cfg.noise_sigma * rng.standard_normal()
            rows.append((pid, u, v, cfg.ma, float(aoa), cfg.reynolds, 100.0 * w, float(cp)))
    samples = Samples.from_rows(rows)

    manifest = {
        "generator": "synthetic-wing",
        "seed": cfg.seed,
        "formula": CP_FORMULA_TEXT,
        "coefficients": dict(cfg.coefficients),
        "noise_sigma": cfg.noise_sigma,
        "convention": DEFAULT_CONVENTION,
        "flight_condition": {"Ma": cfg.ma, "Re": cfg.reynolds},
        "aoa_set": list(cfg.aoa_set),
        "station_span_fractions": station_ws,
        "points_per_section": cfg.points_per_section,
        "n_patches": cfg.n_patches,
        "patch_degrees": [list(g.degrees) for g in grids],
        "span_length": cfg.span_length,
        "thickness": cfg.thickness,
        "twist": cfg.twist,
        "seams": [[s.patch_a, s.edge_a, s.patch_b, s.edge_b] for s in seams],
        "n_samples": len(samples),
    }

    result = SynthResult(manifold=manifold, samples=samples, manifest=manifest)
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        result.samples_path = os.path.join(outdir, "samples.csv")
        save_control_grids(os.path.join(outdir, "manifold.csv"), grids)
        save_samples(result.samples_path, samples)
        write_json(os.path.join(outdir, "dataset_manifest.json"), manifest)
    return result
