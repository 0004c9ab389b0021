"""Canned control grids and polynomial-to-Bezier conversion helpers.

Polynomial surfaces are written as coefficient matrices c[p, q] over
monomials u^p v^q. Conversion to the Bernstein basis is exact:

    u^p = sum_{a>=p} C(a,p)/C(m,p) B_{a,m}(u)

so a degree-(m, n) grid reproduces any polynomial with deg_u <= m and
deg_v <= n to machine precision. These builders back the synthetic
wing generator; the test suite builds its canned surfaces with them.
"""

import math

import numpy as np

from .bezier import ControlGrid


def monomials_to_bezier(coeffs, m: int, n: int) -> np.ndarray:
    """Bernstein control values of the scalar field sum c[p,q] u^p v^q.

    Returns an (m+1, n+1) array. Raises if the polynomial degree exceeds
    the requested grid degrees.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 2:
        raise ValueError("coefficient matrix must be 2-D (powers of u by powers of v)")
    if c.shape[0] - 1 > m or c.shape[1] - 1 > n:
        raise ValueError(f"polynomial degree {c.shape[0] - 1, c.shape[1] - 1} exceeds grid degree {(m, n)}")
    out = np.zeros((m + 1, n + 1))
    for a in range(m + 1):
        for b in range(n + 1):
            acc = 0.0
            for p in range(min(a, c.shape[0] - 1) + 1):
                cu = math.comb(a, p) / math.comb(m, p)
                for q in range(min(b, c.shape[1] - 1) + 1):
                    if c[p, q] != 0.0:
                        acc += c[p, q] * cu * math.comb(b, q) / math.comb(n, q)
            out[a, b] = acc
    return out


def surface_from_polynomials(cx, cy, cz, m: int, n: int, patch_id: str = "poly") -> ControlGrid:
    """Exact Bezier grid for F = (x(u,v), y(u,v), z(u,v)) given monomial coeffs."""
    pts = np.stack(
        [monomials_to_bezier(cx, m, n), monomials_to_bezier(cy, m, n), monomials_to_bezier(cz, m, n)],
        axis=-1,
    )
    return ControlGrid(patch_id, pts)


def poly_substitute_affine_v(coeffs, a: float, b: float) -> np.ndarray:
    """Substitute w = a + b*v into sum c[p,q] u^p w^q; returns coeffs over (u, v).

    Used to restrict a global spanwise polynomial to one patch whose
    local v covers an affine slice of the global coordinate.
    """
    c = np.asarray(coeffs, dtype=float)
    out = np.zeros_like(c)
    for q in range(c.shape[1]):
        # (a + b v)^q expanded over v^r
        for r in range(q + 1):
            w = math.comb(q, r) * a ** (q - r) * b**r
            if w != 0.0:
                out[:, r] += c[:, q] * w
    return out
