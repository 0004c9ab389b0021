"""Canned control grids and polynomial-to-Bezier conversion helpers.

Polynomial surfaces are written as coefficient matrices c[p, q] over
monomials u^p v^q. Conversion to the Bernstein basis is exact:

    u^p = sum_{a>=p} C(a,p)/C(m,p) B_{a,m}(u)

so a degree-(m, n) grid reproduces any polynomial with deg_u <= m and
deg_v <= n to machine precision. These builders back the test
geometries and the synthetic wing generator.
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


def graph_surface_grid(f_coeffs, m: int, n: int, patch_id: str = "graph") -> ControlGrid:
    """Exact grid for the graph surface F = (u, v, f(u,v))."""
    cu = np.array([[0.0], [1.0]])  # u
    cv = np.array([[0.0, 1.0]])  # v
    return surface_from_polynomials(cu, cv, f_coeffs, m, n, patch_id)


def flat_grid(m: int = 1, n: int = 1, patch_id: str = "flat") -> ControlGrid:
    """Unit square in the z=0 plane, P_ab = (a/m, b/n, 0)."""
    a = np.arange(m + 1) / m
    b = np.arange(n + 1) / n
    pts = np.zeros((m + 1, n + 1, 3))
    pts[:, :, 0] = a[:, None]
    pts[:, :, 1] = b[None, :]
    return ControlGrid(patch_id, pts)


def affine_grid(origin, eu, ev, m: int = 2, n: int = 2, patch_id: str = "plane") -> ControlGrid:
    """Affinely parametrized planar patch F = origin + u*eu + v*ev.

    Control points sit on a regular lattice, so all second and higher
    derivatives vanish identically.
    """
    origin = np.asarray(origin, dtype=float)
    eu = np.asarray(eu, dtype=float)
    ev = np.asarray(ev, dtype=float)
    a = (np.arange(m + 1) / m)[:, None, None]
    b = (np.arange(n + 1) / n)[None, :, None]
    pts = origin[None, None, :] + a * eu[None, None, :] + b * ev[None, None, :]
    return ControlGrid(patch_id, pts)


def paraboloid_grid(patch_id: str = "paraboloid") -> ControlGrid:
    """Degree-(2,2) grid exactly representing F = (u, v, u^2 + v^2)."""
    f = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    return graph_surface_grid(f, 2, 2, patch_id)


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
