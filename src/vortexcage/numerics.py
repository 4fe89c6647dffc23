"""Quadrature grids and orthonormal special functions.

Everything here is pure and operates on immutable inputs; grids are
read-only containers safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QuadratureGrid",
    "build_grid",
    "check_grid_args",
    "laguerre",
    "legendre_q_tables",
    "gauss_legendre",
    "refined_grid",
]


def gauss_legendre(n: int, a: float, b: float):
    """Gauss-Legendre nodes/weights mapped from [-1, 1] to [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


# ---------------------------------------------------------------------------
# associated Legendre functions, orthonormalized for spherical harmonics
# ---------------------------------------------------------------------------

def _sectoral_constant(m: int) -> float:
    # c_m such that Ptilde_mm(x) = c_m * (1-x^2)^(m/2); Condon-Shortley phase
    # included, normalization chosen so Y_lm = Ptilde_lm(cos th) e^(i m phi)
    # are orthonormal on the unit sphere.
    val = 1.0 / (4.0 * math.pi)
    for k in range(1, m + 1):
        val *= (2 * k + 1) / (2 * k)
    return (-1.0) ** m * math.sqrt(val)


def legendre_q_tables(lmax: int, x: np.ndarray):
    """Tables Q[l, m] and dQ/dx[l, m] with Ptilde_lm = Q_lm * (1-x^2)^(m/2).

    Splitting off the sin^m factor keeps the phi-derivative of spherical
    harmonics (which needs Ptilde/sin) finite near the poles.  Arrays have
    shape (lmax+1, lmax+1, len(x)); entries with m > l stay zero.
    """
    x = np.asarray(x, dtype=float)
    q = np.zeros((lmax + 1, lmax + 1) + x.shape)
    dq = np.zeros_like(q)
    for m in range(lmax + 1):
        q[m, m] = _sectoral_constant(m)
        if m + 1 <= lmax:
            c = math.sqrt(2 * m + 3)
            q[m + 1, m] = c * x * q[m, m]
            dq[m + 1, m] = c * q[m, m]
        for l in range(m + 2, lmax + 1):
            a = math.sqrt((4 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1) ** 2 - 1.0))
            q[l, m] = a * (x * q[l - 1, m] - b * q[l - 2, m])
            dq[l, m] = a * (q[l - 1, m] + x * dq[l - 1, m] - b * dq[l - 2, m])
    return q, dq


def laguerre(p: int, alpha: int, x):
    """Generalized Laguerre polynomial L_p^alpha(x) by the three-term recurrence."""
    if p < 0 or alpha < 0:
        raise ValueError(f"invalid indices: p={p}, alpha={alpha}")
    xa = np.asarray(x, dtype=float)
    prev = np.ones_like(xa)
    if p == 0:
        return prev if isinstance(x, np.ndarray) else float(prev)
    cur = 1.0 + alpha - xa
    for k in range(2, p + 1):
        prev, cur = cur, ((2 * k - 1 + alpha - xa) * cur - (k - 1 + alpha) * prev) / k
    return cur if isinstance(x, np.ndarray) else float(cur)


# ---------------------------------------------------------------------------
# product quadrature grid: Gauss-Legendre radial x (Gauss x uniform) angular
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Product rule for integrals over a radial shell times the unit sphere.

    radial_weights absorb the r^2 metric factor, so the volume integral of a
    sampled function f is sum_ij radial_weights[i] * angular_weights[j] * f_ij.
    The angular rule (Gauss-Legendre in cos theta, uniform in phi) integrates
    products of spherical harmonics exactly up to combined degree
    ``angular_order``.  ``points`` lists every node as an (n, 3) array.
    """

    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    angular_nodes: np.ndarray       # (n_ang, 3) unit vectors
    angular_weights: np.ndarray     # sums to 4*pi
    n_radial: int
    angular_order: int
    r_min: float
    r_max: float
    _points: np.ndarray = field(repr=False, default=None)
    _weights: np.ndarray = field(repr=False, default=None)

    @property
    def points(self) -> np.ndarray:
        """All grid points, shape (n_radial * n_ang, 3), radial-major order."""
        return self._points

    @property
    def weights(self) -> np.ndarray:
        """Volume weights matching ``points`` (bohr^3)."""
        return self._weights

    def integrate(self, samples: np.ndarray):
        """Integrate sampled values over the grid volume.

        ``samples`` may have extra trailing axes (e.g. vector components);
        the leading axis must match ``points``.
        """
        samples = np.asarray(samples)
        w = self._weights.reshape((-1,) + (1,) * (samples.ndim - 1))
        return (w * samples).sum(axis=0)


def angular_rule(order: int):
    """Sphere rule exact for spherical-harmonic products up to ``order``."""
    n_theta = order // 2 + 1
    n_phi = order + 1
    ct, wt = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    st = np.sqrt(1.0 - ct * ct)
    cphi, sphi = np.cos(phi), np.sin(phi)
    dirs = np.empty((n_theta * n_phi, 3))
    dirs[:, 0] = np.outer(st, cphi).ravel()
    dirs[:, 1] = np.outer(st, sphi).ravel()
    dirs[:, 2] = np.outer(ct, np.ones(n_phi)).ravel()
    w = np.outer(wt, np.full(n_phi, 2.0 * math.pi / n_phi)).ravel()
    return dirs, w


def check_grid_args(r_min: float, r_max: float, n_radial: int,
                    angular_order: int, l_basis_max: int | None = None) -> None:
    """Raise ValueError for an empty radial range or for orders that cannot
    integrate the basis exactly (n_radial < 16, or angular_order <
    2*l_basis_max + 4 when the basis maximum is supplied)."""
    if r_min < 0.0 or r_max <= r_min:
        raise ValueError(f"invalid radial range [{r_min}, {r_max}]")
    if n_radial < 16:
        raise ValueError(f"n_radial={n_radial} below minimum 16")
    if l_basis_max is not None and angular_order < 2 * l_basis_max + 4:
        raise ValueError(
            f"angular_order={angular_order} below 2*l_basis_max+4="
            f"{2 * l_basis_max + 4}")


def build_grid(r_min: float, r_max: float, n_radial: int, angular_order: int,
               l_basis_max: int | None = None) -> QuadratureGrid:
    """Product quadrature grid over the shell r in [r_min, r_max]; the
    arguments must pass ``check_grid_args``."""
    check_grid_args(r_min, r_max, n_radial, angular_order, l_basis_max)
    r, wr = gauss_legendre(n_radial, r_min, r_max)
    dirs, wang = angular_rule(angular_order)
    pts = (r[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
    w = (wr * r * r)[:, None] * wang[None, :]
    grid = QuadratureGrid(
        radial_nodes=r,
        radial_weights=wr * r * r,
        angular_nodes=dirs,
        angular_weights=wang,
        n_radial=n_radial,
        angular_order=angular_order,
        r_min=float(r_min),
        r_max=float(r_max),
        _points=pts,
        _weights=w.ravel(),
    )
    return grid


def refined_grid(grid: QuadratureGrid) -> QuadratureGrid:
    """The grid with 3/2 the radial nodes and angular order + 6.

    The input grid already passed the basis gate, so it is not re-applied.
    """
    return build_grid(grid.r_min, grid.r_max, grid.n_radial * 3 // 2,
                      grid.angular_order + 6)
