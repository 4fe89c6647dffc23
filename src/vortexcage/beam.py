"""Linearly polarized Laguerre-Gaussian vortex pulse in atomic units.

The positive-frequency part of the vector potential is

    A+(r, t) = xhat * C * f(rho') * exp(i m phi') * exp(-i w t) * exp(-d t^2)

with rho', phi' measured from the optical axis (offset from the cage center
by ``offset``); the physical field is A+ + c.c.  The longitudinal phase
exp(i omega z / c) is dropped (omega z / c << 1 on the cage scale).  Peak-amplitude
normalization makes max_rho |C f| = a0 for every topological charge; the
printed-formula variant (peak suppressed by exp(-|m|)) stays available
behind ``legacy_normalization``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import laguerre
from .units import AU_INTENSITY_W_CM2, fs_to_au

__all__ = [
    "VortexPulse",
    "delta_from_fwhm_fs",
    "envelope_fwhm",
    "mode_profile",
    "normalization",
    "rho_max",
]


def rho_max(m_oam: int, waist: float) -> float:
    """Ring radius sqrt(|m|/2) * w0 of the peak intensity (same units as w0)."""
    if m_oam == 0:
        raise ValueError("rho_max undefined for m_oam = 0 (no ring)")
    return math.sqrt(abs(m_oam) / 2.0) * waist


def normalization(a0: float, m_oam: int, p: int = 0,
                  legacy_normalization: bool = False) -> float:
    """Amplitude prefactor C_{m,p} making the radial-profile peak equal a0.

    For p = 0 the ring-factor maximum is |m|^(|m|/2) e^(-|m|/2), reached at
    rho_max.  ``legacy_normalization`` uses e^(+|m|/2) in the denominator
    instead (printed variant; peak then falls below a0 by e^(-|m|)).
    For p > 0 the maximum of |f| is located numerically.
    """
    m = abs(m_oam)
    if p == 0:
        if m == 0:
            return a0
        half = 0.5 * m
        if legacy_normalization:
            return a0 / math.exp(half * math.log(m) + half)
        return a0 / math.exp(half * math.log(m) - half)
    # p > 0: deterministic scan + ternary refinement of |ring factor| in
    # u = rho/w0; the peak value does not depend on w0.
    u = np.linspace(0.0, math.sqrt(0.5 * (m + 4 * p + 4)) + 2.0, 20001)
    g = np.abs(_ring_factor(u, m, p))
    k = int(np.argmax(g))
    lo, hi = u[max(k - 1, 0)], u[min(k + 1, len(u) - 1)]
    for _ in range(80):
        u1 = lo + (hi - lo) / 3.0
        u2 = hi - (hi - lo) / 3.0
        if abs(_ring_factor(u1, m, p)) < abs(_ring_factor(u2, m, p)):
            lo = u1
        else:
            hi = u2
    peak = abs(_ring_factor(0.5 * (lo + hi), m, p))
    return a0 / peak


def _ring_factor(u, m: int, p: int):
    """exp(-u^2) (sqrt(2) u)^|m| L_p^|m|(2 u^2) for u = rho/w0."""
    shape = np.shape(u)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    lag = np.atleast_1d(laguerre(p, m, 2.0 * u * u))
    if m == 0:
        return (np.exp(-u * u) * lag).reshape(shape)
    out = np.zeros_like(u)
    pos = u > 0.0
    out[pos] = np.exp(m * np.log(math.sqrt(2.0) * u[pos]) - u[pos] ** 2)
    return (out * lag).reshape(shape)


@dataclass(frozen=True)
class VortexPulse:
    """Driving-field description; all stored values in atomic units."""

    a0: float                   # positive-frequency vector-potential amplitude
    m_oam: int                  # topological charge
    omega: float                # carrier frequency, hartree
    delta: float                # envelope parameter, a.u.^-2
    waist: float                # w0, bohr
    p: int = 0                  # radial index
    offset: tuple[float, float] = (0.0, 0.0)   # optical-axis position, bohr
    legacy_normalization: bool = False

    def __post_init__(self):
        if self.waist <= 0.0 or self.delta <= 0.0:
            raise ValueError("waist and delta must be positive")
        if abs(self.m_oam) > 40 or not (0 <= self.p <= 8):
            raise ValueError(f"unsupported mode indices m={self.m_oam}, p={self.p}")

    @property
    def amplitude_norm(self) -> float:
        return normalization(self.a0, self.m_oam, self.p,
                             self.legacy_normalization)

    @property
    def intensity_w_cm2(self) -> float:
        """Intensity implied by I = (1/2) eps0 c (omega a0)^2."""
        return (self.omega * self.a0) ** 2 * AU_INTENSITY_W_CM2

    def transverse(self, points):
        """(rho', phi') of points relative to the optical axis."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        dx = pts[:, 0] - self.offset[0]
        dy = pts[:, 1] - self.offset[1]
        return np.hypot(dx, dy), np.arctan2(dy, dx)

    def spatial_amplitude(self, points):
        """Positive-frequency spatial factors (A_x, dA_x/dx) at points.

        Time factors exp(-i w t) exp(-d t^2) are excluded; they multiply
        both returns unchanged.
        """
        rho, phi = self.transverse(points)
        f, fp, f_over_rho = _profile_with_derivative(self, rho)
        phase = np.exp(1j * self.m_oam * phi)
        a_x = f * phase
        div = phase * (fp * np.cos(phi)
                       - 1j * self.m_oam * f_over_rho * np.sin(phi))
        return a_x, div


def mode_profile(pulse: VortexPulse, rho) -> np.ndarray:
    """Radial mode function C exp(-rho^2/w^2) (sqrt2 rho/w)^|m| L_p^|m|(2rho^2/w^2)."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0.0):
        raise ValueError("rho must be nonnegative")
    return pulse.amplitude_norm * _ring_factor(rho / pulse.waist,
                                               abs(pulse.m_oam), pulse.p)


def _profile_with_derivative(pulse: VortexPulse, rho):
    """f(rho), f'(rho) and the limit-safe ratio f(rho)/rho."""
    m, p, w = abs(pulse.m_oam), pulse.p, pulse.waist
    c = pulse.amplitude_norm
    rho = np.asarray(rho, dtype=float)
    s = 2.0 * rho * rho / (w * w)
    lag = laguerre(p, m, s)
    dlag_ds = -laguerre(p - 1, m + 1, s) if p > 0 else np.zeros_like(s)
    f = c * _ring_factor(rho / w, m, p)
    pos = rho > 0.0
    fp = np.zeros_like(rho)
    f_over_rho = np.zeros_like(rho)
    # common factor without the Laguerre part
    base = np.zeros_like(rho)
    if m == 0:
        base[:] = c * np.exp(-(rho / w) ** 2)
    else:
        base[pos] = c * np.exp(m * np.log(math.sqrt(2.0) * rho[pos] / w)
                               - (rho[pos] / w) ** 2)
    if m == 0:
        fp = base * (-2.0 * rho / w**2 * lag + dlag_ds * 4.0 * rho / w**2)
        f_over_rho[pos] = f[pos] / rho[pos]
        f_over_rho[~pos] = 0.0   # multiplied by m = 0 anyway
    else:
        fp[pos] = f[pos] * (m / rho[pos] - 2.0 * rho[pos] / w**2) \
            + base[pos] * dlag_ds[pos] * 4.0 * rho[pos] / w**2
        f_over_rho[pos] = f[pos] / rho[pos]
        if m == 1:
            edge = c * math.sqrt(2.0) / w * laguerre(p, 1, 0.0)
            fp[~pos] = edge
            f_over_rho[~pos] = edge
    return f, fp, f_over_rho


def envelope_fwhm(delta: float) -> float:
    """Amplitude FWHM of exp(-delta t^2) in femtoseconds."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    from .units import au_to_fs
    return au_to_fs(2.0 * math.sqrt(math.log(2.0) / delta))


def delta_from_fwhm_fs(fwhm_fs: float) -> float:
    """Envelope parameter for a requested amplitude FWHM in fs."""
    if fwhm_fs <= 0.0:
        raise ValueError("fwhm must be positive")
    return 4.0 * math.log(2.0) / fs_to_au(fwhm_fs) ** 2
