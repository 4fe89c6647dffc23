"""Linearly polarized Laguerre-Gaussian vortex pulse in atomic units.

The positive-frequency part of the vector potential is

    A+(r, t) = xhat * C * u(z) * exp(-i w t) * exp(-d t^2),
    u(z) = L_p^|m|(2|z|^2) (sqrt2 z)^|m| exp(-|z|^2),

with z = (x' + i sgn(m) y') / w0 the transverse position measured from the
optical axis (offset from the cage center by ``offset``); the physical field
is A+ + c.c.  In polar form u = f(rho') exp(i m phi'): the vortex phase
exp(i m phi') is the phase of (x' +- i y')^|m|, so no polar angle is needed
and the axis is an ordinary point.  The longitudinal phase exp(i omega r_z / c)
along the propagation axis is dropped (omega r_z / c << 1 on the cage scale).
Peak-amplitude normalization makes max_rho |C f| = a0 for every topological
charge; the printed-formula variant (peak suppressed by exp(-|m|)) stays
available behind ``legacy_normalization``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    # p > 0: deterministic scan + ternary refinement of |mode| in
    # u = rho/w0; the peak value does not depend on w0.
    u = np.linspace(0.0, math.sqrt(0.5 * (m + 4 * p + 4)) + 2.0, 20001)
    k = int(np.argmax(np.abs(_mode(u, m, p))))
    lo, hi = u[max(k - 1, 0)], u[min(k + 1, len(u) - 1)]
    for _ in range(80):
        u1 = lo + (hi - lo) / 3.0
        u2 = hi - (hi - lo) / 3.0
        if abs(_mode(u1, m, p)) < abs(_mode(u2, m, p)):
            lo = u1
        else:
            hi = u2
    return a0 / abs(_mode(0.5 * (lo + hi), m, p))


def _mode(z, m: int, p: int, with_dx: bool = False):
    """Mode L_p^m(2|z|^2) (sqrt2 z)^m exp(-|z|^2) for m >= 0.

    z is rho/w0 (real) or the transverse position (x' +- i y')/w0.  The
    Gaussian is split as h^(m+1) with h = exp(-|z|^2/(m+1)), and the mode is
    L (sqrt2 z h)^m h: |sqrt2 z h| <= sqrt((m+1)/e), so every factor stays
    bounded on and off the axis.  ``with_dx`` also returns w0 d/dx' of the
    mode, 2 Re z (2 L' - L) (sqrt2 z h)^m h + sqrt2 m L (sqrt2 z h)^(m-1) h^2
    with L' = -L_{p-1}^{m+1}.
    """
    s = z.real ** 2 + z.imag ** 2
    h = np.exp(-s / (m + 1))
    q = math.sqrt(2.0) * z * h
    lag = laguerre(p, m, 2.0 * s)
    qm_h = q ** m * h
    if not with_dx:
        return lag * qm_h
    dlag = -laguerre(p - 1, m + 1, 2.0 * s) if p else 0.0
    dx = 2.0 * z.real * (2.0 * dlag - lag) * qm_h
    if m:
        dx = dx + math.sqrt(2.0) * m * lag * q ** (m - 1) * h * h
    return lag * qm_h, dx


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

    @cached_property
    def amplitude_norm(self) -> float:
        # cached: for p > 0 ``normalization`` scans 20,001 points
        return normalization(self.a0, self.m_oam, self.p,
                             self.legacy_normalization)

    @property
    def intensity_w_cm2(self) -> float:
        """Intensity implied by I = (1/2) eps0 c (omega a0)^2."""
        return (self.omega * self.a0) ** 2 * AU_INTENSITY_W_CM2

    def spatial_amplitude(self, points):
        """Positive-frequency spatial factors (A_x, dA_x/dx) at points.

        Time factors exp(-i w t) exp(-d t^2) are excluded; they multiply
        both returns unchanged.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        w, sign = self.waist, math.copysign(1.0, self.m_oam)
        z = ((pts[:, 0] - self.offset[0])
             + 1j * sign * (pts[:, 1] - self.offset[1])) / w
        mode, dx = _mode(z, abs(self.m_oam), self.p, with_dx=True)
        c = self.amplitude_norm
        return c * mode, (c / w) * dx


def mode_profile(pulse: VortexPulse, rho) -> np.ndarray:
    """Radial mode function C exp(-rho^2/w^2) (sqrt2 rho/w)^|m| L_p^|m|(2rho^2/w^2)."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0.0):
        raise ValueError("rho must be nonnegative")
    return pulse.amplitude_norm * _mode(rho / pulse.waist, abs(pulse.m_oam),
                                        pulse.p)


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
