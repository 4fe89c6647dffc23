"""Model electronic basis: radial shell bands with parabolic l-dispersion.

Orbitals are shell functions R_n(r) * sum_m C_m Y_lm(theta, phi).  Radial
band profiles are Gaussian shells, orthonormalized across bands (sequential
Gram-Schmidt in band order) so that the full orbital set is orthonormal;
the orthogonalization is what gives the diffuse top band its radial nodes.
Band energies follow E_n + l(l+1)/(2 R^2).  The overlaps this needs, and the
squared norm each band keeps beyond a grid's r_max, are closed forms in
erfc and exp of the Gaussians' centres and widths (no radial rule).

Evaluation builds one table of Y_lm and its two angular derivatives over
all (l, m) up to the largest l requested, with the theta-hat and phi-hat
frame (``harmonic_frame``).  No angle is formed: cos phi and sin phi are
x and y over sin theta, e^{im phi} is a power of e^{i phi}, only the m >= 0
rows are computed, and Y_l,-m = (-1)^m conj(Y_lm) fills the rest.  On the
z axis the tables and the frame take phi = 0.  Each orbital's (2l+1)-entry
coefficient block contracts against the table (``angular_tables``), so
one-hot and symmetry-table orbitals share one path.  ``orbital_tables``
evaluates values and gradients at points (``check``'s gradient stencil, the
tests' reference).  On a product grid nothing tabulates an orbital: each is a
radial profile times an angular part, so the Gram <psi_i|psi_j> =
G_rad[b_i, b_j] * G_ang[i, j] is a band Gram over the radial rule times the
Gram of the angular parts over the angular rule (``product_grid_gram``), and
``coupling.interaction_matrix`` and the ``observables`` currents factor alike.
``angular_momentum`` gives the matrices of L in the same Y_lm basis, from
which ``observables.scan_kernel`` takes moments and centre fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .units import ev_to_hartree

__all__ = [
    "BandSpec",
    "Basis",
    "Orbital",
    "SymmetryTable",
    "angular_momentum",
    "angular_tables",
    "build_basis",
    "default_bands",
    "degenerate_groups",
    "harmonic_frame",
    "load_symmetry_coefficients",
    "orbital_tables",
    "parabolic_energy",
    "point_radii",
    "product_grid_gram",
]

DEFAULT_CAGE_RADIUS = 6.7   # bohr, averaged molecular radius
DEFAULT_ETA = 1e-6          # hartree, degeneracy tolerance for DC interference
POINT_BLOCK = 8192          # points per block of per-point harmonic tables


@dataclass(frozen=True)
class BandSpec:
    """One radial band: shell geometry, l range, band offset, filling."""

    n: int
    energy_offset: float        # hartree
    l_max: int
    shell_radius: float         # bohr
    shell_width: float          # bohr
    electron_count: int


def default_bands() -> tuple[BandSpec, ...]:
    """Bands mirroring a C60-like shell model.

    Band 2 (valence, 60 electrons, l <= 5) and band 3 (diffuse virtual
    shells, l <= 3) are the transition-active pair; band 1 is inert
    bookkeeping.  Offsets are model choices placing the band-2 -> band-3
    gaps inside the 5-18 eV excitation window.
    """
    e2 = -0.30
    return (
        BandSpec(n=1, energy_offset=-0.80, l_max=9, shell_radius=6.7,
                 shell_width=0.45, electron_count=180),
        BandSpec(n=2, energy_offset=e2, l_max=5, shell_radius=6.7,
                 shell_width=0.9, electron_count=60),
        BandSpec(n=3, energy_offset=e2 + ev_to_hartree(8.0), l_max=3,
                 shell_radius=6.7, shell_width=3.0, electron_count=0),
    )


def parabolic_energy(band: BandSpec, l: int, cage_radius: float) -> float:
    """Orbital energy E_n + l(l+1)/(2 R^2) in hartree."""
    if l < 0 or l > band.l_max:
        raise ValueError(f"l={l} outside band {band.n} range [0, {band.l_max}]")
    return band.energy_offset + l * (l + 1) / (2.0 * cage_radius**2)


# ---------------------------------------------------------------------------
# radial shells
# ---------------------------------------------------------------------------

class RadialShellSet:
    """Orthonormalized radial functions built from Gaussian shell profiles.

    Every radial integral the construction needs is a closed form of the
    bare Gaussians g_i = exp(-(r - c_i)^2 / 2 w_i^2), so no radial rule is
    involved: ``ortho`` maps them onto profiles R with <R_i|R_j> = delta_ij.
    """

    def __init__(self, centers, widths):
        self.centers = np.asarray(centers, dtype=float)
        self.widths = np.asarray(widths, dtype=float)
        # inv(L) rows give sequential Gram-Schmidt combinations of the
        # Gaussians: R_i = sum_{j <= i} ortho[i, j] g_j with <R_i|R_j> =
        # delta_ij (tril drops the rounding residue inv leaves above the
        # diagonal, which would leak wider shells into a band's tail)
        self.ortho = np.tril(np.linalg.inv(
            np.linalg.cholesky(self._overlaps(0.0))))

    def _overlaps(self, lower: float) -> np.ndarray:
        """Integrals of r^2 g_i g_j over [lower, inf).

        g_i g_j = k exp(-(r - c)^2 / 2v) with 1/v = 1/w_i^2 + 1/w_j^2,
        c = v (c_i/w_i^2 + c_j/w_j^2) and k = exp(-(c_i - c_j)^2 / 2(w_i^2
        + w_j^2)); with a = lower - c, the integral of (t + c)^2 e^(-t^2/2v)
        over t > a is (c^2 + v) sqrt(pi v/2) erfc(a/sqrt(2v))
        + v (lower + c) e^(-a^2/2v).
        """
        out = np.empty((len(self.centers),) * 2)
        shells = list(zip(self.centers.tolist(), self.widths.tolist()))
        for i, (ci, wi) in enumerate(shells):
            for j, (cj, wj) in enumerate(shells):
                v = 1.0 / (1.0 / wi**2 + 1.0 / wj**2)
                c = v * (ci / wi**2 + cj / wj**2)
                a = lower - c
                k = math.exp(-(ci - cj) ** 2 / (2.0 * (wi**2 + wj**2)))
                out[i, j] = k * (
                    (c * c + v) * math.sqrt(0.5 * math.pi * v)
                    * math.erfc(a / math.sqrt(2.0 * v))
                    + v * (lower + c) * math.exp(-a * a / (2.0 * v)))
        return out

    def _gaussians(self, r):
        r = np.asarray(r, dtype=float)
        return np.exp(-((r[None, :] - self.centers[:, None]) ** 2)
                      / (2.0 * self.widths[:, None] ** 2))

    def values(self, r):
        """Orthonormalized profiles, shape (n_shells, len(r))."""
        return self.ortho @ self._gaussians(r)

    def derivatives(self, r):
        r = np.asarray(r, dtype=float)
        slope = -(r[None, :] - self.centers[:, None]) / self.widths[:, None] ** 2
        return self.ortho @ (slope * self._gaussians(r))

    def tail_norms(self, r_max: float) -> np.ndarray:
        """Squared norm of each profile beyond r_max."""
        return np.einsum("ij,jk,ik->i", self.ortho, self._overlaps(r_max),
                         self.ortho)


# ---------------------------------------------------------------------------
# orbitals and basis assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Orbital:
    index: int
    band: int                 # principal index n
    band_pos: int             # position of the band in Basis.bands
    l: int
    rep_label: str
    lam: int
    energy: float             # hartree
    coeffs: np.ndarray        # complex, length 2l+1, entry m+l
    occupied: bool

    def dominant_m(self) -> int:
        return int(np.argmax(np.abs(self.coeffs))) - self.l


@dataclass(frozen=True, eq=False)
class Basis:
    bands: tuple[BandSpec, ...]
    orbitals: tuple[Orbital, ...]
    cage_radius: float
    shells: RadialShellSet

    @property
    def l_max(self) -> int:
        return max(b.l_max for b in self.bands)

    def band_orbitals(self, n: int) -> list[Orbital]:
        return [o for o in self.orbitals if o.band == n]


def _lowest_m_order(l: int) -> list[int]:
    # 0, -1, +1, -2, +2, ... : symmetric fill order for degenerate shells
    order = [0]
    for m in range(1, l + 1):
        order += [-m, m]
    return order


def _spherical_substates(l: int):
    # one-hot in m: the shell's coefficient block is the identity
    return [(f"m{m:+d}", m, row)
            for m, row in zip(range(-l, l + 1), np.eye(2 * l + 1, dtype=complex))]


def build_basis(bands: tuple[BandSpec, ...] | None = None,
                cage_radius: float = DEFAULT_CAGE_RADIUS,
                symmetry_table: "SymmetryTable | None" = None) -> Basis:
    """Enumerate orbitals in (n, l, substate) order with energies and filling.

    In spherical mode coefficients are one-hot in m.  With a symmetry table
    the tabulated (l, rep, lambda) combinations replace the one-hot set for
    every l they cover; substate order then follows the table.
    """
    if bands is None:
        bands = default_bands()
    shells = RadialShellSet([b.shell_radius for b in bands],
                            [b.shell_width for b in bands])
    orbitals: list[Orbital] = []
    index = 0
    for pos, band in enumerate(bands):
        if band.electron_count % 2:
            raise ValueError(f"band {band.n}: odd electron count "
                             f"{band.electron_count} (spin pairing)")
        n_spatial = (band.l_max + 1) ** 2
        n_fill = band.electron_count // 2
        if n_fill > n_spatial:
            raise ValueError(
                f"band {band.n}: {band.electron_count} electrons exceed "
                f"{2 * n_spatial} available slots")
        band_orbs: list[Orbital] = []
        for l in range(band.l_max + 1):
            if symmetry_table is not None and symmetry_table.covers(l):
                subs = symmetry_table.substates(l)
            else:
                subs = _spherical_substates(l)
            energy = parabolic_energy(band, l, cage_radius)
            for rep, lam, coeffs in subs:
                band_orbs.append(Orbital(
                    index=0, band=band.n, band_pos=pos, l=l, rep_label=rep,
                    lam=lam, energy=energy, coeffs=coeffs, occupied=False))
        covered = {l for l in range(band.l_max + 1)
                   if symmetry_table is not None and symmetry_table.covers(l)}
        band_orbs = _apply_occupation(band, band_orbs, n_fill, covered)
        for orb in band_orbs:
            orbitals.append(replace(orb, index=index))
            index += 1
    return Basis(bands=tuple(bands), orbitals=tuple(orbitals),
                 cage_radius=cage_radius, shells=shells)


def _apply_occupation(band, band_orbs, n_fill, table_shells):
    # fill whole shells lowest-l first; a partially filled shell takes the
    # lowest-|m| substates (spherical) or the first table rows (when the
    # table covers that l).
    filled = []
    remaining = n_fill
    for l in range(band.l_max + 1):
        shell = [o for o in band_orbs if o.l == l]
        if remaining >= len(shell):
            filled += [replace(o, occupied=True) for o in shell]
            remaining -= len(shell)
        elif remaining > 0:
            if l in table_shells:
                filled += [replace(o, occupied=(k < remaining))
                           for k, o in enumerate(shell)]
            else:
                chosen = set(_lowest_m_order(l)[:remaining])
                filled += [replace(o, occupied=(o.lam in chosen)) for o in shell]
            remaining = 0
        else:
            filled += shell
    return filled


def degenerate_groups(orbitals, eta: float = DEFAULT_ETA):
    """Group orbitals whose energies agree within eta (chained clustering)."""
    ordered = sorted(orbitals, key=lambda o: o.energy)
    groups: list[list[Orbital]] = []
    for orb in ordered:
        if groups and abs(orb.energy - groups[-1][-1].energy) < eta:
            groups[-1].append(orb)
        else:
            groups.append([orb])
    return groups


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _harmonic_tables(lmax: int, ct, st, eiphi):
    """Y_lm, d/dtheta Y_lm and (1/sin theta) d/dphi Y_lm for all l <= lmax.

    Rows follow k = l^2 + l + m, so the coefficient block of an orbital with
    angular momentum l contracts against rows l^2 .. (l+1)^2 - 1.  Only the
    m >= 0 rows are computed: with Ptilde_lm = Q_lm sin^m theta they are
    e^{im phi} times Q_lm sin^m, m cos theta sin^(m-1) Q_lm - dQ_lm sin^(m+1)
    and i m Q_lm sin^(m-1), where e^{im phi} is the m-th power of eiphi =
    e^{i phi}, taken by repeated products.  Each m < 0 row of all three
    tables is then Y_l,-m = (-1)^m conj(Y_lm).  Splitting the sin^m factor
    off the Legendre part keeps the phi derivative finite at the poles.
    """
    q, dq = numerics.legendre_q_tables(lmax, ct)
    m = np.arange(lmax + 1)[:, None]
    spow = st ** np.arange(lmax + 2)[:, None]       # sin^k theta, k <= lmax+1
    # sin^(m-1) theta only meets a factor m, so m = 0 may take sin^0
    s_lower = np.concatenate([spow[:1], spow[:lmax]])
    # real factors of the m >= 0 rows of the three tables, [table, l, m]
    real = np.empty((3,) + q.shape)
    np.multiply(q, spow[:-1], out=real[0])
    np.multiply(q, m * s_lower, out=real[2])
    np.subtract(ct * real[2], dq * spow[1:], out=real[1])
    del q, dq                   # freed before the complex tables exist
    # e^{im phi} for m = 0..lmax, times i for the phi derivative
    phase = np.empty((3, lmax + 1, len(ct)), dtype=complex)
    phase[0, 0], phase[0, 1:] = 1.0, eiphi
    np.cumprod(phase[0], axis=0, out=phase[0])
    phase[1] = phase[0]
    np.multiply(phase[0], 1j, out=phase[2])
    tab = np.empty((3, (lmax + 1) ** 2, len(ct)), dtype=complex)
    for l in range(lmax + 1):
        k = l * l + l                               # row of m = 0
        np.multiply(real[:, l, :l + 1], phase[:, :l + 1],
                    out=tab[:, k:k + l + 1])
        # rows m = -l..-1 are (-1)^m conj of rows m = l..1
        neg = tab[:, l * l:k]
        np.conjugate(tab[:, k + l:k:-1], out=neg)
        neg[:, (l + 1) % 2::2] *= -1.0
    return tab[0], tab[1], tab[2]


def harmonic_frame(lmax: int, dirs):
    """Harmonic tables and the local frame at unit directions dirs (n, 3).

    Returns (y, dth, dph, theta_hat, phi_hat): Y_lm, d/dtheta Y_lm and
    (1/sin theta) d/dphi Y_lm for all l <= lmax in rows k = l^2 + l + m,
    each (n_lm, n), and the unit vectors theta-hat and phi-hat, each (n, 3).
    The tangential gradient r grad Y_lm is dth theta-hat + dph phi-hat.
    No angle is formed: cos phi and sin phi are x and y over sin theta.  On
    the z axis (sin theta = 0) the tables and the frame take phi = 0, so
    theta-hat = (cos theta, 0, 0) and phi-hat = (0, 1, 0) there; the
    tangential gradient does not depend on that choice.
    """
    x, y = dirs[:, 0], dirs[:, 1]
    ct = np.clip(dirs[:, 2], -1.0, 1.0)
    # sin theta from x and y: sqrt(1 - cos^2) rounds to 0 near the axis
    st = np.hypot(x, y)
    # scale (x, y) by its larger component first, so subnormal components
    # keep full precision; on the axis the scale is inf and cos phi is 1
    big = np.maximum(np.abs(x), np.abs(y))
    axis = big == 0.0
    big[axis] = np.inf
    cx, sy = x / big + axis, y / big
    norm = np.hypot(cx, sy)
    cp, sp = cx / norm, sy / norm
    that = np.stack([ct * cp, ct * sp, -st], axis=1)
    phat = np.stack([-sp, cp, np.zeros_like(cp)], axis=1)
    return (*_harmonic_tables(lmax, ct, st, cp + 1j * sp), that, phat)


def angular_momentum(l: int) -> np.ndarray:
    """(L_x, L_y, L_z), shape (3, 2l+1, 2l+1): the matrices <Y_lm|L|Y_lm'>
    with m = -l..l (entry m+l) and the Condon-Shortley phase of the tables
    above, so L_+ Y_lm = sqrt(l(l+1) - m(m+1)) Y_l,m+1 (the sub-diagonal)."""
    m = np.arange(-l, l + 1)
    raise_ = np.diag(np.sqrt(l * (l + 1) - m[:-1] * (m[:-1] + 1.0)), -1)
    return np.array([0.5 * (raise_ + raise_.T),
                     -0.5j * (raise_ - raise_.T), np.diag(m)], dtype=complex)


# r -> 0 limits of (psi / R, grad / R') per (l, m) row for l <= 1.  Only
# l = 0 keeps a value; the gradient takes the regularized +z-axis limit:
# z-hat Y_00 for l = 0, the constant gradient of r Y_1m for l = 1, zero above.
_Y00 = math.sqrt(1.0 / (4.0 * math.pi))
_C0, _C1 = math.sqrt(3.0 / (4.0 * math.pi)), math.sqrt(3.0 / (8.0 * math.pi))
_ORIGIN_LIMITS = np.array([[_Y00, 0.0, 0.0, _Y00],
                           [0.0, _C1, -1j * _C1, 0.0],      # m = -1
                           [0.0, 0.0, 0.0, _C0],            # m = 0
                           [0.0, -_C1, -1j * _C1, 0.0]])    # m = +1


def point_radii(pts) -> np.ndarray:
    """|p| of each row of pts (n, 3), by hypot: the squares of a norm
    underflow below ~1e-154 bohr.  Radii below the smallest normal float,
    where 1/r overflows, read 0, so such points take the origin's limit."""
    r = np.hypot(np.hypot(pts[:, 0], pts[:, 1]), pts[:, 2])
    r[r < np.finfo(float).tiny] = 0.0
    return r


def orbital_tables(basis: Basis, orbitals, points):
    """Vectorized values and gradients for a set of orbitals at points.

    ``points`` is (n, 3) (for a QuadratureGrid, pass ``grid.points``); the
    harmonics are built per block of ``POINT_BLOCK`` points.  Returns
    (psi, grad) with shapes (n_orb, n) and (n_orb, n, 3).  At r = 0 (as
    ``point_radii`` reads it) the (regularized) +z-axis limit is used: psi
    vanishes for l >= 1, the gradient for l >= 2.
    """
    orbitals = list(orbitals)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r = point_radii(pts)
    safe_r = np.where(r > 0.0, r, 1.0)
    dirs, inv_r = pts / safe_r[:, None], 1.0 / safe_r
    rad, drad = basis.shells.values(r), basis.shells.derivatives(r)
    psi = np.empty((len(orbitals), len(r)), dtype=complex)
    grad = np.empty((len(orbitals), len(r), 3), dtype=complex)
    for i in range(0, len(r), POINT_BLOCK):
        blk = slice(i, i + POINT_BLOCK)
        parts = _angular_parts(orbitals, dirs[blk])
        for k, (orb, (ang, tang)) in enumerate(zip(orbitals, parts)):
            b = orb.band_pos
            psi[k, blk] = rad[b, blk] * ang
            grad[k, blk] = (drad[b, blk, None] * (ang[:, None] * dirs[blk])
                            + (rad[b, blk] * inv_r[blk])[:, None] * tang)
    origin = r == 0.0
    lmax = max((o.l for o in orbitals), default=0)
    lim = np.zeros(((lmax + 2) ** 2, 4), dtype=complex)
    lim[:4] = _ORIGIN_LIMITS
    for k, orb in enumerate(orbitals):
        at0 = orb.coeffs @ lim[orb.l ** 2:(orb.l + 1) ** 2]
        psi[k, origin] = rad[orb.band_pos, origin] * at0[0]
        grad[k, origin] = drad[orb.band_pos, origin, None] * at0[1:]
    return psi, grad


def _angular_parts(orbitals, dirs):
    """Yield (Y, T) of each orbital at unit directions dirs (n, 3): its
    angular part Y = sum_m C_m Y_lm, shape (n,), and T = r grad Y, the
    tangential gradient theta-hat dY/dtheta + phi-hat dY/dphi / sin theta,
    shape (n, 3).  The harmonic tables are built once for all orbitals."""
    y, dth, dph, that, phat = harmonic_frame(
        max((o.l for o in orbitals), default=0), dirs)
    for orb in orbitals:
        rows, c = slice(orb.l ** 2, (orb.l + 1) ** 2), orb.coeffs
        yield c @ y[rows], ((c @ dth[rows])[:, None] * that
                            + (c @ dph[rows])[:, None] * phat)


def angular_tables(orbitals, dirs):
    """Angular parts Y (n_orb, n) and tangential gradients T = r grad Y
    (n_orb, n, 3) of the orbitals at unit directions dirs (n, 3).

    An orbital is R_b(r) Y, so its gradient is R_b' Y r-hat + (R_b / r) T.
    """
    orbitals = list(orbitals)
    y = np.empty((len(orbitals), len(dirs)), dtype=complex)
    t = np.empty((len(orbitals), len(dirs), 3), dtype=complex)
    for k, (ang, tang) in enumerate(_angular_parts(orbitals, dirs)):
        y[k], t[k] = ang, tang
    return y, t


def product_grid_gram(basis: Basis, orbitals,
                      grid: numerics.QuadratureGrid) -> np.ndarray:
    """Quadrature overlaps <psi_i|psi_j> of the orbitals on a product grid.

    Each orbital is R_b(r) * sum_m C_m Y_lm and the grid weights are radial
    times angular weights, so the grid sum splits into a band Gram over the
    radial nodes times a Gram of the angular parts over the angular nodes.
    Equal to ``(psi.conj() * grid.weights) @ psi.T`` over the
    ``orbital_tables`` values up to rounding (no node sits at r = 0).
    """
    orbitals = list(orbitals)
    rad = basis.shells.values(grid.radial_nodes)
    g_rad = (rad * grid.radial_weights) @ rad.T
    ang = angular_tables(orbitals, grid.angular_nodes)[0]
    g_ang = (ang.conj() * grid.angular_weights) @ ang.T
    bands = [o.band_pos for o in orbitals]
    return g_rad[np.ix_(bands, bands)] * g_ang


# ---------------------------------------------------------------------------
# symmetry-adapted coefficient tables
# ---------------------------------------------------------------------------

class SymmetryTable:
    """Tabulated coefficient sets replacing one-hot m substates.

    ``groups`` maps l -> ordered list of (rep_label, lam, coeffs); order
    follows first appearance in the source file.
    """

    def __init__(self, groups: dict[int, list]):
        self.groups = groups

    def covers(self, l: int) -> bool:
        return l in self.groups

    def substates(self, l: int):
        return [(rep, lam, c.copy()) for rep, lam, c in self.groups[l]]


def load_symmetry_coefficients(path) -> SymmetryTable:
    """Parse a coefficient table: columns "l rep lam m re im", '#' comments.

    Each (l, rep, lam) row group must be normalized (|deviation| <= 1e-8),
    each l block must contain exactly 2l+1 mutually orthogonal substates.
    """
    raw: dict[tuple[int, str, int], np.ndarray] = {}
    order: list[tuple[int, str, int]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            cols = text.split()
            if len(cols) != 6:
                raise ValueError(
                    f"{path}:{lineno}: expected 6 columns 'l rep lam m re im', "
                    f"got {len(cols)}")
            try:
                l = int(cols[0])
                lam = int(cols[2])
                m = int(cols[3])
                re, im = float(cols[4]), float(cols[5])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if l < 0 or abs(m) > l:
                raise ValueError(f"{path}:{lineno}: |m|={abs(m)} exceeds l={l}")
            key = (l, cols[1], lam)
            if key not in raw:
                raw[key] = np.zeros(2 * l + 1, dtype=complex)
                order.append(key)
            raw[key][m + l] += re + 1j * im
    groups: dict[int, list] = {}
    for key in order:
        l, rep, lam = key
        coeffs = raw[key]
        norm = float(np.sum(np.abs(coeffs) ** 2))
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(
                f"{path}: substate (l={l}, rep={rep}, lam={lam}) has "
                f"|C|^2={norm:.3e}, deviates from 1 by more than 1e-8")
        groups.setdefault(l, []).append((rep, lam, coeffs))
    for l, subs in groups.items():
        if len(subs) != 2 * l + 1:
            raise ValueError(
                f"{path}: l={l} block has {len(subs)} substates, needs {2 * l + 1}")
        mat = np.array([c for _, _, c in subs])
        off = mat @ mat.conj().T - np.eye(len(subs))
        if np.max(np.abs(off)) > 1e-8:
            raise ValueError(
                f"{path}: l={l} substates are not mutually orthonormal "
                f"(max deviation {np.max(np.abs(off)):.3e})")
    return SymmetryTable(groups)
