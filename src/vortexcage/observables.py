"""Post-pulse DC current density and the magnetics derived from it.

Only coherences between excited substates lambda, lambda' of the same
representation block (same band, same l, same substate label) that are
degenerate within eta survive time averaging.  With the one-hot spherical
substates every block is one-dimensional, so the DC current collapses to
population-weighted orbital currents; symmetry-adapted tables give
multi-dimensional blocks with genuine cross terms.  Per block g,

    j(r) = 2 sum_g Im{ sum_{l,l'} C^g_{ll'} conj(psi_l) grad psi_l' },
    C^g_{ll'} = sum_k conj(B_lk) B_l'k

(the factor 2 is spin).  Each block shares one radial function and l, so
every contribution is divergence-free.  The orbital moment is (1/2) int r x j
and the center field follows from the Biot-Savart kernel (r x j)/r^3 with
mu0/(4 pi) = alpha^2 in atomic units; a right-handed (+phi) loop therefore
gives B_z > 0, pinning the sign convention against the analytic ring.

All of these are linear in the coherences C^g, which alone depend on the
pulse.  Scans therefore take each pair current's integrals once per grid
(``scan_kernel``) and contract the coherences of each scan point against
them; the sampled path serves plane lattices and checks.

Both paths take one identity and tabulate no orbital.  With psi_l = R_b Y_l
and the tangential gradient T_l = r grad Y_l,

    conj(psi_l) grad psi_l' = R_b R_b' conj(Y_l) Y_l' r-hat
                              + (R_b^2 / r) conj(Y_l) T_l'.

C^g is Hermitian, so sum_ll' C^g_ll' conj(Y_l) Y_l' is real and the r-hat
term has no imaginary part: it drops out of the current.  Writing Y_l =
sum_m K_lm Y_lm with the block's coefficient rows K_g, the current is

    j = sum_(b,l) (R_b^2 / r) 2 Im sum_mm' D_mm' conj(Y_lm) T_lm',
    D^(b,l) = sum_g K_g^H C^g K_g,

one (2l+1)^2 Hermitian quadratic form in the harmonics per (band, l); the
cross terms of symmetry-table blocks enter through D.  At r = 0 the current
is zero (psi vanishes there for l >= 1, and the l = 0 term is real).

The moment and center field of one (band b, l) term are traces, as
r-hat x T_lm' = i L Y_lm' (L from ``structure.angular_momentum(l)``):
m = s mu_b Re Tr(D^T L) and B(0) = 2 (mu0/4 pi) kappa_b s Re Tr(D^T L),
with s the charge sign, mu_b = int R_b^2 r^2 dr and kappa_b = int_{r >=
r_cut} R_b^2 / r dr.  ``scan_kernel`` takes both so, with mu_b and kappa_b
summed on the grid's radial rule; ``magnetic_moment`` and ``b_field_center``
integrate sampled fields (``check``'s ring oracle and Python callers).
R_3(0) != 0, so kappa_3, and with it B_z, grows like -ln r_cut.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import coupling, structure
from .numerics import QuadratureGrid, gauss_legendre
from .structure import DEFAULT_ETA
from .units import AU_BFIELD_T, BOHR_MAGNETON_AU, MU0_OVER_4PI_AU

__all__ = [
    "CurrentField",
    "CutoffLeakWarning",
    "MagneticsResult",
    "ScanKernel",
    "b_field_center",
    "current_samples",
    "cylindrical_decomposition",
    "magnetic_moment",
    "magnetics",
    "plane_lattice",
    "radial_ring_count",
    "ring_current_field",
    "sample_current",
    "sample_current_plane",
    "scan_kernel",
    "write_plane",
]

DEFAULT_R_CUT = 0.5   # bohr, Biot-Savart origin exclusion
MIN_PLANE_RESOLUTION = 32
PLANE_WRITE_BLOCK = 4096   # lattice lines per formatted block


class CutoffLeakWarning(UserWarning):
    pass


@dataclass(frozen=True, eq=False)
class CurrentField:
    """Sampled real current density with volume weights for integration."""

    points: np.ndarray
    j: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True, eq=False)
class MagneticsResult:
    moment_au: np.ndarray              # (1/2) int r x j, a.u.
    b_center_au: np.ndarray

    @property
    def moment_mu_b(self) -> np.ndarray:
        return self.moment_au / BOHR_MAGNETON_AU

    @property
    def b_center_tesla(self) -> np.ndarray:
        return self.b_center_au * AU_BFIELD_T


# ---------------------------------------------------------------------------
# DC current assembly
# ---------------------------------------------------------------------------

def _coherence_blocks(targets, eta):
    """Interfering substate blocks of the target orbitals: same (band, l,
    rep label), energies within eta.  Returns lists of target rows."""
    row_of = {o.index: r for r, o in enumerate(targets)}
    by_rep: dict[tuple, list] = {}
    for o in targets:
        by_rep.setdefault((o.band, o.l, o.rep_label), []).append(o)
    return [[row_of[o.index] for o in grp]
            for members in by_rep.values()
            for grp in structure.degenerate_groups(members, eta)]


def _charge_sign(charge_convention: str) -> float:
    if charge_convention == "electron":
        return -1.0
    if charge_convention == "probability":
        return 1.0
    raise ValueError(f"unknown charge convention {charge_convention!r}")


def _coherence_matrices(excitation, basis, eta):
    """{(band position, l): D} with D = sum_g K_g^H C_g K_g over the blocks
    g of that band and l, K_g the blocks' coefficient rows: the Hermitian
    (2l+1)^2 coherence matrix of the spherical harmonics Y_lm."""
    unocc = [basis.orbitals[i] for i in excitation.transitions.unoccupied]
    amps = excitation.amplitudes
    dmats: dict[tuple[int, int], np.ndarray] = {}
    for rows in _coherence_blocks(unocc, eta):
        # source-summed coherence matrix C[l, l'] = sum_k conj(B_lk) B_l'k
        b_block = amps[rows, :]
        coh = b_block.conj() @ b_block.T
        if not np.any(coh):
            continue
        k = np.array([unocc[r].coeffs for r in rows])
        key = (unocc[rows[0]].band_pos, unocc[rows[0]].l)
        dmats[key] = dmats.get(key, 0.0) + k.conj().T @ coh @ k
    return dmats


def _current_block(basis, dmats, r, dirs):
    """Sum over (b, l) of (R_b^2 / r) 2 Im sum_mm' D_mm' conj(Y_lm) T_lm' at
    the broadcast product of radii r and unit directions dirs (n, 3); zero
    at r = 0."""
    y, dth, dph, that, phat = structure.harmonic_frame(
        max(l for _, l in dmats), dirs)
    ang = {}
    for (b, l), d in dmats.items():
        rows = slice(l * l, (l + 1) ** 2)
        y_conj = y[rows].conj()
        s_th = 2.0 * np.einsum("mn,mn->n", y_conj, d @ dth[rows]).imag
        s_ph = 2.0 * np.einsum("mn,mn->n", y_conj, d @ dph[rows]).imag
        vec = s_th[:, None] * that + s_ph[:, None] * phat
        ang[b] = ang.get(b, 0.0) + vec
    rad = basis.shells.values(r.ravel()).reshape((-1,) + r.shape)
    inv_r = np.divide(1.0, r, out=np.zeros_like(r), where=r > 0.0)
    return sum((rad[b] ** 2 * inv_r)[..., None] * vec
               for b, vec in ang.items()).reshape(-1, 3)


def current_samples(excitation, basis, points, eta: float = DEFAULT_ETA,
                    charge_convention: str = "electron") -> np.ndarray:
    """DC current density at a grid's or an (n, 3) array's points, (n_pts, 3).

    A QuadratureGrid is read as R_b^2 / r on its radial nodes and the
    angular fields on its angular nodes, joined by broadcasting (as in
    ``scan_kernel``); an array is taken in blocks of points.
    """
    sign = _charge_sign(charge_convention)
    dmats = _coherence_matrices(excitation, basis, eta)
    if isinstance(points, QuadratureGrid):
        r, dirs = points.radial_nodes[:, None], points.angular_nodes
        n_pts = step = len(points.weights)
    else:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = structure.point_radii(pts)
        dirs = pts / np.where(r > 0.0, r, 1.0)[:, None]
        n_pts, step = len(r), structure.POINT_BLOCK
    # each block's result is kept until the join rather than copied out and
    # freed: that keeps glibc from trimming and re-faulting the heap between
    # blocks (82k -> 43k minor faults for a resolution-256 planes run)
    blocks = [_current_block(basis, dmats, r[i:i + step], dirs[i:i + step])
              for i in range(0, n_pts, step)] if dmats else []
    j = np.concatenate(blocks) if blocks else np.zeros((n_pts, 3))
    return sign * j


def sample_current(excitation, basis, grid, eta: float = DEFAULT_ETA,
                   charge_convention: str = "electron") -> CurrentField:
    """Current field sampled on an integration grid."""
    j = current_samples(excitation, basis, grid, eta, charge_convention)
    return CurrentField(points=grid.points, j=j, weights=grid.weights)


@dataclass(frozen=True, eq=False)
class ScanKernel:
    """Integrals of every coherence-pair current of a target set.

    With Z = (R_b^2 / r) conj(Y_l) T_l' for rows l, l' of one block, the
    current is j = sum_q u_q F_q over rows q that pair u = 2 Re C_ll' with
    F = Im Z and u = 2 Im C_ll' with F = Re Z (a diagonal pair has only the
    first, as C_ll is real; the r-hat part of conj(psi_l) grad psi_l'
    cancels, as in ``current_samples``).  Moment, center field and the
    cylindrical components are linear in j, so each is taken per row once
    (the first two as traces against L, the components on the grid) and a
    scan point only contracts its coherences against them.
    """

    targets: tuple[int, ...]      # basis indices, in transition-set row order
    left: np.ndarray              # target row l of each pair row
    right: np.ndarray             # target row l' of each pair row
    imag_coherence: np.ndarray    # True where u = 2 Im C (F = Re Z)
    moment: np.ndarray            # (n_rows, 3) moment of each row field, a.u.
    b_center: np.ndarray          # (n_rows, 3) center field of each row, a.u.
    components: np.ndarray        # (3, n_rows, n_pts) F along rho, phi, z
    weights: np.ndarray

    def observables(self, excitation):
        """``(MagneticsResult, (|j_rho|, |j_phi|, |j_z|))`` of the DC current
        that ``excitation`` leaves, as ``magnetics`` (without the cutoff
        warning) and ``cylindrical_decomposition`` of the sampled field."""
        if tuple(excitation.transitions.unoccupied) != self.targets:
            raise ValueError("excitation targets differ from the kernel's")
        amps = excitation.amplitudes
        coh = np.sum(amps[self.left].conj() * amps[self.right], axis=1)
        u = 2.0 * np.where(self.imag_coherence, coh.imag, coh.real)
        mag = MagneticsResult(u @ self.moment, u @ self.b_center)
        # the norms square the contracted component fields: a quadratic form
        # in u would cancel under the square root
        norms = tuple(float(np.sqrt(np.sum(self.weights * (u @ comp) ** 2)))
                      for comp in self.components)
        return mag, norms


def scan_kernel(basis, grid, eta: float = DEFAULT_ETA,
                charge_convention: str = "electron",
                r_cut: float = DEFAULT_R_CUT) -> ScanKernel:
    """``ScanKernel`` of the ``coupling.transition_orbitals`` targets.

    Row q has D = (1/2) conj(c_l) c_l'^T (times i for F = Re Z; c the
    targets' coefficient rows).  Its moment and center field are the traces
    of the module docstring; its field, for the cylindrical components
    only, is ``_current_block`` on the grid's radial and angular nodes.
    Every scan point that excites these targets on this grid then reuses
    the integrals.
    """
    _, targets = coupling.transition_orbitals(basis)
    sign = _charge_sign(charge_convention)
    rows = [(l, lp, imag_c) for block in _coherence_blocks(targets, eta)
            for l in block for lp in block
            for imag_c in ((False,) if l == lp else (False, True))]
    r, dirs = grid.radial_nodes[:, None], grid.angular_nodes
    pts, w = grid.points, grid.weights
    # per band: mu_b = int R_b^2 r^2 dr and kappa_b = int_{r >= r_cut} R_b^2/r dr
    nodes = grid.radial_nodes
    rad2 = basis.shells.values(nodes) ** 2 * grid.radial_weights
    keep = nodes >= r_cut
    mu, kappa = rad2.sum(axis=1), rad2[:, keep] @ nodes[keep] ** -3.0
    moment = np.empty((len(rows), 3))
    b_center = np.empty((len(rows), 3))
    components = np.empty((3, len(rows), len(w)))
    for q, (l, lp, imag_c) in enumerate(rows):
        orb = targets[l]
        d = 0.5 * np.outer(orb.coeffs.conj(), targets[lp].coeffs)
        d = 1j * d if imag_c else d
        trace = sign * np.einsum("mn,kmn->k", d,
                                 structure.angular_momentum(orb.l)).real
        moment[q] = mu[orb.band_pos] * trace
        b_center[q] = 2.0 * MU0_OVER_4PI_AU * kappa[orb.band_pos] * trace
        j = _current_block(basis, {(orb.band_pos, orb.l): d}, r, dirs)
        components[:, q] = _cylindrical_components(
            CurrentField(points=pts, j=sign * j, weights=w))
    left, right, imag_c = np.array(rows, dtype=int).reshape(-1, 3).T
    return ScanKernel(targets=tuple(o.index for o in targets), left=left,
                      right=right, imag_coherence=imag_c.astype(bool),
                      moment=moment, b_center=b_center,
                      components=components, weights=w)


def plane_lattice(plane: str, extent: float, resolution: int) -> np.ndarray:
    """Regular (resolution, resolution, 3) lattice in the xy or xz plane
    through the origin, spanning [-extent, extent] along both axes.  An odd
    resolution puts the middle node exactly at 0, so the lattice holds the
    origin itself rather than a point a rounding error away from it."""
    if resolution < MIN_PLANE_RESOLUTION:
        raise ValueError(
            f"resolution must be at least {MIN_PLANE_RESOLUTION}")
    if plane not in ("xy", "xz"):
        raise ValueError(f"plane must be 'xy' or 'xz', got {plane!r}")
    axis = np.linspace(-extent, extent, resolution)
    if resolution % 2:
        axis[resolution // 2] = 0.0
    a, b = np.meshgrid(axis, axis, indexing="ij")
    pts = np.zeros((resolution, resolution, 3))
    pts[..., 0] = a
    pts[..., 1 if plane == "xy" else 2] = b
    return pts


def sample_current_plane(excitation, basis, plane: str, extent: float,
                         resolution: int, eta: float = DEFAULT_ETA,
                         charge_convention: str = "electron"):
    """Current samples on ``plane_lattice``; returns (points, j), both
    shaped (resolution, resolution, 3)."""
    pts = plane_lattice(plane, extent, resolution)
    j = current_samples(excitation, basis, pts.reshape(-1, 3), eta,
                        charge_convention)
    return pts, j.reshape(resolution, resolution, 3)


def write_plane(path, plane: str, extent: float, points, j):
    """Write a lattice as text, one ``x y z jx jy jz`` line per point in
    ``%.17g``.

    The lines go out in blocks of ``PLANE_WRITE_BLOCK``, so no text, tuple
    or boxed value of the whole lattice is ever held.  A block repeats few
    coordinate values, so each distinct float64 bit pattern in it is
    formatted once (bits, not values, so -0.0 stays "-0"); the block's lines
    are then one ``%`` operation and one ``write``.
    """
    pts = np.ascontiguousarray(points, dtype=float).reshape(-1, 3)
    vals = j.reshape(-1, 3)
    n = int(round(math.sqrt(len(pts))))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# plane={plane} extent={extent:.17g} resolution={n}\n"
                 "# x y z jx jy jz\n")
        for i in range(0, len(pts), PLANE_WRITE_BLOCK):
            blk = slice(i, i + PLANE_WRITE_BLOCK)
            bits, where = np.unique(pts[blk].view(np.uint64),
                                    return_inverse=True)
            coord = np.array(["%.17g" % x for x in bits.view(float).tolist()],
                             dtype=object)
            cols = np.empty((len(vals[blk]), 6), dtype=object)
            cols[:, :3] = coord[where.reshape(-1, 3)]
            cols[:, 3:] = vals[blk]
            fh.write(("%s %s %s %.17g %.17g %.17g\n" * len(cols))
                     % tuple(cols.ravel().tolist()))


# ---------------------------------------------------------------------------
# integrated observables
# ---------------------------------------------------------------------------

def _cylindrical_components(field: CurrentField):
    """(j_rho, j_phi, j_z) at each point; j_rho = j_phi = 0 on the z axis."""
    pts = field.points.reshape(-1, 3)
    j = field.j.reshape(-1, 3)
    rho = np.hypot(pts[:, 0], pts[:, 1])
    safe = np.where(rho > 1e-300, rho, 1.0)
    on_axis = rho <= 1e-300
    j_rho = (j[:, 0] * pts[:, 0] + j[:, 1] * pts[:, 1]) / safe
    j_phi = (j[:, 1] * pts[:, 0] - j[:, 0] * pts[:, 1]) / safe
    j_rho[on_axis] = 0.0
    j_phi[on_axis] = 0.0
    return j_rho, j_phi, j[:, 2]


def cylindrical_decomposition(field: CurrentField):
    """Integrated L2 norms (|j_rho|, |j_phi|, |j_z|) of the components."""
    return tuple(float(np.sqrt(np.sum(field.weights * c * c)))
                 for c in _cylindrical_components(field))


def magnetic_moment(field: CurrentField) -> np.ndarray:
    """Orbital moment (1/2) int r x j over the sampled field, a.u."""
    pts = field.points.reshape(-1, 3)
    j = field.j.reshape(-1, 3)
    return 0.5 * np.einsum("n,nc->c", field.weights, np.cross(pts, j))


def b_field_center(field: CurrentField, r_cut: float = DEFAULT_R_CUT,
                   warn: bool = True) -> np.ndarray:
    """Biot-Savart field (a.u.) at the origin, excluding the ball r < r_cut.

    Warns when the current on the exclusion boundary is not negligible
    (above 1e-8 of the global maximum), since the kernel diverges there.
    """
    pts = field.points.reshape(-1, 3)
    j = field.j.reshape(-1, 3)
    r = np.linalg.norm(pts, axis=1)
    keep = r >= r_cut
    if warn:
        jmax = float(np.max(np.linalg.norm(j, axis=1), initial=0.0))
        band = keep & (r < 1.25 * r_cut)
        if jmax > 0.0 and np.any(band):
            edge = float(np.max(np.linalg.norm(j[band], axis=1)))
            if edge > 1e-8 * jmax:
                warnings.warn(
                    f"current at the Biot-Savart cutoff is {edge / jmax:.2e} "
                    f"of max|j|; field value depends on r_cut",
                    CutoffLeakWarning)
    kern = np.cross(pts[keep], j[keep]) / (r[keep] ** 3)[:, None]
    return MU0_OVER_4PI_AU * np.einsum("n,nc->c", field.weights[keep], kern)


def magnetics(field: CurrentField, r_cut: float = DEFAULT_R_CUT,
              warn: bool = True) -> MagneticsResult:
    """Moment and center field of a sampled field together."""
    return MagneticsResult(magnetic_moment(field),
                           b_field_center(field, r_cut=r_cut, warn=warn))


# ---------------------------------------------------------------------------
# synthetic loop (test oracle input) and ring counting
# ---------------------------------------------------------------------------

def ring_current_field(current: float, radius: float, sigma: float | None = None,
                       n_radial: int = 96, n_z: int = 96,
                       n_phi: int = 64) -> CurrentField:
    """Gaussian-smeared planar current loop on a cylindrical product grid.

    j_phi = I g(rho - a) g(z) with unit-normalized 1-D Gaussians g, so the
    current through any half-plane phi = const is I.  Used as the analytic
    oracle input: m_z -> I pi a^2 and B_z(0) -> mu0 I / (2 a) as sigma/a -> 0.
    """
    sigma = 0.01 * radius if sigma is None else sigma
    rho, w_rho = gauss_legendre(n_radial, radius - 6.0 * sigma,
                                radius + 6.0 * sigma)
    z, w_z = gauss_legendre(n_z, -6.0 * sigma, 6.0 * sigma)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    w_phi = 2.0 * math.pi / n_phi
    norm = 1.0 / (2.0 * math.pi * sigma * sigma)
    # j_phi on (rho, z), cos/sin on phi, broadcast onto (rho, z, phi)
    amp = current * norm * np.exp(-((rho[:, None] - radius) ** 2
                                    + z[None, :] ** 2) / (2.0 * sigma * sigma))
    cos_p, sin_p = np.cos(phi), np.sin(phi)
    pts = np.empty((n_radial, n_z, n_phi, 3))
    pts[..., 0] = rho[:, None, None] * cos_p
    pts[..., 1] = rho[:, None, None] * sin_p
    pts[..., 2] = z[None, :, None]
    j = np.zeros((n_radial, n_z, n_phi, 3))
    j[..., 0] = -amp[:, :, None] * sin_p
    j[..., 1] = amp[:, :, None] * cos_p
    # cylindrical volume element rho drho dz dphi
    w = (w_rho * rho)[:, None, None] * w_z[None, :, None] * w_phi
    weights = np.broadcast_to(w, (n_radial, n_z, n_phi)).reshape(-1).copy()
    return CurrentField(points=pts.reshape(-1, 3), j=j.reshape(-1, 3),
                        weights=weights)


def radial_ring_count(points, j, n_bins: int | None = None,
                      floor: float = 0.05) -> int:
    """Number of radial maxima of the azimuthally averaged |j| in a plane.

    ``points``/``j`` are lattice arrays from sample_current_plane (xy plane).
    """
    pts = points.reshape(-1, 3)
    mag = np.linalg.norm(j.reshape(-1, 3), axis=1)
    rho = np.hypot(pts[:, 0], pts[:, 1])
    r_max = float(np.max(rho))
    if n_bins is None:
        n_bins = int(round(math.sqrt(len(pts)) / 2))
    edges = np.linspace(0.0, r_max, n_bins + 1)
    idx = np.clip(np.digitize(rho, edges) - 1, 0, n_bins - 1)
    sums = np.bincount(idx, weights=mag, minlength=n_bins)
    counts = np.maximum(np.bincount(idx, minlength=n_bins), 1)
    prof = sums / counts
    top = float(np.max(prof, initial=0.0))
    if top <= 0.0:
        return 0
    rings = 0
    for i in range(1, n_bins - 1):
        if prof[i] >= floor * top and prof[i] > prof[i - 1] and prof[i] >= prof[i + 1]:
            rings += 1
    return rings
