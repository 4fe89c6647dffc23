"""Light-matter matrix elements between shell orbitals by quadrature.

The interaction operator (positive-frequency spatial part, time factors
stripped) acts as

    H psi = -(i/2) (div A) psi - i A . grad psi

covering both the transversal A.grad and longitudinal (div A) pieces of the
symmetrized momentum coupling.  Any object exposing
``spatial_amplitude(points) -> (A_x, dA_x/dx)`` works as the field; the
vector potential points along x throughout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import structure
from .numerics import QuadratureGrid, build_grid

__all__ = [
    "ConvergenceWarning",
    "TransitionSet",
    "apply_interaction",
    "build_transition_set",
    "interaction_matrix",
    "matrix_element",
    "write_transition_table",
]

PRUNE_RELATIVE = 1e-14


class ConvergenceWarning(UserWarning):
    pass


@dataclass(frozen=True, eq=False)
class TransitionSet:
    """Matrix elements M[j, k] = <psi_j | H | psi_k> for sources k."""

    occupied: tuple[int, ...]     # basis indices of sources k (columns)
    unoccupied: tuple[int, ...]   # basis indices of targets j (rows)
    matrix: np.ndarray            # complex, shape (n_unocc, n_occ)
    pulse: object
    grid_meta: dict
    convergence: np.ndarray | None = None   # per-entry |delta M| / drift scale
    pruned: tuple[tuple[int, int], ...] = ()

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.matrix))) if self.matrix.size else 0.0


def apply_interaction(field, orbitals, basis: structure.Basis, points):
    """Interaction operator applied to orbitals, sampled at points.

    ``points`` is a QuadratureGrid or an (n, 3) array.  Returns (n_orb,
    n_pts) complex values of -(i/2)(dA_x/dx) psi - i A_x dpsi/dx.
    """
    orbitals = orbitals if isinstance(orbitals, (list, tuple)) else [orbitals]
    a_x, div = field.spatial_amplitude(np.atleast_2d(np.asarray(points, dtype=float)))
    psi, grad = structure.orbital_tables(basis, orbitals, points)
    return -0.5j * div * psi - 1j * a_x * grad[:, :, 0]


def interaction_matrix(field, basis: structure.Basis, row_orbitals,
                       col_orbitals, grid: QuadratureGrid) -> np.ndarray:
    """Quadrature matrix <row_j | H | col_k>, shape (n_rows, n_cols)."""
    applied = apply_interaction(field, list(col_orbitals), basis, grid)
    psi_rows, _ = structure.orbital_tables(basis, row_orbitals, grid)
    return np.einsum("jn,n,kn->jk", psi_rows.conj(), grid.weights, applied)


def matrix_element(basis: structure.Basis, k_orbital, j_orbital, field,
                   grid: QuadratureGrid,
                   check_convergence: bool = False) -> complex:
    """Single element <psi_j | H | psi_k>; deterministic for a fixed grid.

    With ``check_convergence`` the element is recomputed on a refined grid
    and a ConvergenceWarning is emitted if it moves by more than 1e-6
    relative.
    """
    ts = build_transition_set(basis, field, grid, occupied=[k_orbital],
                              unoccupied=[j_orbital], prune=False,
                              check_convergence=check_convergence)
    return complex(ts.matrix[0, 0])


def _refined(grid: QuadratureGrid) -> QuadratureGrid:
    """The grid with 3/2 the radial nodes and angular order + 6.

    The input grid already passed the basis gate, so it is not re-applied.
    """
    return build_grid(grid.r_min, grid.r_max, grid.n_radial * 3 // 2,
                      grid.angular_order + 6)


def build_transition_set(basis: structure.Basis, pulse, grid: QuadratureGrid,
                         occupied=None, unoccupied=None,
                         prune: bool = True,
                         check_convergence: bool = False,
                         drift_floor: float = 0.0) -> TransitionSet:
    """All (occupied band-2) x (unoccupied band-3) elements by default.

    Rows follow ``unoccupied`` order, columns ``occupied`` order.  Entries
    below 1e-14 * max|M| are zeroed and recorded in ``pruned``.  With
    ``check_convergence`` the set is recomputed on the refined grid;
    a ConvergenceWarning flags a drift above 1e-6 of max|M| there, or of
    ``drift_floor`` if that is larger (a vanishing set's max|M| is
    roundoff).
    """
    if occupied is None:
        occupied = [o for o in basis.band_orbitals(2) if o.occupied]
    if unoccupied is None:
        unoccupied = [o for o in basis.band_orbitals(3) if not o.occupied]
    if not occupied or not unoccupied:
        raise ValueError("need at least one occupied and one unoccupied orbital")
    mat = interaction_matrix(pulse, basis, unoccupied, occupied, grid)
    conv = None
    if check_convergence:
        ref = interaction_matrix(pulse, basis, unoccupied, occupied,
                                 _refined(grid))
        scale = max(float(np.max(np.abs(ref))), drift_floor, 1e-300)
        conv = np.abs(ref - mat) / scale
        worst = float(np.max(conv))
        if worst > 1e-6:
            warnings.warn(f"transition set max refinement drift {worst:.2e}",
                          ConvergenceWarning)
    pruned = ()
    if prune:
        scale = float(np.max(np.abs(mat))) if mat.size else 0.0
        if scale > 0.0:
            mask = (np.abs(mat) < PRUNE_RELATIVE * scale) & (mat != 0.0)
            pruned = tuple((int(j), int(k)) for j, k in zip(*np.nonzero(mask)))
            mat = np.where(mask, 0.0, mat)
    meta = {"n_radial": grid.n_radial, "angular_order": grid.angular_order,
            "r_max": grid.r_max}
    return TransitionSet(
        occupied=tuple(o.index for o in occupied),
        unoccupied=tuple(o.index for o in unoccupied),
        matrix=mat, pulse=pulse, grid_meta=meta, convergence=conv,
        pruned=pruned)


def write_transition_table(ts: TransitionSet, basis: structure.Basis, path):
    """Text dump: k j l_k m_k l_j m_j Re(M) Im(M) (dominant m per substate)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# k j l_k m_k l_j m_j re_m im_m\n")
        for kc, k_idx in enumerate(ts.occupied):
            ok = basis.orbitals[k_idx]
            for jr, j_idx in enumerate(ts.unoccupied):
                oj = basis.orbitals[j_idx]
                m = ts.matrix[jr, kc]
                fh.write(f"{k_idx} {j_idx} {ok.l} {ok.dominant_m()} "
                         f"{oj.l} {oj.dominant_m()} {m.real:.17g} {m.imag:.17g}\n")
