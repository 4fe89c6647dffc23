"""Light-matter matrix elements between shell orbitals by quadrature.

The interaction operator (positive-frequency spatial part, time factors
stripped) acts as

    H psi = -(i/2) (div A) psi - i A . grad psi

covering both the transversal A.grad and longitudinal (div A) pieces of the
symmetrized momentum coupling.  Any object exposing
``spatial_amplitude(points) -> (A_x, dA_x/dx)`` works as the field; the
vector potential points along x throughout.

Every orbital is R_b(r) Y(r-hat) and the product grid's weights are
w_r w_a, so the grid sum factors.  A source psi_k = R_c Y_k has
d_x psi_k = R_c' x-hat.r-hat Y_k + (R_c / r) T_xk, with T = r grad Y from
``structure.angular_tables``.  The field, evaluated once on the grid, is
summed over the radial nodes per (row band b, column band c) pair into
three vectors on the angular nodes,

    D = sum_r w_r R_b R_c dA_x/dx,  P = sum_r w_r R_b R_c' A_x,
    Q = sum_r w_r R_b (R_c / r) A_x.

Each band-pair block of M is then two matrix products,

    M = (conj(Y_j) w_a (-(i/2) D - i P x-hat.r-hat)) @ Y_k^T
        + (conj(Y_j) w_a (-i Q)) @ T_xk^T,

so no orbital is tabulated on the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import structure
from .numerics import QuadratureGrid

__all__ = [
    "TransitionSet",
    "build_transition_set",
    "interaction_matrix",
    "transition_orbitals",
]

PRUNE_RELATIVE = 1e-14


@dataclass(frozen=True, eq=False)
class TransitionSet:
    """Matrix elements M[j, k] = <psi_j | H | psi_k> for sources k."""

    occupied: tuple[int, ...]     # basis indices of sources k (columns)
    unoccupied: tuple[int, ...]   # basis indices of targets j (rows)
    matrix: np.ndarray            # complex, shape (n_unocc, n_occ)
    pulse: object
    pruned: tuple[tuple[int, int], ...] = ()

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.matrix))) if self.matrix.size else 0.0


def interaction_matrix(field, basis: structure.Basis, row_orbitals,
                       col_orbitals, grid: QuadratureGrid) -> np.ndarray:
    """Quadrature matrix <row_j | H | col_k>, shape (n_rows, n_cols)."""
    rows, cols = list(row_orbitals), list(col_orbitals)
    r, n_r = grid.radial_nodes, len(grid.radial_nodes)
    a_x, div = field.spatial_amplitude(grid.points)
    rad = basis.shells.values(r)
    bra_rad = (rad * grid.radial_weights)[:, None, :]

    def radial_sum(ket_rad, f):
        # one matmul over the radial nodes: (bra band, ket band, angular node)
        pairs = (bra_rad * ket_rad).reshape(-1, n_r)
        return (pairs @ f.reshape(n_r, -1)).reshape(len(rad), len(rad), -1)

    d = radial_sum(rad, div)
    p = radial_sum(basis.shells.derivatives(r), a_x)
    q = radial_sum(rad / r, a_x)
    dirs, w_a = grid.angular_nodes, grid.angular_weights
    bras = structure.angular_tables(rows, dirs)[0].conj() * w_a
    y_cols, t_cols = structure.angular_tables(cols, dirs)
    row_pos = np.array([o.band_pos for o in rows])
    col_pos = np.array([o.band_pos for o in cols])
    mat = np.zeros((len(rows), len(cols)), dtype=complex)
    for b in sorted(set(row_pos.tolist())):
        jj = np.flatnonzero(row_pos == b)
        for c in sorted(set(col_pos.tolist())):
            kk = np.flatnonzero(col_pos == c)
            mat[np.ix_(jj, kk)] = (
                (bras[jj] * (-0.5j * d[b, c] - 1j * p[b, c] * dirs[:, 0]))
                @ y_cols[kk].T
                + (bras[jj] * (-1j * q[b, c])) @ t_cols[kk, :, 0].T)
    return mat


def transition_orbitals(basis: structure.Basis):
    """Sources (occupied band-2) and targets (unoccupied band-3) of every
    transition set; ValueError when either list is empty."""
    occupied = [o for o in basis.band_orbitals(2) if o.occupied]
    unoccupied = [o for o in basis.band_orbitals(3) if not o.occupied]
    if not occupied or not unoccupied:
        raise ValueError("the basis needs at least one occupied band-2 and "
                         "one unoccupied band-3 orbital")
    return occupied, unoccupied


def build_transition_set(basis: structure.Basis, grid: QuadratureGrid,
                         pulse) -> TransitionSet:
    """All (occupied band-2) x (unoccupied band-3) elements.

    Rows follow the targets, columns the sources of
    ``transition_orbitals``.  Entries below 1e-14 * max|M| are zeroed and
    recorded in ``pruned``; ``interaction_matrix`` gives the raw matrix.
    """
    sources, targets = transition_orbitals(basis)
    mat = interaction_matrix(pulse, basis, targets, sources, grid)
    pruned = ()
    scale = float(np.max(np.abs(mat))) if mat.size else 0.0
    if scale > 0.0:
        mask = (np.abs(mat) < PRUNE_RELATIVE * scale) & (mat != 0.0)
        pruned = tuple((int(j), int(k)) for j, k in zip(*np.nonzero(mask)))
        mat = np.where(mask, 0.0, mat)
    return TransitionSet(
        occupied=tuple(o.index for o in sources),
        unoccupied=tuple(o.index for o in targets),
        matrix=mat, pulse=pulse, pruned=pruned)
