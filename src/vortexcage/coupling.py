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

from dataclasses import dataclass

import numpy as np

from . import structure
from .numerics import QuadratureGrid

__all__ = [
    "TransitionSet",
    "apply_interaction",
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


def transition_orbitals(basis: structure.Basis):
    """Sources (occupied band-2) and targets (unoccupied band-3) of every
    transition set; ValueError when either list is empty."""
    occupied = [o for o in basis.band_orbitals(2) if o.occupied]
    unoccupied = [o for o in basis.band_orbitals(3) if not o.occupied]
    if not occupied or not unoccupied:
        raise ValueError("the basis needs at least one occupied band-2 and "
                         "one unoccupied band-3 orbital")
    return occupied, unoccupied


def build_transition_set(basis: structure.Basis, pulse, grid: QuadratureGrid,
                         prune: bool = True) -> TransitionSet:
    """All (occupied band-2) x (unoccupied band-3) elements.

    Rows follow the targets, columns the sources of
    ``transition_orbitals``.  Entries below 1e-14 * max|M| are zeroed and
    recorded in ``pruned``.
    """
    occupied, unoccupied = transition_orbitals(basis)
    mat = interaction_matrix(pulse, basis, unoccupied, occupied, grid)
    pruned = ()
    if prune:
        scale = float(np.max(np.abs(mat))) if mat.size else 0.0
        if scale > 0.0:
            mask = (np.abs(mat) < PRUNE_RELATIVE * scale) & (mat != 0.0)
            pruned = tuple((int(j), int(k)) for j, k in zip(*np.nonzero(mask)))
            mat = np.where(mask, 0.0, mat)
    return TransitionSet(
        occupied=tuple(o.index for o in occupied),
        unoccupied=tuple(o.index for o in unoccupied),
        matrix=mat, pulse=pulse, pruned=pruned)
