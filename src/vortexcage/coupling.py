"""Light-matter matrix elements between shell orbitals by quadrature.

The interaction operator (positive-frequency spatial part, time factors
stripped) acts as

    H psi = -(i/2) (div A) psi - i A . grad psi

covering both the transversal A.grad and longitudinal (div A) pieces of the
symmetrized momentum coupling.  Any object exposing
``spatial_amplitude(points) -> (A_x, dA_x/dx)`` works as the field; the
vector potential points along x throughout.

The orbitals do not depend on the pulse, so ``transition_tables`` tabulates
them once per grid: the weighted target bras conj(psi_j) w and the source
values psi_k and x-derivatives d_x psi_k.  A pulse then costs one
``spatial_amplitude`` call and two matrix products,

    M = (bra * -(i/2) dA_x/dx) @ psi^T + (bra * -i A_x) @ (d_x psi)^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import structure
from .numerics import QuadratureGrid

__all__ = [
    "TransitionSet",
    "TransitionTables",
    "build_transition_set",
    "interaction_matrix",
    "transition_orbitals",
    "transition_tables",
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


@dataclass(frozen=True, eq=False)
class TransitionTables:
    """Pulse-independent orbital tables of every transition on one grid.

    Targets keep their full tables, which ``observables.scan_kernel`` reads;
    sources keep only what the operator acts on.
    """

    grid: QuadratureGrid
    targets: tuple[structure.Orbital, ...]   # unoccupied band 3 (rows)
    sources: tuple[structure.Orbital, ...]   # occupied band 2 (columns)
    target_psi: np.ndarray        # (n_targets, n_pts)
    target_grad: np.ndarray       # (n_targets, n_pts, 3)
    bra: np.ndarray               # conj(target_psi) * grid weights
    source_psi: np.ndarray        # (n_sources, n_pts)
    source_dx: np.ndarray         # (n_sources, n_pts), d/dx of source_psi


def _operand_tables(basis, orbitals, grid):
    """Values and x-derivatives of the orbitals the operator acts on."""
    psi, dx = structure.orbital_tables(basis, orbitals, grid, axes=(0,))
    return psi, dx[:, :, 0]


def _contract(field, bra, psi, dx, points) -> np.ndarray:
    """<bra_j | H | psi_k> from weighted bras and operand tables."""
    a_x, div = field.spatial_amplitude(points)
    return (bra * (-0.5j * div)) @ psi.T + (bra * (-1j * a_x)) @ dx.T


def interaction_matrix(field, basis: structure.Basis, row_orbitals,
                       col_orbitals, grid: QuadratureGrid) -> np.ndarray:
    """Quadrature matrix <row_j | H | col_k>, shape (n_rows, n_cols).

    Passing one list object as both rows and columns tabulates it once.
    """
    psi, dx = _operand_tables(basis, col_orbitals, grid)
    psi_rows = (psi if row_orbitals is col_orbitals
                else structure.orbital_tables(basis, row_orbitals, grid,
                                              axes=())[0])
    return _contract(field, psi_rows.conj() * grid.weights, psi, dx,
                     grid.points)


def transition_orbitals(basis: structure.Basis):
    """Sources (occupied band-2) and targets (unoccupied band-3) of every
    transition set; ValueError when either list is empty."""
    occupied = [o for o in basis.band_orbitals(2) if o.occupied]
    unoccupied = [o for o in basis.band_orbitals(3) if not o.occupied]
    if not occupied or not unoccupied:
        raise ValueError("the basis needs at least one occupied band-2 and "
                         "one unoccupied band-3 orbital")
    return occupied, unoccupied


def transition_tables(basis: structure.Basis,
                      grid: QuadratureGrid) -> TransitionTables:
    """``TransitionTables`` of the ``transition_orbitals`` on the grid."""
    sources, targets = transition_orbitals(basis)
    source_psi, source_dx = _operand_tables(basis, sources, grid)
    psi, grad = structure.orbital_tables(basis, targets, grid)
    return TransitionTables(
        grid=grid, targets=tuple(targets), sources=tuple(sources),
        target_psi=psi, target_grad=grad, bra=psi.conj() * grid.weights,
        source_psi=source_psi, source_dx=source_dx)


def build_transition_set(tables: TransitionTables, pulse,
                         prune: bool = True) -> TransitionSet:
    """All (occupied band-2) x (unoccupied band-3) elements.

    Rows follow the targets, columns the sources of the tables.  Entries
    below 1e-14 * max|M| are zeroed and recorded in ``pruned``.
    """
    mat = _contract(pulse, tables.bra, tables.source_psi, tables.source_dx,
                    tables.grid.points)
    pruned = ()
    if prune:
        scale = float(np.max(np.abs(mat))) if mat.size else 0.0
        if scale > 0.0:
            mask = (np.abs(mat) < PRUNE_RELATIVE * scale) & (mat != 0.0)
            pruned = tuple((int(j), int(k)) for j, k in zip(*np.nonzero(mask)))
            mat = np.where(mask, 0.0, mat)
    return TransitionSet(
        occupied=tuple(o.index for o in tables.sources),
        unoccupied=tuple(o.index for o in tables.targets),
        matrix=mat, pulse=pulse, pruned=pruned)
