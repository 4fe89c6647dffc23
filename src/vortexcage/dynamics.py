"""First-order amplitudes after the pulse plus a direct-propagation oracle.

After the envelope has closed, the excited-state coefficients settle to

    B_jk = i G(eps_j, eps_k) M_jk

with the spectral factor G carrying both the rotating Gaussian weight at
detuning (eps_j - eps_k - omega) and its counter-rotating partner at
(eps_j - eps_k + omega).  The oracle integrates the Schroedinger equation in
the interaction picture with the full real field and is used to certify the
perturbative amplitudes in the weak-excitation regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coupling, structure

__all__ = [
    "ConvergenceError",
    "ExcitationState",
    "excite",
    "propagate_oracle",
    "spectral_factor",
]

VALIDITY_THRESHOLD = 0.05


class ConvergenceError(RuntimeError):
    """A numerical integration missed its accuracy target."""


def spectral_factor(eps_j, eps_k, omega: float, delta: float):
    """Post-pulse spectral weight sqrt(pi/d) [e^-(D-w)^2/4d + e^-(D+w)^2/4d].

    D = eps_j - eps_k.  Real and symmetric under (D, w) -> (-D, -w); the
    counter-rotating second Gaussian is negligible whenever w and D are
    large against the pulse bandwidth 2 sqrt(delta).
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    d = np.asarray(eps_j) - np.asarray(eps_k)
    pref = math.sqrt(math.pi / delta)
    return pref * (np.exp(-((d - omega) ** 2) / (4.0 * delta))
                   + np.exp(-((d + omega) ** 2) / (4.0 * delta)))


@dataclass(frozen=True, eq=False)
class ExcitationState:
    """Post-pulse amplitudes B[j, k] = i G M for every source k."""

    transitions: coupling.TransitionSet
    amplitudes: np.ndarray        # complex B[j, k]
    validity_metric: float        # max over sources of total excited population
    breakdown: bool               # validity_metric above the threshold

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def excite(transitions: coupling.TransitionSet, basis: structure.Basis,
           validity_threshold: float = VALIDITY_THRESHOLD) -> ExcitationState:
    """TDPT amplitudes for every (source k, target j) pair in the set."""
    pulse = transitions.pulse
    eps_j = np.array([basis.orbitals[i].energy for i in transitions.unoccupied])
    eps_k = np.array([basis.orbitals[i].energy for i in transitions.occupied])
    g = spectral_factor(eps_j[:, None], eps_k[None, :], pulse.omega, pulse.delta)
    amps = 1j * g * transitions.matrix
    metric = float(np.max(np.sum(np.abs(amps) ** 2, axis=0)))
    return ExcitationState(transitions=transitions, amplitudes=amps,
                           validity_metric=metric,
                           breakdown=metric > validity_threshold)


def propagate_oracle(basis: structure.Basis, pulse, grid, dt: float):
    """Directly integrated final coefficients of every transition source.

    The Hilbert space is spanned by the band-2 and band-3 orbitals
    (``states``); the sources are those of ``coupling.transition_orbitals``.
    The full real field enters as
    H(t) = env(t) [O e^-iwt + O^dag e^+iwt] with O the positive-frequency
    operator matrix; integration is fixed-step RK4 in the interaction
    picture over |t| <= 6 / sqrt(delta), all sources at once as the columns
    of one coefficient matrix.  Returns (coefficients, states) where
    coefficients[a, s] is the final amplitude of basis state a for source s,
    in ``TransitionSet.occupied`` order (interaction picture, so post-pulse
    values are time-independent).

    Raises ValueError on carrier-unresolving steps (dt > 0.05 * 2pi/omega)
    and ConvergenceError when any column's norm drifts beyond 1e-8.
    """
    states = basis.band_orbitals(2) + basis.band_orbitals(3)
    sources, _ = coupling.transition_orbitals(basis)
    if dt > 0.05 * 2.0 * math.pi / pulse.omega:
        raise ValueError(f"dt={dt} too coarse for carrier period "
                         f"{2 * math.pi / pulse.omega:.3f}")
    t1 = 6.0 / math.sqrt(pulse.delta)
    t0 = -t1
    op = coupling.interaction_matrix(pulse, basis, states, states, grid)
    adj = op.conj().T
    eps = np.array([o.energy for o in states])[:, None]
    omega = pulse.omega
    delta = pulse.delta

    def deriv(t, c):
        env = math.exp(-delta * t * t)
        phase = np.exp(1j * eps * t)
        h = env * (op * np.exp(-1j * omega * t) + adj * np.exp(1j * omega * t))
        # interaction picture: i dc/dt = e^{i eps_a t} H_ab e^{-i eps_b t} c_b
        return -1j * phase * (h @ (c / phase))

    n_steps = int(math.ceil((t1 - t0) / dt))
    # basis indices ascend along states, so the unit columns of the sources
    # come out in source order
    c = np.eye(len(states), dtype=complex)[:, np.isin(
        [o.index for o in states], [o.index for o in sources])]
    t = t0
    for _ in range(n_steps):
        step = min(dt, t1 - t)
        k1 = deriv(t, c)
        k2 = deriv(t + 0.5 * step, c + 0.5 * step * k1)
        k3 = deriv(t + 0.5 * step, c + 0.5 * step * k2)
        k4 = deriv(t + step, c + step * k3)
        c = c + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += step
    drift = float(np.max(np.abs(np.sum(np.abs(c) ** 2, axis=0) - 1.0)))
    if drift > 1e-8:
        raise ConvergenceError(f"norm drift {drift:.3e} exceeds 1e-08; "
                               f"reduce dt")
    return c, states
