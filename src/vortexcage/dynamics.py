"""First-order amplitudes after the pulse plus a direct-propagation oracle.

After the envelope has closed, the excited-state coefficients settle to

    B_jk = i G(eps_j, eps_k) M_jk

with the spectral factor G carrying both the rotating Gaussian weight at
detuning (eps_j - eps_k - omega) and its counter-rotating partner at
(eps_j - eps_k + omega).  The oracle integrates the Schroedinger equation in
the interaction picture with the full real field and is used to certify the
perturbative amplitudes in the weak-excitation regime.  The equation there is
linear, dc/dt = A(t) c, so each fixed RK4 step is one propagator matrix
c <- P c; the propagators are built in blocks of steps with batched matrix
products and then applied in time order.
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
# RK4 steps per block of oracle propagators: the 18-state l <= 2 oracle's
# traced peak is ~6 MB (~24 MB at 512)
_STEP_BLOCK = 128


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


def _generator(times, op, adj, eps, pulse):
    """A(t) of dc/dt = A(t) c at every time of ``times``, shape (..., n, n).

    A_ab = -i env(t) e^{i eps_a t} [O_ab e^-iwt + O^dag_ab e^+iwt]
    e^{-i eps_b t}; the phases are the outer product of e^{i eps t} with its
    conjugate, 2 n exponentials per time.
    """
    rot = np.exp(-1j * pulse.omega * times)[..., None, None]
    phase = np.exp(1j * times[..., None] * eps)
    left = (-1j * np.exp(-pulse.delta * times * times))[..., None] * phase
    a = op * rot
    a += adj * rot.conj()
    a *= left[..., :, None]
    a *= phase.conj()[..., None, :]
    return a


def _step_propagators(starts, steps, op, adj, eps, pulse):
    """RK4 propagators P, shape (len(starts), n, n), of the steps t -> t + h."""
    a = _generator(starts[:, None] + [0.0, 0.5, 1.0] * steps[:, None],
                   op, adj, eps, pulse)
    k1, mid, end = a[:, 0], a[:, 1], a[:, 2]
    h = steps[:, None, None]
    k2 = mid + 0.5 * h * (mid @ k1)
    k3 = mid + 0.5 * h * (mid @ k2)
    k4 = end + h * (end @ k3)
    return np.eye(len(eps)) + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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

    The interaction-picture equation is linear, dc/dt = A(t) c, so a step of
    length h from t is exactly c <- P c with
    K1 = A(t), K2 = A(t+h/2)(I + h/2 K1), K3 = A(t+h/2)(I + h/2 K2),
    K4 = A(t+h)(I + h K3) and P = I + h/6 (K1 + 2 K2 + 2 K3 + K4).
    The propagators of a block of steps come from one batched evaluation of
    A and batched matrix products; they are applied in time order.

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
    eps = np.array([o.energy for o in states])
    n_steps = int(math.ceil((t1 - t0) / dt))
    # step start times accumulate as t += dt (cumsum adds in order); only
    # the last step is cut short to end on t1
    starts = np.cumsum(np.concatenate(([t0], np.full(n_steps - 1, dt))))
    steps = np.minimum(dt, t1 - starts)
    # basis indices ascend along states, so the unit columns of the sources
    # come out in source order
    c = np.eye(len(states), dtype=complex)[:, np.isin(
        [o.index for o in states], [o.index for o in sources])]
    for lo in range(0, n_steps, _STEP_BLOCK):
        block = slice(lo, lo + _STEP_BLOCK)
        for p in _step_propagators(starts[block], steps[block], op, adj, eps,
                                   pulse):
            c = p @ c
    drift = float(np.max(np.abs(np.sum(np.abs(c) ** 2, axis=0) - 1.0)))
    if drift > 1e-8:
        raise ConvergenceError(f"norm drift {drift:.3e} exceeds 1e-08; "
                               f"reduce dt")
    return c, states
