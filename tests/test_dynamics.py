import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from vortexcage import beam, coupling, dynamics, numerics, structure
from vortexcage.units import ev_to_hartree

from conftest import DELTA, GAP_EV, WAIST, make_pulse


def reduced_basis(l_cap=1, electrons=8):
    ref = structure.default_bands()
    bands = (ref[0],
             dataclasses.replace(ref[1], l_max=l_cap, electron_count=electrons),
             dataclasses.replace(ref[2], l_max=l_cap, electron_count=0))
    return structure.build_basis(bands)


def step_loop_oracle(basis, pulse, grid, dt):
    """Per-step RK4 on dc/dt = A(t) c: four calls of the derivative per step,
    t accumulated as t += step, the last step cut to end on t1.  Returns the
    coefficients and the (start, middle, end) times of every step."""
    states = basis.band_orbitals(2) + basis.band_orbitals(3)
    sources, _ = coupling.transition_orbitals(basis)
    t1 = 6.0 / math.sqrt(pulse.delta)
    t0 = -t1
    op = coupling.interaction_matrix(pulse, basis, states, states, grid)
    adj = op.conj().T
    eps = np.array([o.energy for o in states])[:, None]

    def deriv(t, c):
        env = math.exp(-pulse.delta * t * t)
        phase = np.exp(1j * eps * t)
        h = env * (op * np.exp(-1j * pulse.omega * t)
                   + adj * np.exp(1j * pulse.omega * t))
        return -1j * phase * (h @ (c / phase))

    c = np.eye(len(states), dtype=complex)[:, np.isin(
        [o.index for o in states], [o.index for o in sources])]
    t = t0
    times = []
    for _ in range(int(math.ceil((t1 - t0) / dt))):
        step = min(dt, t1 - t)
        times.append((t, t + 0.5 * step, t + step))
        k1 = deriv(t, c)
        k2 = deriv(t + 0.5 * step, c + 0.5 * step * k1)
        k3 = deriv(t + 0.5 * step, c + 0.5 * step * k2)
        k4 = deriv(t + step, c + step * k3)
        c = c + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += step
    return c, np.array(times)


@pytest.fixture(scope="module")
def oracle_l2():
    # the 18-state l <= 2 oracle of acceptance 07
    basis = reduced_basis(l_cap=2, electrons=18)
    grid = numerics.build_grid(0.0, 26.8, 160, 12, l_basis_max=2)
    pulse = beam.VortexPulse(a0=0.004, m_oam=1, omega=ev_to_hartree(GAP_EV),
                             delta=DELTA, waist=WAIST)
    return basis, grid, pulse


class TestSpectralFactor:
    def test_resonance_value(self):
        # Gaussian integral: int e^{i a t - d t^2} dt = sqrt(pi/d) e^{-a^2/4d};
        # at resonance a = 0 and the counter-rotating term is ~e^{-w^2/d}
        omega = 0.3
        got = dynamics.spectral_factor(omega - 0.3 + 0.3, 0.0, omega, DELTA)
        assert got == pytest.approx(math.sqrt(math.pi / DELTA), rel=1e-12)

    def test_detuning_suppression(self):
        omega = 0.3
        det = 6.0 * math.sqrt(DELTA)
        ratio = dynamics.spectral_factor(omega + det, 0.0, omega, DELTA) \
            / dynamics.spectral_factor(omega, 0.0, omega, DELTA)
        assert ratio == pytest.approx(math.exp(-9.0), rel=1e-10)

    def test_sign_symmetry(self):
        d, w = 0.21, 0.34
        a = dynamics.spectral_factor(d, 0.0, w, DELTA)
        b = dynamics.spectral_factor(-d, 0.0, -w, DELTA)
        assert a == b

    def test_maximal_at_resonance(self):
        gap = 0.3
        omegas = np.linspace(0.05, 0.6, 1101)
        vals = dynamics.spectral_factor(gap, 0.0, omegas, DELTA)
        assert abs(omegas[np.argmax(vals)] - gap) <= omegas[1] - omegas[0]

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            dynamics.spectral_factor(0.3, 0.0, 0.3, -1.0)


class TestExcite:
    def test_first_order_scaling(self, basis, grid):
        e1 = dynamics.excite(coupling.build_transition_set(
            basis, grid, make_pulse(1, a0=0.02)), basis)
        e2 = dynamics.excite(coupling.build_transition_set(
            basis, grid, make_pulse(1, a0=0.04)), basis)
        p1, p2 = e1.populations(), e2.populations()
        mask = p1 > 0
        assert np.allclose(p2[mask] / p1[mask], 4.0, rtol=1e-12)

    def test_far_detuned_suppression(self, basis, grid, ts_m1, exc_m1):
        far = dataclasses.replace(ts_m1.pulse,
                                  omega=ts_m1.pulse.omega + ev_to_hartree(10.0))
        ts_far = dataclasses.replace(ts_m1, pulse=far)
        exc_far = dynamics.excite(ts_far, basis)
        assert exc_far.populations().max() < \
            1e-30 * exc_m1.populations().max()

    def test_default_intensity_within_validity(self, basis, grid):
        # reference intensity at the vortex core stays perturbative
        omega = ev_to_hartree(8.0)
        a0 = (3.0e13 / 3.50944758e16) ** 0.5 / omega
        ts = coupling.build_transition_set(basis, grid, make_pulse(1, a0=a0))
        exc = dynamics.excite(ts, basis)
        assert exc.validity_metric < dynamics.VALIDITY_THRESHOLD
        assert not exc.breakdown

    def test_breakdown_flag(self, basis, grid):
        ts = coupling.build_transition_set(basis, grid, make_pulse(1, a0=5.0))
        exc = dynamics.excite(ts, basis)
        assert exc.validity_metric > dynamics.VALIDITY_THRESHOLD
        assert exc.breakdown

    def test_amplitudes_are_igm(self, basis, ts_m1, exc_m1):
        eps_j = np.array([basis.orbitals[i].energy for i in ts_m1.unoccupied])
        eps_k = np.array([basis.orbitals[i].energy for i in ts_m1.occupied])
        g = dynamics.spectral_factor(eps_j[:, None], eps_k[None, :],
                                     ts_m1.pulse.omega, ts_m1.pulse.delta)
        assert np.allclose(exc_m1.amplitudes, 1j * g * ts_m1.matrix)


class TestPropagationOracle:
    def make(self, a0, l_cap=1):
        basis = reduced_basis(l_cap)
        grid = numerics.build_grid(0.0, 26.8, 160, 10, l_basis_max=l_cap)
        omega = basis.bands[2].energy_offset - basis.bands[1].energy_offset
        pulse = beam.VortexPulse(a0=a0, m_oam=1, omega=omega, delta=DELTA,
                                 waist=WAIST)
        return basis, grid, pulse

    def test_zero_field(self):
        # column s starts (and, without a field, stays) on source s
        basis, grid, pulse = self.make(1e-300)
        dt = 0.04 * 2 * math.pi / pulse.omega
        coeffs, states = dynamics.propagate_oracle(basis, pulse, grid, dt)
        occupied, _ = coupling.transition_orbitals(basis)
        unit = np.array([[o.index == src.index for src in occupied]
                         for o in states], dtype=float)
        assert coeffs.shape == unit.shape == (8, 4)
        assert np.abs(coeffs - unit).max() < 1e-12

    def test_norm_conservation(self):
        basis, grid, pulse = self.make(0.01)
        dt = 0.04 * 2 * math.pi / pulse.omega
        coeffs, _ = dynamics.propagate_oracle(basis, pulse, grid, dt)
        norms = np.sum(np.abs(coeffs) ** 2, axis=0)
        assert norms.shape == (4,)
        assert np.abs(norms - 1.0).max() < 1e-8

    def test_norm_drift_raises(self):
        # a strong field at the coarsest allowed step drifts by ~1e-7
        basis, grid, pulse = self.make(1.0)
        dt = 0.04 * 2 * math.pi / pulse.omega
        with pytest.raises(dynamics.ConvergenceError, match="norm drift"):
            dynamics.propagate_oracle(basis, pulse, grid, dt)

    def _population_dev(self, a0):
        basis, grid, pulse = self.make(a0)
        ts = coupling.build_transition_set(basis, grid, pulse)
        pops = dynamics.excite(ts, basis).populations()
        dt = 0.04 * 2 * math.pi / pulse.omega
        coeffs, states = dynamics.propagate_oracle(basis, pulse, grid, dt)
        targets = np.isin([o.index for o in states], ts.unoccupied)
        p_o = np.abs(coeffs[targets]) ** 2
        pmax = float(pops.max())
        live = p_o > 1e-3 * pmax
        worst = float(np.max(np.abs(pops - p_o)[live] / p_o[live]))
        return pmax, worst

    def test_weak_field_agreement(self):
        pmax, worst = self._population_dev(0.004)
        assert pmax < 1e-3
        assert worst < 0.02

    def test_error_scales_as_intensity(self):
        _, w_strong = self._population_dev(0.004)
        _, w_weak = self._population_dev(0.002)
        assert w_strong / w_weak == pytest.approx(4.0, rel=0.2)

    def test_matches_step_loop(self):
        basis, grid, pulse = self.make(0.01)
        dt = 0.04 * 2 * math.pi / pulse.omega
        coeffs, states = dynamics.propagate_oracle(basis, pulse, grid, dt)
        assert len(states) == 8
        ref, _ = step_loop_oracle(basis, pulse, grid, dt)
        assert np.abs(coeffs - ref).max() <= 1e-12

    def test_matches_step_loop_half_last_step(self, monkeypatch):
        # 4,000 steps, the last one half as long as the others; the field
        # is off at t1, so only the step times show where the last step ends
        basis, grid, pulse = self.make(0.01)
        dt = 12.0 / math.sqrt(pulse.delta) / 3999.5
        assert dt <= 0.05 * 2 * math.pi / pulse.omega
        seen = []
        generator = dynamics._generator

        def record(times, *args):
            seen.append(times)
            return generator(times, *args)

        monkeypatch.setattr(dynamics, "_generator", record)
        coeffs, _ = dynamics.propagate_oracle(basis, pulse, grid, dt)
        ref, ref_times = step_loop_oracle(basis, pulse, grid, dt)
        assert np.abs(coeffs - ref).max() <= 1e-12
        assert ref_times.shape == (4000, 3)
        assert ref_times[-1, 2] - ref_times[-1, 0] == pytest.approx(0.5 * dt)
        assert np.array_equal(np.concatenate(seen), ref_times)

    def test_matches_step_loop_l2(self, oracle_l2):
        basis, grid, pulse = oracle_l2
        dt = 0.04 * 2 * math.pi / pulse.omega
        coeffs, states = dynamics.propagate_oracle(basis, pulse, grid, dt)
        assert coeffs.shape == (18, 9)
        ref, _ = step_loop_oracle(basis, pulse, grid, dt)
        assert np.abs(coeffs - ref).max() <= 1e-12

    def test_traced_peak_l2(self, oracle_l2):
        # the propagators are built a block of steps at a time: ~6 MB at
        # 128 steps a block, ~24 MB at 512
        basis, grid, pulse = oracle_l2
        dt = 0.04 * 2 * math.pi / pulse.omega
        tracemalloc.start()
        try:
            dynamics.propagate_oracle(basis, pulse, grid, dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_step_size_validation(self):
        basis, grid, pulse = self.make(0.01)
        with pytest.raises(ValueError):
            dynamics.propagate_oracle(basis, pulse, grid,
                                      dt=2 * math.pi / pulse.omega)
