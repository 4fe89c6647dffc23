import math

import numpy as np
import pytest

from vortexcage import beam, coupling, dynamics, numerics, structure
from vortexcage.units import ev_to_hartree

from conftest import DELTA, WAIST, make_pulse


def reduced_basis(l_cap=1, electrons=8):
    ref = structure.default_bands()
    bands = (
        ref[0],
        structure.BandSpec(n=2, energy_offset=ref[1].energy_offset,
                           l_max=l_cap, shell_radius=ref[1].shell_radius,
                           shell_width=ref[1].shell_width,
                           electron_count=electrons),
        structure.BandSpec(n=3, energy_offset=ref[2].energy_offset,
                           l_max=l_cap, shell_radius=ref[2].shell_radius,
                           shell_width=ref[2].shell_width, electron_count=0),
    )
    return structure.build_basis(bands)


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
            basis, make_pulse(1, a0=0.02), grid), basis, warn=False)
        e2 = dynamics.excite(coupling.build_transition_set(
            basis, make_pulse(1, a0=0.04), grid), basis, warn=False)
        p1, p2 = e1.populations(), e2.populations()
        mask = p1 > 0
        assert np.allclose(p2[mask] / p1[mask], 4.0, rtol=1e-12)

    def test_far_detuned_suppression(self, basis, grid, ts_m1, exc_m1):
        import dataclasses
        far = dataclasses.replace(ts_m1.pulse,
                                  omega=ts_m1.pulse.omega + ev_to_hartree(10.0))
        ts_far = dataclasses.replace(ts_m1, pulse=far)
        exc_far = dynamics.excite(ts_far, basis, warn=False)
        assert exc_far.populations().max() < \
            1e-30 * exc_m1.populations().max()

    def test_default_intensity_within_validity(self, basis, grid):
        # reference intensity at the vortex core stays perturbative
        omega = ev_to_hartree(8.0)
        a0 = (3.0e13 / 3.50944758e16) ** 0.5 / omega
        ts = coupling.build_transition_set(basis, make_pulse(1, a0=a0), grid)
        exc = dynamics.excite(ts, basis, warn=False)
        assert exc.validity_metric < exc.validity_threshold
        assert not exc.breakdown

    def test_breakdown_warning(self, basis, grid):
        ts = coupling.build_transition_set(basis, make_pulse(1, a0=5.0), grid)
        with pytest.warns(dynamics.PerturbationBreakdownWarning):
            exc = dynamics.excite(ts, basis)
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
        basis, grid, pulse = self.make(1e-300)
        dt = 0.04 * 2 * math.pi / pulse.omega
        occ = [o for o in basis.band_orbitals(2) if o.occupied][:1]
        coeffs, states = dynamics.propagate_oracle(basis, pulse, grid, dt,
                                                   occupied=occ)
        pos = {o.index: a for a, o in enumerate(states)}
        assert abs(coeffs[0, pos[occ[0].index]] - 1.0) < 1e-12
        others = [abs(coeffs[0, a]) for a in range(len(states))
                  if a != pos[occ[0].index]]
        assert max(others) < 1e-12

    def test_norm_conservation(self):
        basis, grid, pulse = self.make(0.01)
        dt = 0.04 * 2 * math.pi / pulse.omega
        occ = [o for o in basis.band_orbitals(2) if o.occupied][:2]
        coeffs, _ = dynamics.propagate_oracle(basis, pulse, grid, dt,
                                              occupied=occ)
        for row in coeffs:
            assert abs(np.sum(np.abs(row) ** 2) - 1.0) < 1e-8

    def _population_dev(self, a0):
        basis, grid, pulse = self.make(a0)
        ts = coupling.build_transition_set(basis, pulse, grid)
        pops = dynamics.excite(ts, basis, warn=False).populations()
        dt = 0.04 * 2 * math.pi / pulse.omega
        coeffs, states = dynamics.propagate_oracle(basis, pulse, grid, dt)
        occ = [o for o in states if o.occupied]
        pos = {o.index: a for a, o in enumerate(states)}
        pmax = float(pops.max())
        worst = 0.0
        for kc, k_idx in enumerate(ts.occupied):
            s = next(i for i, o in enumerate(occ) if o.index == k_idx)
            for jr, j_idx in enumerate(ts.unoccupied):
                p_o = float(abs(coeffs[s, pos[j_idx]]) ** 2)
                if p_o > 1e-3 * pmax:
                    worst = max(worst, abs(pops[jr, kc] - p_o) / p_o)
        return pmax, worst

    def test_weak_field_agreement(self):
        pmax, worst = self._population_dev(0.004)
        assert pmax < 1e-3
        assert worst < 0.02

    def test_error_scales_as_intensity(self):
        _, w_strong = self._population_dev(0.004)
        _, w_weak = self._population_dev(0.002)
        assert w_strong / w_weak == pytest.approx(4.0, rel=0.2)

    def test_step_size_validation(self):
        basis, grid, pulse = self.make(0.01)
        with pytest.raises(ValueError):
            dynamics.propagate_oracle(basis, pulse, grid,
                                      dt=2 * math.pi / pulse.omega)
