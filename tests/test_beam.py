import dataclasses
import math

import numpy as np
import pytest

from vortexcage import beam, config
from vortexcage.units import nm_to_bohr

from conftest import DELTA, WAIST, make_pulse


class TestRhoMax:
    def test_m2(self):
        assert beam.rho_max(2, 50.0) == pytest.approx(50.0, rel=1e-15)

    def test_m1(self):
        assert beam.rho_max(1, 50.0) == pytest.approx(35.35533905932738,
                                                      rel=1e-12)

    def test_m8(self):
        assert beam.rho_max(8, 50.0) == pytest.approx(100.0, rel=1e-15)

    def test_zero_charge(self):
        with pytest.raises(ValueError):
            beam.rho_max(0, 50.0)


class TestModeProfile:
    def test_gaussian_center_finite(self):
        p = make_pulse(0, a0=1.7)
        val = float(beam.mode_profile(p, np.array([0.0]))[0])
        assert val == pytest.approx(1.7, rel=1e-14)

    def test_vortex_core_zero(self):
        for m in (1, 2, 5):
            p = make_pulse(m)
            assert float(beam.mode_profile(p, np.array([0.0]))[0]) == 0.0

    def test_maximum_at_rho_max(self):
        # 1-D scan oracle for the global maximum
        p = make_pulse(3, a0=1.0)
        rho = np.linspace(0.0, 8.0 * WAIST, 400001)
        prof = np.abs(beam.mode_profile(p, rho))
        peak_at = rho[np.argmax(prof)]
        assert abs(peak_at - beam.rho_max(3, WAIST)) < 2.0 * (rho[1] - rho[0])

    def test_profile_even_in_charge(self):
        rho = np.linspace(0.0, 3.0 * WAIST, 500)
        for m in (1, 4, 9):
            a = beam.mode_profile(make_pulse(m), rho)
            b = beam.mode_profile(make_pulse(-m), rho)
            assert np.array_equal(a, b)

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            beam.mode_profile(make_pulse(1), np.array([-1.0]))


class TestNormalization:
    def test_m0(self):
        assert beam.normalization(2.5, 0) == 2.5

    def test_peak_equals_a0(self):
        for m in range(-15, 16):
            p = make_pulse(m, a0=1.0)
            rho = 0.0 if m == 0 else beam.rho_max(m, WAIST)
            peak = float(np.abs(beam.mode_profile(p, np.array([rho])))[0])
            assert abs(peak - 1.0) < 1e-10

    def test_scan_never_exceeds_a0(self):
        rho = np.linspace(0.0, 10.0 * WAIST, 200001)
        for m in (2, 5):
            prof = np.abs(beam.mode_profile(make_pulse(m, a0=1.0), rho))
            assert prof.max() <= 1.0 + 1e-10

    def test_printed_convention_flag(self):
        # the printed-formula variant suppresses the peak by e^{-|m|}
        for m in (1, 3, 6):
            ratio = beam.normalization(1.0, m, legacy_normalization=True) \
                / beam.normalization(1.0, m)
            assert ratio == pytest.approx(math.exp(-m), rel=1e-12)

    def test_p_nonzero_peak(self):
        p = beam.VortexPulse(a0=1.0, m_oam=2, p=2, omega=0.3, delta=DELTA,
                             waist=WAIST)
        rho = np.linspace(0.0, 10.0 * WAIST, 400001)
        peak = float(np.abs(beam.mode_profile(p, rho)).max())
        assert abs(peak - 1.0) < 1e-8

    def test_normalization_cached_per_pulse(self, monkeypatch):
        calls = []
        real = beam.normalization

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(beam, "normalization", spy)
        p = beam.VortexPulse(a0=1.0, m_oam=3, p=2, omega=0.3, delta=DELTA,
                             waist=WAIST)
        pts = np.array([[10.0, 20.0, 0.0], [300.0, -40.0, 5.0]])
        first = p.spatial_amplitude(pts)
        for _ in range(3):
            again = p.spatial_amplitude(pts)
            beam.mode_profile(p, np.array([0.0, 100.0]))
        assert len(calls) == 1
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        doubled = dataclasses.replace(p, a0=2.0)
        doubled.spatial_amplitude(pts)
        assert calls == [(1.0, 3, 2, False), (2.0, 3, 2, False)]
        assert doubled.amplitude_norm == pytest.approx(2.0 * p.amplitude_norm,
                                                       rel=1e-14)


def vector_potential(pulse, point):
    """Spatial factor of the positive-frequency A_x at one point."""
    return pulse.spatial_amplitude(point)[0][0]


def divergence(pulse, point):
    """dA_x/dx of the same factor, the second return of spatial_amplitude."""
    return pulse.spatial_amplitude(point)[1][0]


class TestVectorPotential:
    def test_core_zero(self):
        p = make_pulse(1)
        assert vector_potential(p, np.array([0.0, 0.0, 3.0])) == 0.0

    def test_half_turn_phase_flip(self):
        p = make_pulse(1)
        a = vector_potential(p, np.array([5.0, 2.0, 0.7]))
        b = vector_potential(p, np.array([-5.0, -2.0, 0.7]))
        assert abs(a + b) < 1e-14 * abs(a)

    def test_magnitude_independent_of_azimuth(self):
        p = make_pulse(3)
        rho = 0.4 * WAIST
        mags = []
        for phi in np.linspace(0.0, 2 * math.pi, 17):
            pt = np.array([rho * math.cos(phi), rho * math.sin(phi), 1.0])
            mags.append(abs(vector_potential(p, pt)))
        assert np.ptp(mags) < 1e-12 * mags[0]

    def test_matches_polar_form(self):
        # the mode written in polar form, f(rho') exp(i m phi'), against the
        # Cartesian product at the scale of each field
        rng = np.random.default_rng(7)
        pts = np.vstack([rng.uniform(-3.0 * WAIST, 3.0 * WAIST, (400, 3)),
                         rng.uniform(-40.0, 40.0, (100, 3))])
        for m in range(-12, 13):
            for p in (0, 2):
                pulse = make_pulse(m, rho0=150.0, p=p)
                dx, dy = pts[:, 0] - 150.0, pts[:, 1]
                ref = beam.mode_profile(pulse, np.hypot(dx, dy)) \
                    * np.exp(1j * m * np.arctan2(dy, dx))
                a_x = pulse.spatial_amplitude(pts)[0]
                assert np.abs(a_x - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_high_charge_stays_finite(self):
        # |m| = 40 far off the axis underflows to exact zeros, with no
        # overflow or invalid value on the way (at 1e12 bohr an unsplit
        # (sqrt2 z)^40 alone would overflow); on its ring it peaks at a0
        pts = np.random.default_rng(5).uniform(-40.0, 40.0, (64, 3))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for m in (40, -40):
                for p in (0, 8):
                    for rho0 in (1e6, 1e12):
                        pulse = make_pulse(m, rho0=rho0, p=p)
                        a_x, div = pulse.spatial_amplitude(pts)
                        assert not np.any(a_x) and not np.any(div)
                ring = np.array([beam.rho_max(m, WAIST), 0.0, 0.0])
                peak = abs(vector_potential(make_pulse(m, a0=1.0), ring))
                assert abs(peak - 1.0) < 1e-10


class TestEnvelopeFwhm:
    def test_reference_value(self):
        # 2 sqrt(ln2/delta) = 416.28 a.u. = 10.07 fs; the quoted 10 fs pairs
        # with delta = 1.6e-5 within 1%
        fwhm = beam.envelope_fwhm(1.6e-5)
        assert fwhm == pytest.approx(10.069266, abs=1e-5)
        assert abs(fwhm / 10.0 - 1.0) < 0.01

    def test_quadrupling_delta_halves_fwhm(self):
        assert beam.envelope_fwhm(4 * DELTA) == pytest.approx(
            beam.envelope_fwhm(DELTA) / 2.0, rel=1e-14)

    def test_inversion(self):
        # bisection oracle on the forward map
        target = 20.0
        lo, hi = 1e-8, 1e-3
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if beam.envelope_fwhm(mid) > target:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        got = beam.delta_from_fwhm_fs(target)
        assert got == pytest.approx(oracle, rel=1e-10)
        assert got == pytest.approx(4.0e-6, rel=0.02)
        assert beam.envelope_fwhm(got) == pytest.approx(target, rel=1e-12)


class TestDivergence:
    def test_gaussian_center_zero(self):
        p = make_pulse(0)
        assert abs(divergence(p, np.array([0.0, 0.0, 0.0]))) < 1e-18

    @pytest.mark.parametrize("rho0", [0.0, 200.0])
    @pytest.mark.parametrize("p", [0, 2])
    @pytest.mark.parametrize("m", [-3, -1, 0, 1, 2, 12])
    def test_matches_finite_difference(self, m, p, rho0):
        # random points near the cage, plus points on the optical axis and
        # 1e-9 bohr off it
        pulse = make_pulse(m, rho0=rho0, p=p)
        rng = np.random.default_rng(31)
        axis = np.array([[rho0, 0.0, 0.0], [rho0, 0.0, 3.0],
                         [rho0 + 1e-9, 0.0, 0.0], [rho0, -1e-9, 1.0]])
        pts = np.vstack([rng.uniform(-40.0, 40.0, (50, 3)), axis])
        h = 1e-3
        a_x, an = pulse.spatial_amplitude(pts)

        def diff(k):
            shift = np.array([k * h, 0.0, 0.0])
            return (pulse.spatial_amplitude(pts + shift)[0]
                    - pulse.spatial_amplitude(pts - shift)[0])

        # fourth-order central difference: on the axis the second-order one
        # keeps an h^2 (sqrt2/w0)^3 term at |m| = 3, where dA_x/dx is 0
        fd = (8.0 * diff(0.5) - diff(1.0)) / (6.0 * h)
        # where dA_x/dx vanishes, the quotient's own roundoff (a few
        # eps max|A_x| / h) sets the floor
        floor = 1e-7 * np.abs(a_x).max() / h
        assert np.all(np.abs(an - fd) < 1e-7 * np.maximum(np.abs(an), floor))

    def test_far_field(self):
        p = make_pulse(2, a0=1.0)
        pt = np.array([10.0 * WAIST, 0.0, 0.0])
        assert abs(divergence(p, pt)) < 1e-20 / WAIST


class TestExperimentalUnits:
    def test_from_experimental(self):
        # the default config gives the pulse in eV, nm, fs and W/cm^2
        run = config.RunConfig.resolve(config.load_config())
        p = run.make_pulse()
        assert p.waist == pytest.approx(nm_to_bohr(50.0), rel=1e-14)
        assert p.intensity_w_cm2 == pytest.approx(3.0e13, rel=1e-10)
        assert beam.envelope_fwhm(run.delta) == pytest.approx(10.0, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            beam.VortexPulse(a0=1.0, m_oam=50, omega=0.3, delta=DELTA,
                             waist=WAIST)
        with pytest.raises(ValueError):
            beam.VortexPulse(a0=1.0, m_oam=1, omega=0.3, delta=-1.0,
                             waist=WAIST)
