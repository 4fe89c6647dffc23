import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortexcage import (beam, config, coupling, dynamics, numerics,
                        observables, structure)
from vortexcage.units import ev_to_hartree
from vortexcage.units import AU_BFIELD_T, MU0_OVER_4PI_AU

from conftest import make_pulse


def run_excitation(basis, grid, m_oam, omega_ev=8.0, a0=0.05, rho0=0.0):
    ts = coupling.build_transition_set(
        basis, grid, make_pulse(m_oam, omega_ev=omega_ev, a0=a0, rho0=rho0))
    return dynamics.excite(ts, basis)


def flux_through_sphere(exc, basis, radius, angular_order=26):
    """Net DC current through the origin-centred sphere of this radius."""
    dirs, w = numerics.angular_rule(angular_order)
    j = observables.current_samples(exc, basis, radius * dirs)
    return float(radius**2 * np.sum(w * np.einsum("nc,nc->n", j, dirs)))


@pytest.fixture(scope="module")
def field_m1(basis, grid, exc_m1):
    return observables.sample_current(exc_m1, basis, grid)


class TestDcCurrent:
    def test_null_for_gaussian_beam(self, basis, grid, field_m1):
        exc0 = run_excitation(basis, grid, 0)
        f0 = observables.sample_current(exc0, basis, grid)
        assert np.abs(f0.j).max() < 1e-12 * np.abs(field_m1.j).max()

    def test_single_orbital_closed_form(self, basis, grid):
        # one populated Y_ll target: j_phi = 2 |B|^2 l |R|^2 |Y_ll|^2 / (r sin)
        target = next(o for o in basis.band_orbitals(3)
                      if o.l == 3 and o.lam == 3)
        source = next(o for o in basis.band_orbitals(2) if o.occupied)
        b_amp = 0.37 - 0.21j
        ts = coupling.TransitionSet(
            occupied=(source.index,), unoccupied=(target.index,),
            matrix=np.array([[1.0 + 0.0j]]), pulse=make_pulse(1))
        exc = dynamics.ExcitationState(
            transitions=ts,
            amplitudes=np.array([[b_amp]]), validity_metric=abs(b_amp) ** 2,
            breakdown=False)
        rng = np.random.default_rng(13)
        sec = math.sqrt(7.0 / (4 * math.pi) * (1.0 / 2) * (3.0 / 4) * (5.0 / 6))
        for _ in range(12):
            pt = rng.uniform(-1, 1, 3)
            pt *= rng.uniform(4.0, 10.0) / np.linalg.norm(pt)
            j = observables.current_samples(exc, basis, pt[None],
                                            charge_convention="probability")[0]
            r = np.linalg.norm(pt)
            sin_t = math.hypot(pt[0], pt[1]) / r
            rad = basis.shells.values(np.array([r]))[target.band_pos][0]
            y_mag2 = sec**2 * sin_t ** 6
            expected_mag = 2.0 * abs(b_amp) ** 2 * 3.0 * rad**2 * y_mag2 \
                / (r * sin_t)
            phi_hat = np.array([-pt[1], pt[0], 0.0]) / (r * sin_t)
            assert np.abs(j - expected_mag * phi_hat).max() < 1e-12 * \
                max(expected_mag, 1e-30)

    def test_sign_flip_with_charge(self, basis, grid, field_m1):
        exc_neg = run_excitation(basis, grid, -1)
        f_neg = observables.sample_current(exc_neg, basis, grid)
        assert np.abs(f_neg.j + field_m1.j).max() < 1e-10 * np.abs(field_m1.j).max()

    def test_charge_convention_sign(self, basis, grid, exc_m1, field_m1):
        f_prob = observables.sample_current(exc_m1, basis, grid,
                                            charge_convention="probability")
        assert np.array_equal(f_prob.j, -field_m1.j)
        assert field_m1.j.dtype == np.float64  # strictly real samples
        with pytest.raises(ValueError):
            observables.sample_current(exc_m1, basis, grid,
                                       charge_convention="positron")

    def test_quadratic_amplitude_scaling(self, basis, grid):
        f1 = observables.sample_current(
            run_excitation(basis, grid, 1, a0=0.02), basis, grid)
        f2 = observables.sample_current(
            run_excitation(basis, grid, 1, a0=0.04), basis, grid)
        assert np.abs(f2.j - 4.0 * f1.j).max() < 1e-10 * np.abs(f2.j).max()

    def test_divergence_free_flux(self, basis, grid, exc_m1):
        scale = np.abs(observables.current_samples(
            exc_m1, basis, np.array([[6.7, 0.0, 0.0]]))).max()
        for radius in (5.0, 8.0, 15.0):
            flux = flux_through_sphere(exc_m1, basis, radius)
            assert abs(flux) < 1e-8 * scale * radius**2

    def test_pointwise_divergence(self, basis, exc_m1):
        # FD divergence of the stationary current vanishes (per-manifold
        # wavepackets are built from exactly degenerate states)
        rng = np.random.default_rng(3)
        scale = np.abs(observables.current_samples(
            exc_m1, basis, np.array([[6.7, 0.0, 0.0]]))).max()
        h = 1e-4
        for _ in range(5):
            pt = rng.uniform(-1, 1, 3)
            pt *= rng.uniform(5.0, 9.0) / np.linalg.norm(pt)
            div = 0.0
            for axis in range(3):
                step = np.zeros(3)
                step[axis] = h
                jp = observables.current_samples(exc_m1, basis, pt + step)
                jm = observables.current_samples(exc_m1, basis, pt - step)
                div += (jp[0, axis] - jm[0, axis]) / (2 * h)
            assert abs(div) < 1e-6 * scale


def reference_current(exc, basis, points, eta=structure.DEFAULT_ETA,
                      charge_convention="electron", tables=None):
    """The current tabulated orbital by orbital at (n, 3) points: psi and
    grad psi of every target from ``structure.orbital_tables`` (or
    ``tables``), then 2 Im sum_ll' C_ll' conj(psi_l) grad psi_l' per
    coherence block."""
    targets = [basis.orbitals[i] for i in exc.transitions.unoccupied]
    psi, grad = tables or structure.orbital_tables(basis, targets, points)
    row_of = {o.index: r for r, o in enumerate(targets)}
    by_rep = {}
    for o in targets:
        by_rep.setdefault((o.band, o.l, o.rep_label), []).append(o)
    j = np.zeros((psi.shape[1], 3))
    for members in by_rep.values():
        for group in structure.degenerate_groups(members, eta):
            rows = [row_of[o.index] for o in group]
            b_block = exc.amplitudes[rows, :]
            coh = b_block.conj() @ b_block.T
            mixed = np.einsum("lm,ln->mn", coh, psi[rows].conj())
            j += 2.0 * np.einsum("mn,mnc->nc", mixed, grad[rows]).imag
    return (-1.0 if charge_convention == "electron" else 1.0) * j


def assert_matches_reference(j, ref):
    assert np.abs(j - ref).max() <= 1e-13 * np.abs(ref).max()


class TestCurrentFactorisation:
    """``current_samples`` takes (R_b^2 / r) times one angular quadratic
    form per (band, l); the orbital-by-orbital tables must agree."""

    @pytest.mark.parametrize("plane", ["xy", "xz"])
    @pytest.mark.parametrize("resolution", [64, 51])
    def test_lattice_matches_tables(self, basis, exc_m1, plane, resolution):
        pts, j = observables.sample_current_plane(exc_m1, basis, plane,
                                                  14.0, resolution)
        pts, j = pts.reshape(-1, 3), j.reshape(-1, 3)
        assert_matches_reference(j, reference_current(exc_m1, basis, pts))
        on_axis = (pts[:, 0] == 0.0) & (pts[:, 1] == 0.0)
        origin = on_axis & (pts[:, 2] == 0.0)
        assert np.count_nonzero(on_axis) == (resolution % 2) * (
            1 if plane == "xy" else resolution)
        assert np.all(j[origin] == 0.0)

    def test_offset_beam_matches_tables(self, basis, grid):
        rho0 = 0.5 * beam.rho_max(1, make_pulse(1).waist)
        exc = run_excitation(basis, grid, 1, rho0=rho0)
        pts, j = observables.sample_current_plane(exc, basis, "xy", 14.0, 64)
        pts = pts.reshape(-1, 3)
        assert_matches_reference(j.reshape(-1, 3),
                                 reference_current(exc, basis, pts))

    @pytest.mark.parametrize("charge_convention", ["electron", "probability"])
    def test_grid_matches_tables(self, basis, grid, exc_m1, charge_convention):
        field = observables.sample_current(exc_m1, basis, grid,
                                           charge_convention=charge_convention)
        assert np.array_equal(field.points, grid.points)
        assert_matches_reference(field.j, reference_current(
            exc_m1, basis, grid.points, charge_convention=charge_convention))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-8, 2),
           density=st.floats(0.05, 1.0))
    def test_symmetry_blocks_random_amplitudes(self, symmetry_basis, grid,
                                               symmetry_setup,
                                               symmetry_tables, seed,
                                               exponent, density):
        # the e_g / t2g blocks carry cross terms between coefficient rows
        ts, _ = symmetry_setup
        rng = np.random.default_rng(seed)
        shape = ts.matrix.shape
        amps = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
            * 10.0 ** exponent * (rng.uniform(size=shape) < density)
        exc = dataclasses.replace(dynamics.excite(ts, symmetry_basis),
                                  amplitudes=amps)
        j = observables.current_samples(exc, symmetry_basis, grid)
        assert_matches_reference(j, reference_current(
            exc, symmetry_basis, grid.points, tables=symmetry_tables))

    def test_plane_memory(self, basis, exc_m1):
        # no orbital or gradient table over the 65,536 lattice points
        tracemalloc.start()
        try:
            observables.sample_current_plane(exc_m1, basis, "xy", 14.0, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_grid_memory(self, basis, exc_m1):
        grid = config.RunConfig.resolve(config.load_config()).make_grid()
        tracemalloc.start()
        try:
            observables.sample_current(exc_m1, basis, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


MIRROR_POINTS = np.random.default_rng(29).uniform(-12.0, 12.0, (200, 3))
MIRROR = np.array([1.0, -1.0, 1.0])


class TestMirrorSymmetry:
    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(1, 4), ratio=st.floats(0.0, 1.0))
    def test_y_mirror_maps_charge_to_minus_charge(self, basis, grid, exc_m1,
                                                  m, ratio):
        # y -> -y keeps the x-offset and the x polarization and conjugates
        # e^{i m phi}: the current of -m is the mirror image of that of m
        rho0 = ratio * beam.rho_max(m, make_pulse(m).waist)
        j_plus = observables.current_samples(
            run_excitation(basis, grid, m, rho0=rho0), basis, MIRROR_POINTS)
        j_minus = observables.current_samples(
            run_excitation(basis, grid, -m, rho0=rho0), basis,
            MIRROR_POINTS * MIRROR)
        floor = np.abs(observables.current_samples(
            exc_m1, basis, MIRROR_POINTS)).max()
        scale = max(np.abs(j_plus).max(), floor)
        assert np.abs(j_minus - MIRROR * j_plus).max() <= 1e-10 * scale


class TestResonancePositions:
    def test_charges_share_transition_lines(self, basis, grid):
        # resonances sit at the band gaps, which do not depend on the
        # topological charge: every charge peaks at the same photon
        # energies (each line is a local maximum of |m_z(omega)| for each m)
        import dataclasses

        from vortexcage import beam
        from vortexcage.units import HARTREE_EV, ev_to_hartree
        bands = basis.bands
        lines = sorted({
            HARTREE_EV * (structure.parabolic_energy(bands[2], lj, 6.7)
                          - structure.parabolic_energy(bands[1], lk, 6.7))
            for lk, lj in ((0, 0), (0, 2), (2, 0), (1, 1))})

        def moment_at(ts, w):
            shifted = dataclasses.replace(ts, pulse=dataclasses.replace(
                ts.pulse, omega=ev_to_hartree(w)))
            exc = dynamics.excite(shifted, basis)
            field = observables.sample_current(exc, basis, grid)
            return abs(observables.magnetic_moment(field)[2])

        for m in (1, 2, 3):
            rho0 = 0.2 * beam.rho_max(m, make_pulse(m).waist)
            ts = coupling.build_transition_set(basis, grid,
                                               make_pulse(m, rho0=rho0))
            on_line = [moment_at(ts, w) for w in lines]
            scale = max(on_line)
            for w, val in zip(lines, on_line):
                if val < 1e-6 * scale:
                    continue
                assert val > moment_at(ts, w - 0.4)
                assert val > moment_at(ts, w + 0.4)


class TestCylindricalDecomposition:
    def test_centered_run_purely_azimuthal(self, field_m1):
        jr, jp, jz = observables.cylindrical_decomposition(field_m1)
        assert jr < 1e-6 * jp
        assert jz < 1e-6 * jp

    def test_null_for_gaussian(self, basis, grid):
        exc0 = run_excitation(basis, grid, 0)
        f0 = observables.sample_current(exc0, basis, grid)
        assert all(v < 1e-25 for v in observables.cylindrical_decomposition(f0))

    def test_synthetic_ring_pure_phi(self):
        ring = observables.ring_current_field(0.5, 4.0)
        jr, jp, jz = observables.cylindrical_decomposition(ring)
        assert jz == 0.0 and jp > 0.0
        assert jr < 1e-14 * jp


def meshgrid_ring_field(current, radius, sigma=None, n_radial=96, n_z=96,
                        n_phi=64):
    """The ring field evaluated on the full (rho, z, phi) meshgrid."""
    sigma = 0.01 * radius if sigma is None else sigma
    rho, w_rho = numerics.gauss_legendre(n_radial, radius - 6.0 * sigma,
                                         radius + 6.0 * sigma)
    z, w_z = numerics.gauss_legendre(n_z, -6.0 * sigma, 6.0 * sigma)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    w_phi = 2.0 * math.pi / n_phi
    norm = 1.0 / (2.0 * math.pi * sigma * sigma)
    rr, zz, pp = np.meshgrid(rho, z, phi, indexing="ij")
    amp = current * norm * np.exp(-((rr - radius) ** 2 + zz**2)
                                  / (2.0 * sigma * sigma))
    pts = np.stack([rr * np.cos(pp), rr * np.sin(pp), zz], axis=-1).reshape(-1, 3)
    jphi = amp.reshape(-1)
    j = np.stack([-jphi * np.sin(pp).reshape(-1),
                  jphi * np.cos(pp).reshape(-1),
                  np.zeros_like(jphi)], axis=-1)
    w = (w_rho * rho)[:, None, None] * w_z[None, :, None] * w_phi
    weights = np.broadcast_to(w, (n_radial, n_z, n_phi)).reshape(-1).copy()
    return pts, j, weights


class TestRingOracle:
    @pytest.mark.parametrize("sigma", [None, 0.07])
    def test_matches_meshgrid_bit_for_bit(self, sigma):
        ring = observables.ring_current_field(0.42, 6.0, sigma=sigma)
        pts, j, weights = meshgrid_ring_field(0.42, 6.0, sigma=sigma)
        assert np.array_equal(ring.points, pts)
        assert np.array_equal(ring.j, j)
        assert np.array_equal(ring.weights, weights)

    def test_moment(self):
        current, radius = 0.37, 5.2
        ring = observables.ring_current_field(current, radius)
        mag = observables.magnetics(ring, warn=False)
        assert mag.moment_au[2] == pytest.approx(
            current * math.pi * radius**2, rel=1e-3)
        assert abs(mag.moment_au[0]) < 1e-12 * abs(mag.moment_au[2])
        assert mag.moment_mu_b[2] == pytest.approx(2.0 * mag.moment_au[2],
                                                   rel=1e-14)

    def test_bfield(self):
        current, radius = 0.37, 5.2
        ring = observables.ring_current_field(current, radius)
        b_au = observables.b_field_center(ring, warn=False)
        mu0 = 4 * math.pi * MU0_OVER_4PI_AU
        assert b_au[2] == pytest.approx(mu0 * current / (2 * radius), rel=1e-3)

    def test_tight_tolerance_small_smearing(self):
        # 0.1% criterion with sigma/a = 0.01
        current, radius = 1.0, 6.0
        ring = observables.ring_current_field(current, radius,
                                              sigma=0.01 * radius)
        mag = observables.magnetics(ring, warn=False)
        assert mag.moment_au[2] == pytest.approx(
            current * math.pi * radius**2, rel=1e-3)
        mu0 = 4 * math.pi * MU0_OVER_4PI_AU
        assert mag.b_center_au[2] == pytest.approx(
            mu0 * current / (2 * radius), rel=1e-3)

    def test_linearity(self):
        ring = observables.ring_current_field(0.2, 5.0)
        double = observables.CurrentField(points=ring.points, j=2 * ring.j,
                                          weights=ring.weights)
        m1 = observables.magnetics(ring, warn=False)
        m2 = observables.magnetics(double, warn=False)
        assert m2.moment_au[2] == pytest.approx(2 * m1.moment_au[2], rel=1e-14)
        assert m2.b_center_au[2] == pytest.approx(2 * m1.b_center_au[2],
                                                  rel=1e-14)

    def test_mirror_symmetric_field_axial_moment(self):
        ring = observables.ring_current_field(0.4, 5.0)
        moment = observables.magnetic_moment(ring)
        assert abs(moment[0]) < 1e-12 * abs(moment[2])
        assert abs(moment[1]) < 1e-12 * abs(moment[2])


class TestBFieldCutoff:
    def test_cutoff_leak_warning(self):
        # current living at the exclusion radius must trigger the warning
        ring = observables.ring_current_field(0.3, 0.55, sigma=0.05)
        with pytest.warns(observables.CutoffLeakWarning):
            observables.b_field_center(ring, r_cut=0.5)

    def test_exclusion_changes_nothing_for_shell_current(self, field_m1):
        b1 = observables.b_field_center(field_m1, r_cut=0.5, warn=False)
        b2 = observables.b_field_center(field_m1, r_cut=1.0, warn=False)
        assert b1[2] != 0.0
        assert b2[2] == pytest.approx(b1[2], rel=0.05)


class TestMagnetics:
    def test_moment_and_field_along_z(self, basis, field_m1):
        mag = observables.magnetics(field_m1, warn=False)
        assert abs(mag.moment_au[0]) < 1e-8 * abs(mag.moment_au[2])
        assert abs(mag.moment_au[1]) < 1e-8 * abs(mag.moment_au[2])
        assert abs(mag.b_center_au[0]) < 1e-8 * abs(mag.b_center_au[2])
        assert abs(mag.b_center_au[1]) < 1e-8 * abs(mag.b_center_au[2])


class TestPlanes:
    def test_zero_lattice_for_gaussian(self, basis, grid):
        exc0 = run_excitation(basis, grid, 0)
        _, j = observables.sample_current_plane(exc0, basis, "xy", 15.0, 32)
        assert np.abs(j).max() < 1e-30

    def test_azimuthal_uniformity(self, basis, grid, exc_m1):
        pts, j = observables.sample_current_plane(exc_m1, basis, "xy",
                                                  12.0, 64)
        mag = np.linalg.norm(j.reshape(-1, 3), axis=1)
        rho = np.hypot(pts.reshape(-1, 3)[:, 0], pts.reshape(-1, 3)[:, 1])
        # compare |j| at fixed radius across azimuth via interpolation on a
        # circle sampled directly
        radius = 7.0
        phis = np.linspace(0.0, 2 * math.pi, 37)[:-1]
        circ = np.stack([radius * np.cos(phis), radius * np.sin(phis),
                         np.zeros_like(phis)], axis=1)
        vals = np.linalg.norm(observables.current_samples(exc_m1, basis, circ),
                              axis=1)
        assert np.ptp(vals) < 0.01 * vals.mean()
        del mag, rho

    def test_xz_mirror_symmetry(self, basis, exc_m1):
        _, j = observables.sample_current_plane(exc_m1, basis, "xz", 12.0, 32)
        # lattice index 1 runs over z: reflecting z flips nothing for |j|
        mag = np.linalg.norm(j, axis=2)
        assert np.abs(mag - mag[:, ::-1]).max() < 1e-10 * mag.max()

    def test_resolution_refinement(self, basis, exc_m1):
        # integrated |j| over the default-extent lattice, Riemann sum per
        # resolution
        extent = 14.0
        totals = []
        for res in (32, 64):
            _, j = observables.sample_current_plane(exc_m1, basis, "xy",
                                                    extent, res)
            area = (2 * extent / (res - 1)) ** 2
            totals.append(np.linalg.norm(j, axis=2).sum() * area)
        assert abs(totals[1] - totals[0]) / totals[1] < 0.01

    def test_odd_lattice_holds_the_origin(self, basis, exc_m1):
        # a middle node ~1e-15 bohr off the origin missed the r = 0 limit,
        # and the R/r term of the current blew up there
        pts, j = observables.sample_current_plane(exc_m1, basis, "xy",
                                                  14.0, 51)
        assert np.any(np.all(pts.reshape(-1, 3) == 0.0, axis=1))
        _, j49 = observables.sample_current_plane(exc_m1, basis, "xy",
                                                  14.0, 49)
        assert np.abs(j).max() < 2.0 * np.abs(j49).max()
        assert observables.radial_ring_count(pts, j) >= 2

    @pytest.mark.parametrize("res", [64, 256])
    def test_even_lattice_is_linspace(self, res):
        pts = observables.plane_lattice("xz", 14.0, res)
        axis = np.linspace(-14.0, 14.0, res)
        assert np.array_equal(pts[:, 0, 0], axis)
        assert np.array_equal(pts[0, :, 2], axis)

    def test_plane_writer(self, basis, exc_m1, tmp_path):
        pts, j = observables.sample_current_plane(exc_m1, basis, "xy", 8.0, 32)
        path = tmp_path / "plane.dat"
        observables.write_plane(path, "xy", 8.0, pts, j)
        lines = path.read_text().splitlines()
        assert lines[0] == f"# plane=xy extent=8 resolution=32"
        assert len(lines) == 2 + 32 * 32

    def test_plane_writer_bytes_match_line_writer(self, tmp_path):
        def line_writer(path, plane, extent, points, j):
            # one f-string per lattice point: the layout write_plane keeps
            pts, vals = points.reshape(-1, 3), j.reshape(-1, 3)
            with open(path, "w", encoding="utf-8") as fh:
                n = int(round(math.sqrt(len(pts))))
                fh.write(f"# plane={plane} extent={extent:.17g} "
                         f"resolution={n}\n")
                fh.write("# x y z jx jy jz\n")
                for p, v in zip(pts, vals):
                    fh.write(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g} "
                             f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")

        # odd resolution: the centre coordinate is 0.0, beside planted -0.0
        pts = observables.plane_lattice("xz", 7.3, 33)
        assert pts[16, 16, 0] == 0.0
        j = np.random.default_rng(3).standard_normal(pts.shape) * 1e-7
        pts[0, 1] = j[0, 0] = (-0.0, 0.0, -0.0)
        pts[2, 0] = j[4, 9] = (5e-324, -2.5e-310, -1.0 / 3.0)
        j[1] = -0.0
        written, expected = tmp_path / "block.dat", tmp_path / "lines.dat"
        observables.write_plane(written, "xz", 7.3, pts, j)
        line_writer(expected, "xz", 7.3, pts, j)
        text = written.read_bytes()
        assert text == expected.read_bytes()
        assert b"\n-0 0 -0 " in text and b"\n0 0 0 " in text

    def test_invalid_arguments(self, basis, exc_m1):
        with pytest.raises(ValueError):
            observables.sample_current_plane(exc_m1, None, "xy", 8.0, 16)
        with pytest.raises(ValueError):
            observables.sample_current_plane(exc_m1, None, "yz", 8.0, 32)

    def test_ring_count_synthetic(self):
        # two concentric rings in the xy plane
        res = 128
        axis = np.linspace(-12.0, 12.0, res)
        a, b = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([a, b, np.zeros_like(a)], axis=-1)
        rho = np.hypot(a, b)
        mag = np.exp(-((rho - 4.0) / 0.5) ** 2) + np.exp(-((rho - 8.0) / 0.5) ** 2)
        j = np.zeros_like(pts)
        with np.errstate(invalid="ignore", divide="ignore"):
            j[..., 0] = np.where(rho > 0, -b / rho * mag, 0.0)
            j[..., 1] = np.where(rho > 0, a / rho * mag, 0.0)
        assert observables.radial_ring_count(pts, j) == 2


def at_omega(ts, omega_ev, basis):
    shifted = dataclasses.replace(ts, pulse=dataclasses.replace(
        ts.pulse, omega=ev_to_hartree(omega_ev)))
    return dynamics.excite(shifted, basis)


def compare_kernel_to_sampled(kernel, exc, basis, grid,
                              charge_convention="electron"):
    """Kernel observables against magnetics and cylindrical_decomposition
    of the sampled field, at 1e-12 of the uncancelled scale: each integral
    taken over |u| @ |F| instead of the current, with |F| the pointwise
    magnitude of each row's field (rounding of a cancelled component
    scales with the whole vector).  Returns both sets of values."""
    mag, norms = kernel.observables(exc)
    field = observables.sample_current(exc, basis, grid,
                                       charge_convention=charge_convention)
    ref = observables.magnetics(field, warn=False)
    ref_norms = observables.cylindrical_decomposition(field)
    amps = exc.amplitudes
    coh = np.sum(amps[kernel.left].conj() * amps[kernel.right], axis=1)
    u_abs = 2.0 * np.abs(np.where(kernel.imag_coherence, coh.imag, coh.real))
    envelope = u_abs @ np.sqrt(np.sum(kernel.components ** 2, axis=0))
    w = kernel.weights
    r = np.linalg.norm(grid.points, axis=1)
    keep = r >= observables.DEFAULT_R_CUT
    m_scale = 0.5 * np.sum(w * r * envelope)
    b_scale = MU0_OVER_4PI_AU * np.sum(w[keep] * envelope[keep] / r[keep] ** 2)
    n_scale = math.sqrt(np.sum(w * envelope ** 2))
    assert np.abs(mag.moment_au - ref.moment_au).max() <= 1e-12 * m_scale
    assert np.abs(mag.b_center_au - ref.b_center_au).max() <= 1e-12 * b_scale
    for val, ref_val in zip(norms, ref_norms):
        assert abs(val - ref_val) <= 1e-12 * n_scale
    return (mag, norms), (ref, ref_norms)


@pytest.fixture(scope="module")
def symmetry_tables(symmetry_basis, grid):
    _, targets = coupling.transition_orbitals(symmetry_basis)
    return structure.orbital_tables(symmetry_basis, targets, grid.points)


@pytest.fixture(scope="module")
def symmetry_setup(symmetry_basis, grid):
    return coupling.build_transition_set(symmetry_basis, grid,
                                         make_pulse(1)), \
        observables.scan_kernel(symmetry_basis, grid)


class TestScanKernel:
    @pytest.mark.parametrize("charge_convention", ["electron", "probability"])
    def test_centred_matches_sampled(self, basis, grid, ts_m1,
                                     charge_convention):
        kernel = observables.scan_kernel(basis, grid,
                                         charge_convention=charge_convention)
        assert len(kernel.left) == len(ts_m1.unoccupied)   # 1-D blocks
        for omega_ev in (5.0, 7.75, 8.0, 11.25, 15.0):
            exc = at_omega(ts_m1, omega_ev, basis)
            (mag, norms), (ref, ref_norms) = compare_kernel_to_sampled(
                kernel, exc, basis, grid, charge_convention)
            assert mag.moment_au[2] == pytest.approx(ref.moment_au[2],
                                                     rel=1e-12, abs=0.0)
            assert mag.b_center_au[2] == pytest.approx(ref.b_center_au[2],
                                                       rel=1e-12, abs=0.0)
            assert norms[1] == pytest.approx(ref_norms[1], rel=1e-12, abs=0.0)

    def test_offset_beam_matches_sampled(self, basis, grid):
        rho0 = 1.0 * beam.rho_max(1, make_pulse(1).waist)
        ts = coupling.build_transition_set(basis, grid,
                                           make_pulse(1, rho0=rho0))
        kernel = observables.scan_kernel(basis, grid)
        for omega_ev in (7.75, 8.0, 10.5):
            compare_kernel_to_sampled(kernel, at_omega(ts, omega_ev, basis),
                                      basis, grid)

    def test_symmetry_blocks_match_sampled(self, symmetry_basis, grid,
                                           symmetry_setup):
        ts, kernel = symmetry_setup
        assert np.any(kernel.left != kernel.right)         # cross terms
        for omega_ev in (7.0, 8.0, 9.5):
            compare_kernel_to_sampled(kernel,
                                      at_omega(ts, omega_ev, symmetry_basis),
                                      symmetry_basis, grid)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-8, 2),
           density=st.floats(0.05, 1.0))
    def test_random_amplitudes_match_sampled(self, symmetry_basis, grid,
                                             symmetry_setup, seed, exponent,
                                             density):
        ts, kernel = symmetry_setup
        rng = np.random.default_rng(seed)
        shape = ts.matrix.shape
        amps = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
            * 10.0 ** exponent * (rng.uniform(size=shape) < density)
        exc = dataclasses.replace(dynamics.excite(ts, symmetry_basis),
                                  amplitudes=amps)
        compare_kernel_to_sampled(kernel, exc, symmetry_basis, grid)

    def test_kernel_memory(self, basis):
        # the rows are R_b^2 / r times angular fields: no orbital or
        # gradient table over the 44,160 points of the default grid
        grid = config.RunConfig.resolve(config.load_config()).make_grid()
        tracemalloc.start()
        try:
            observables.scan_kernel(basis, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    @pytest.mark.parametrize("which", ["basis", "symmetry_basis"])
    def test_magnetics_from_traces(self, request, which, monkeypatch):
        # moment and center field come from Tr(D^T L) and two band-3 radial
        # sums, not from integrals of the sampled row fields
        def refuse(*args, **kwargs):
            raise AssertionError("scan_kernel integrated a sampled field")

        monkeypatch.setattr(observables, "magnetic_moment", refuse)
        monkeypatch.setattr(observables, "b_field_center", refuse)
        run = config.RunConfig.resolve(config.load_config())
        grid = run.make_grid()
        kernel = observables.scan_kernel(request.getfixturevalue(which), grid)
        # every row's B / m is 2 (mu0/4pi) kappa_3 / mu_3
        nodes = grid.radial_nodes
        rad2 = run.basis.shells.values(nodes)[2] ** 2 * grid.radial_weights
        ratio = 2.0 * MU0_OVER_4PI_AU * np.sum(
            rad2[nodes >= run.r_cut] / nodes[nodes >= run.r_cut] ** 3) \
            / np.sum(rad2)
        assert ratio * AU_BFIELD_T * 1e6 == pytest.approx(91414.86, abs=0.005)
        assert np.abs(kernel.moment).max() > 0.0
        assert np.allclose(kernel.b_center, ratio * kernel.moment,
                           rtol=1e-14, atol=0.0)

    def test_refuses_other_targets(self, basis, grid, exc_m1):
        kernel = observables.scan_kernel(basis, grid)
        kernel = dataclasses.replace(kernel, targets=kernel.targets[:-1])
        with pytest.raises(ValueError):
            kernel.observables(exc_m1)
