import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import example, given, settings, strategies as st

from vortexcage import numerics, structure
from vortexcage.units import HARTREE_EV


def tabulated_harmonic(m, l, theta, phi):
    if hasattr(scipy.special, "sph_harm_y"):
        return scipy.special.sph_harm_y(l, m, theta, phi)
    return scipy.special.sph_harm(m, l, phi, theta)


def band2():
    return structure.default_bands()[1]


def band3():
    return structure.default_bands()[2]


class TestParabolicEnergy:
    def test_l0_is_offset(self):
        assert structure.parabolic_energy(band2(), 0, 6.7) == band2().energy_offset

    def test_l1(self):
        e = structure.parabolic_energy(band2(), 1, 6.7)
        assert e - band2().energy_offset == pytest.approx(
            2.0 / (2 * 6.7**2), rel=1e-12)
        assert e - band2().energy_offset == pytest.approx(0.022277, abs=5e-7)

    def test_l5_l4_spacing(self):
        e5 = structure.parabolic_energy(band2(), 5, 6.7)
        e4 = structure.parabolic_energy(band2(), 4, 6.7)
        assert e5 - e4 == pytest.approx(10.0 / (2 * 6.7**2), rel=1e-12)
        assert HARTREE_EV * (e5 - e4) == pytest.approx(3.0307, abs=2e-4)

    def test_range_error(self):
        with pytest.raises(ValueError):
            structure.parabolic_energy(band2(), 6, 6.7)


class TestBuildBasis:
    def test_band_counts(self, basis):
        b2 = basis.band_orbitals(2)
        b3 = basis.band_orbitals(3)
        assert len(b2) == 36
        assert sum(o.occupied for o in b2) == 30
        assert len(b3) == 16
        assert not any(o.occupied for o in b3)

    def test_partial_shell_lowest_m(self, basis):
        occ5 = sorted(o.lam for o in basis.band_orbitals(2)
                      if o.l == 5 and o.occupied)
        assert occ5 == [-2, -1, 0, 1, 2]

    def test_zero_electron_config(self):
        bands = tuple(
            structure.BandSpec(n=b.n, energy_offset=b.energy_offset,
                               l_max=b.l_max, shell_radius=b.shell_radius,
                               shell_width=b.shell_width, electron_count=0)
            for b in structure.default_bands())
        b = structure.build_basis(bands)
        assert not any(o.occupied for o in b.orbitals)

    def test_occupied_electron_count(self, basis):
        occupied = 2 * sum(o.occupied for o in basis.orbitals)
        expected = sum(b.electron_count for b in basis.bands)
        assert occupied == expected

    def test_odd_electrons_rejected(self):
        bands = list(structure.default_bands())
        bands[1] = structure.BandSpec(n=2, energy_offset=-0.3, l_max=5,
                                      shell_radius=6.7, shell_width=0.9,
                                      electron_count=59)
        with pytest.raises(ValueError):
            structure.build_basis(tuple(bands))

    def test_overfill_rejected(self):
        bands = list(structure.default_bands())
        bands[2] = structure.BandSpec(n=3, energy_offset=0.0, l_max=3,
                                      shell_radius=6.7, shell_width=3.0,
                                      electron_count=40)
        with pytest.raises(ValueError):
            structure.build_basis(tuple(bands))

    def test_energies_nondecreasing_in_l(self, basis):
        for n in (1, 2, 3):
            orbs = basis.band_orbitals(n)
            energies = [o.energy for o in sorted(orbs, key=lambda o: o.l)]
            assert all(e2 >= e1 - 1e-15
                       for e1, e2 in zip(energies, energies[1:]))


def radial_profile(band, r):
    """The band's shell profile alone: a one-shell RadialShellSet."""
    shells = structure.RadialShellSet([band.shell_radius], [band.shell_width])
    return shells.values(r)[0]


class TestRadialProfile:
    def test_normalized(self):
        r, w = numerics.gauss_legendre(400, 0.0, 40.0)
        for band in structure.default_bands():
            prof = radial_profile(band, r)
            norm = float(np.sum(w * r * r * prof**2))
            assert norm == pytest.approx(1.0, abs=1e-9)

    def test_peak_location(self):
        # 1-D scan oracle for argmax of r*|R(r)|.  The r weight shifts the
        # maximum to R + sigma^2/R, so the sigma/10 locality bound applies
        # in the narrow-shell regime; wider shells are checked against the
        # analytic shift.
        r = np.linspace(0.01, 30.0, 300001)
        narrow = structure.BandSpec(n=2, energy_offset=-0.3, l_max=5,
                                    shell_radius=6.7, shell_width=0.2,
                                    electron_count=60)
        for band in (*structure.default_bands(), narrow):
            prof = radial_profile(band, r)
            peak = r[np.argmax(r * np.abs(prof))]
            shift = band.shell_width**2 / band.shell_radius
            if band.shell_width <= band.shell_radius / 10.0:
                assert abs(peak - band.shell_radius) < band.shell_width / 10.0
            assert abs(peak - (band.shell_radius + shift)) < \
                max(1e-3, 0.2 * shift)

    def test_diffuse_band_larger_mean_radius(self):
        r, w = numerics.gauss_legendre(400, 0.0, 40.0)
        means = []
        for band in structure.default_bands()[1:]:
            prof = radial_profile(band, r)
            means.append(float(np.sum(w * r**3 * prof**2)))
        assert means[1] > means[0]

    @staticmethod
    def _quad(f, lower, epsabs=0.0):
        return scipy.integrate.quad(f, lower, np.inf, epsabs=epsabs,
                                    epsrel=1e-13, limit=200)[0]

    @pytest.mark.parametrize("r_max", [13.4, 16.75, 20.1, 26.8])
    def test_tail_norms_match_quadrature(self, basis, r_max):
        # r_max_factor 2, 2.5, 3 and 4 of the 6.7 bohr shells
        shells = basis.shells
        ref = np.array([self._quad(
            lambda r, b=b: r * r * shells.values([r])[b, 0] ** 2, r_max)
            for b in range(len(basis.bands))])
        tail = shells.tail_norms(r_max)
        assert np.all(np.abs(tail - ref) <= 1e-12 * ref)

    def test_profiles_orthonormal_by_quadrature(self, basis):
        shells = basis.shells
        n = len(basis.bands)
        gram = np.array([[self._quad(
            lambda r, i=i, j=j: r * r * np.prod(shells.values([r])[[i, j], 0]),
            0.0, epsabs=1e-14) for j in range(n)] for i in range(n)])
        assert np.abs(gram - np.eye(n)).max() <= 1e-13

    def test_gram_schmidt_is_sequential(self, basis):
        # band i mixes only the Gaussians of bands <= i, so the narrow
        # band-1 shell keeps its own tail
        assert np.all(np.triu(basis.shells.ortho, 1) == 0.0)


def evaluate(orb, basis, point):
    """Value and gradient of one orbital at one point."""
    psi, grad = structure.orbital_tables(basis, [orb],
                                         np.reshape(point, (1, 3)))
    return complex(psi[0, 0]), grad[0, 0]


class TestEvaluateOrbital:
    def test_spherical_symmetry_l0(self, basis):
        orb = next(o for o in basis.band_orbitals(2) if o.l == 0)
        a = evaluate(orb, basis, np.array([3.0, 0.0, 0.0]))[0]
        b = evaluate(orb, basis, np.array([0.0, -2.1, 2.142428528562855]))[0]
        assert abs(np.linalg.norm([0.0, -2.1, 2.142428528562855]) - 3.0) < 1e-12
        assert a == pytest.approx(b, rel=1e-12)

    def test_matches_tabulated_harmonic(self, basis):
        orb = next(o for o in basis.band_orbitals(2)
                   if o.l == 2 and o.lam == 1)
        rng = np.random.default_rng(3)
        rad = basis.shells.values
        for _ in range(10):
            p = rng.uniform(-1, 1, 3)
            p *= rng.uniform(3.0, 12.0) / np.linalg.norm(p)
            r = np.linalg.norm(p)
            theta = math.acos(p[2] / r)
            phi = math.atan2(p[1], p[0])
            expected = rad(np.array([r]))[orb.band_pos][0] \
                * tabulated_harmonic(1, 2, theta, phi)
            got = evaluate(orb, basis, p)[0]
            assert got == pytest.approx(complex(expected), rel=1e-12)

    def test_far_tail(self, basis):
        orb = next(o for o in basis.band_orbitals(2) if o.l == 0)
        near = abs(evaluate(orb, basis, np.array([0.0, 0.0, 6.7]))[0])
        far = abs(evaluate(orb, basis, np.array([0.0, 0.0, 67.0]))[0])
        assert far < 1e-6 * near


class TestEvaluateGradient:
    def test_matches_finite_differences(self, basis):
        rng = np.random.default_rng(7)
        orbs = [o for o in basis.orbitals if o.band in (2, 3)]
        for _ in range(50):
            orb = orbs[rng.integers(0, len(orbs))]
            p = rng.uniform(-1, 1, 3)
            p *= rng.uniform(0.5, 20.0) / np.linalg.norm(p)
            g_an = evaluate(orb, basis, p)[1]
            # central differences on the stencil p + h e_i, p - h e_i
            h = 1e-4
            psi, _ = structure.orbital_tables(
                basis, [orb], p + h * np.vstack([np.eye(3), -np.eye(3)]))
            g_fd = (psi[0, :3] - psi[0, 3:]) / (2.0 * h)
            scale = max(np.abs(g_an).max(), 1e-12)
            assert np.abs(g_an - g_fd).max() / scale < 1e-6

    def test_l0_purely_radial(self, basis):
        orb = next(o for o in basis.band_orbitals(3) if o.l == 0)
        p = np.array([2.0, -3.0, 1.5])
        g = evaluate(orb, basis, p)[1]
        rhat = p / np.linalg.norm(p)
        transverse = g - (g @ rhat) * rhat
        assert np.abs(transverse).max() < 1e-14 * np.abs(g).max()

    def test_conjugation_symmetry(self, basis):
        # psi built from conjugated, m-reversed coefficients equals conj(psi),
        # so its gradient must equal the conjugated gradient
        orb = next(o for o in basis.band_orbitals(3) if o.l == 2)
        rng = np.random.default_rng(23)
        coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
        coeffs /= np.linalg.norm(coeffs)
        # conj(sum_m c_m Y_lm) = sum_m [(-1)^m conj(c_{-m})] Y_lm
        signs = np.array([(-1.0) ** m for m in range(-2, 3)])
        conj_coeffs = signs * coeffs.conj()[::-1]
        mixed = structure.Orbital(
            index=orb.index, band=orb.band, band_pos=orb.band_pos, l=orb.l,
            rep_label="mix", lam=0, energy=orb.energy, coeffs=coeffs,
            occupied=False)
        partner = structure.Orbital(
            index=orb.index, band=orb.band, band_pos=orb.band_pos, l=orb.l,
            rep_label="mix*", lam=0, energy=orb.energy, coeffs=conj_coeffs,
            occupied=False)
        p = np.array([1.2, 4.0, -2.0])
        psi_m, g_m = evaluate(mixed, basis, p)
        psi_p, g_p = evaluate(partner, basis, p)
        assert psi_p == pytest.approx(psi_m.conjugate(), rel=1e-12)
        assert np.abs(g_p - g_m.conj()).max() < 1e-12 * np.abs(g_m).max()

    def test_origin_regularized(self, basis):
        for orb in basis.orbitals[:6]:
            g = evaluate(orb, basis, np.zeros(3))[1]
            assert np.all(np.isfinite(g))


def _random_block(basis, l, band_pos, seed):
    """Orbitals with angular momentum l whose coefficient rows form a
    random unitary (2l+1) x (2l+1) matrix."""
    rng = np.random.default_rng(seed)
    n = 2 * l + 1
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    template = next(o for o in basis.orbitals if o.band_pos == band_pos)
    return [structure.Orbital(index=k, band=template.band, band_pos=band_pos,
                              l=l, rep_label="mix", lam=k, energy=0.0,
                              coeffs=row, occupied=False)
            for k, row in enumerate(q)]


_coord = st.floats(-15.0, 15.0, allow_nan=False)
_point = st.one_of(st.tuples(_coord, _coord, _coord),
                   st.tuples(st.just(0.0), st.just(0.0), _coord),  # poles
                   st.just((0.0, 0.0, 0.0)))


class TestEvaluationLayouts:
    @settings(max_examples=60, deadline=None)
    @given(l=st.integers(0, 3), band_pos=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1),
           points=st.lists(_point, min_size=1, max_size=8))
    # 6e-8 bohr off the z axis: sin theta must not round to 0 there
    @example(l=1, band_pos=0, seed=0, points=[(0.0, 2.0 ** -24, 4.49609375)])
    # radii whose squares underflow: the direction must still be +z, and a
    # point this close is not the origin
    @example(l=1, band_pos=0, seed=0,
             points=[(0.0, 0.0, 3.793414351928955e-159)])
    @example(l=1, band_pos=0, seed=0, points=[(0.0, 0.0, 5.8e-164)])
    @example(l=1, band_pos=0, seed=0, points=[(0.0, 0.0, 5e-324),
                                              (0.0, 0.0, 1.0)])
    def test_table_coefficients_match_tabulated_harmonic(
            self, basis, l, band_pos, seed, points):
        orbs = _random_block(basis, l, band_pos, seed)
        coeffs = np.array([o.coeffs for o in orbs])

        def radius(p):
            # hypot, and the origin below the smallest normal float (where
            # 1/r overflows), as in orbital_tables
            r = np.hypot(np.hypot(p[:, 0], p[:, 1]), p[:, 2])
            return np.where(r >= np.finfo(float).tiny, r, 0.0)

        def reference(p):
            r = radius(p)
            theta = np.arctan2(np.hypot(p[:, 0], p[:, 1]), p[:, 2])
            phi = np.arctan2(p[:, 1], p[:, 0])
            ylm = np.array([tabulated_harmonic(m, l, theta, phi)
                            for m in range(-l, l + 1)])
            return basis.shells.values(r)[band_pos] * (coeffs @ ylm)

        pts = np.array(points, dtype=float)
        psi, grad = structure.orbital_tables(basis, orbs, pts)
        r = radius(pts)
        expected = reference(pts)
        # r = 0 keeps only the l = 0 part (regularized limit)
        expected[:, r == 0.0] *= l == 0
        # |sum_m C_m Y_lm| <= sqrt((2l+1)/4pi) for unit coefficient rows
        bound = np.abs(basis.shells.values(r)[band_pos]) \
            * math.sqrt((2 * l + 1) / (4 * math.pi))
        assert np.all(np.abs(psi - expected) <= 1e-12 * bound + 1e-300)
        # fourth-order central differences of the reference
        step = 1e-3
        fd = np.stack([(8 * (reference(pts + e) - reference(pts - e))
                        - reference(pts + 2 * e) + reference(pts - 2 * e))
                       / (12 * step) for e in step * np.eye(3)], axis=-1)
        far = r >= 1.0
        scale = np.abs(grad).max() + 1e-300
        assert np.all(np.abs(grad - fd)[:, far] <= 1e-6 * scale)

    def test_origin_gradient_limit(self, basis):
        slope = basis.shells.derivatives(np.zeros(1))[2, 0]
        axes = [(math.pi / 2, 0.0), (math.pi / 2, math.pi / 2), (0.0, 0.0)]
        for l in range(4):
            orbs = _random_block(basis, l, 2, seed=l)
            coeffs = np.array([o.coeffs for o in orbs])
            _, grad = structure.orbital_tables(basis, orbs, np.zeros((1, 3)))
            if l == 0:      # radial slope along the +z axis
                expected = coeffs * tabulated_harmonic(0, 0, 0.0, 0.0) * [0, 0, 1]
            elif l == 1:    # r Y_1m is linear: its gradient is Y_1m on the axes
                expected = coeffs @ [[tabulated_harmonic(m, 1, th, ph)
                                      for th, ph in axes] for m in (-1, 0, 1)]
            else:
                expected = np.zeros((len(orbs), 3))
            assert np.allclose(grad[:, 0], slope * expected, rtol=1e-12, atol=0)


def tabulated_gram(basis, grid):
    psi, _ = structure.orbital_tables(basis, basis.orbitals, grid.points)
    return (psi.conj() * grid.weights) @ psi.T


class TestBasisGram:
    def test_identity(self, basis, grid):
        gram = tabulated_gram(basis, grid)
        assert np.abs(gram - np.eye(len(basis.orbitals))).max() < 1e-8

    @pytest.mark.parametrize("which", ["basis", "symmetry_basis"])
    def test_factored_matches_tabulated(self, request, grid, which):
        # the symmetry table gives l = 2 coefficient blocks that are not
        # one-hot in m
        b = request.getfixturevalue(which)
        factored = structure.product_grid_gram(b, b.orbitals, grid)
        assert np.abs(factored - tabulated_gram(b, grid)).max() <= 1e-13


class TestSymmetryTable:
    def _write(self, tmp_path, text):
        path = tmp_path / "table.dat"
        path.write_text(text)
        return path

    def test_identity_table_matches_spherical(self, tmp_path, basis):
        lines = ["# identity rows for l = 1"]
        for m in (-1, 0, 1):
            lines.append(f"1 m{m:+d} {m} {m} 1.0 0.0")
        table = structure.load_symmetry_coefficients(
            self._write(tmp_path, "\n".join(lines)))
        bands = structure.default_bands()
        b = structure.build_basis(bands, symmetry_table=table)
        ref = structure.build_basis(bands)
        for o1, o2 in zip(b.orbitals, ref.orbitals):
            assert o1.l == o2.l and o1.band == o2.band
            assert np.allclose(o1.coeffs, o2.coeffs)
            assert o1.occupied == o2.occupied

    def test_real_combination_on_meridian(self, tmp_path):
        s = 1.0 / math.sqrt(2.0)
        text = "\n".join([
            f"2 eg 0 2 {s} 0.0",
            f"2 eg 0 -2 {s} 0.0",
            f"2 eg 1 2 {s} 0.0",
            f"2 eg 1 -2 {-s} 0.0",
            "2 t2g 0 1 1.0 0.0",
            "2 t2g 1 -1 1.0 0.0",
            "2 t2g 2 0 1.0 0.0",
        ])
        table = structure.load_symmetry_coefficients(self._write(tmp_path, text))
        b = structure.build_basis(structure.default_bands(),
                                  symmetry_table=table)
        orb = next(o for o in b.band_orbitals(3)
                   if o.l == 2 and o.rep_label == "eg" and o.lam == 0)
        # mixing m = +-2 equally gives a real value on the phi = 0 meridian
        for z in (0.5, 2.0, 5.0):
            val = evaluate(orb, b, np.array([4.0, 0.0, z]))[0]
            assert abs(val.imag) < 1e-14 * max(abs(val), 1e-30)

    def test_malformed_row_names_line(self, tmp_path):
        path = self._write(tmp_path, "# header\n2 eg 0 2 0.5\n")
        with pytest.raises(ValueError, match=":2"):
            structure.load_symmetry_coefficients(path)

    def test_unnormalized_rejected(self, tmp_path):
        rows = ["2 eg 0 2 0.9 0.0"]
        rows += [f"2 t2g {i} {m} 1.0 0.0" for i, m in enumerate((-2, -1, 0, 1))]
        path = self._write(tmp_path, "\n".join(rows))
        with pytest.raises(ValueError, match="deviates"):
            structure.load_symmetry_coefficients(path)

    def test_incomplete_block_rejected(self, tmp_path):
        path = self._write(tmp_path, "1 a 0 0 1.0 0.0")
        with pytest.raises(ValueError, match="substates"):
            structure.load_symmetry_coefficients(path)


class TestAngularMomentum:
    @pytest.mark.parametrize("l", range(10))
    def test_algebra(self, l):
        lx, ly, lz = structure.angular_momentum(l)
        for op in (lx, ly, lz):
            assert np.array_equal(op, op.conj().T)
        assert np.abs(lx @ ly - ly @ lx - 1j * lz).max() <= 1e-14 * l * l
        assert np.abs(lx @ lx + ly @ ly + lz @ lz
                      - l * (l + 1) * np.eye(2 * l + 1)).max() \
            <= 1e-14 * l * l

    def test_matches_harmonic_tables(self):
        # L Y = -i r-hat x (r grad Y): the matrices are the sphere integrals
        # of conj(Y_lm) -i r-hat x T_lm' over the tables' own harmonics, so
        # the phase convention of L_+ agrees with theirs
        lmax = 9
        dirs, w = numerics.angular_rule(2 * lmax + 2)
        y, dth, dph, that, phat = structure.harmonic_frame(lmax, dirs)
        tang = dth[..., None] * that + dph[..., None] * phat
        l_y = -1j * np.cross(dirs, tang)
        for l in range(lmax + 1):
            rows = slice(l * l, (l + 1) ** 2)
            ref = np.einsum("mn,n,knc->cmk", y[rows].conj(), w, l_y[rows])
            assert np.abs(structure.angular_momentum(l) - ref).max() < 1e-12


def _exp_harmonic_frame(lmax, dirs, pole_phi=0.0):
    """The tables and frame by the formula the kernel replaced: phi from
    arctan2 (pole_phi on the z axis, where arctan2 reads the signs of the
    zeros), e^{im phi} as a complex exp for every m = -lmax..lmax gathered
    into the rows, and each m < 0 row from its own (-1)^m phase."""
    ct = np.clip(dirs[:, 2], -1.0, 1.0)
    st = np.hypot(dirs[:, 0], dirs[:, 1])
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])
    if pole_phi is not None:
        phi = np.where(st > 0.0, phi, pole_phi)
    q, dq = numerics.legendre_q_tables(lmax, ct)
    ls, ms = np.array([(l, m) for l in range(lmax + 1)
                       for m in range(-l, l + 1)]).T
    am = np.abs(ms)
    spow = st ** np.arange(lmax + 1)[:, None]
    phase = np.exp(1j * np.outer(np.arange(-lmax, lmax + 1), phi))[ms + lmax]
    sign = np.where(ms < 0, (-1.0) ** am, 1.0)[:, None]
    qa, dqa = sign * q[ls, am], sign * dq[ls, am]
    s_lower = spow[np.maximum(am - 1, 0)]
    y = phase * (qa * spow[am])
    dth = phase * (-dqa * spow[am] * st + am[:, None] * ct * s_lower * qa)
    dph = 1j * phase * (ms[:, None] * qa * s_lower)
    that = np.stack([ct * np.cos(phi), ct * np.sin(phi), -st], axis=1)
    phat = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=1)
    return y, dth, dph, that, phat


def _kernel_directions():
    rng = np.random.default_rng(17)
    rand = rng.normal(size=(300, 3))
    off = 2.0 ** -24
    special = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
               (-0.0, 0.0, 1.0), (0.0, -0.0, -1.0), (-0.0, -0.0, 1.0),
               (-0.0, -0.0, -1.0), (-0.0, 0.6, 0.8), (0.6, -0.0, -0.8),
               (0.0, off, math.sqrt(1.0 - off * off)),
               (-off, 0.0, -math.sqrt(1.0 - off * off)),
               (3e-320, 1e-320, 1.0), (-5e-324, 5e-324, -1.0),
               (1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
    return np.vstack([rand / np.linalg.norm(rand, axis=1)[:, None],
                      np.array(special)])


class TestHarmonicKernel:
    @pytest.mark.parametrize("lmax", [0, 1, 2, 3, 5, 9])
    def test_matches_exp_formula(self, lmax):
        # the m >= 0 rows by powers of e^{i phi} and the m < 0 rows by
        # conjugation agree with the exp-based tables, poles and signed
        # zeros included (phi = 0 on the axis in both)
        dirs = _kernel_directions()
        new = structure.harmonic_frame(lmax, dirs)
        ref = _exp_harmonic_frame(lmax, dirs)
        for got, want in zip(new[:3], ref[:3]):
            assert got.shape == want.shape == ((lmax + 1) ** 2, len(dirs))
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        for got, want in zip(new[3:], ref[3:]):
            assert np.abs(got - want).max() <= 1e-14

    @pytest.mark.parametrize("lmax", [1, 3, 9])
    def test_tangential_gradient_ignores_pole_convention(self, lmax):
        # on the axis arctan2 reads phi = 0, pi or -pi from the signs of the
        # zeros; the tangential gradient dth theta-hat + dph phi-hat is the
        # same vector whichever phi the tables and the frame share
        dirs = _kernel_directions()
        y, dth, dph, that, phat = structure.harmonic_frame(lmax, dirs)
        got = dth[..., None] * that + dph[..., None] * phat
        for pole_phi in (None, 0.5):
            ry, rdth, rdph, rthat, rphat = _exp_harmonic_frame(
                lmax, dirs, pole_phi)
            want = rdth[..., None] * rthat + rdph[..., None] * rphat
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            assert np.abs(y - ry).max() <= 1e-14 * np.abs(ry).max()


class TestDegenerateGroups:
    def test_grouping(self, basis):
        unocc = basis.band_orbitals(3)
        groups = structure.degenerate_groups(unocc, 1e-6)
        sizes = sorted(len(g) for g in groups)
        assert sizes == [1, 3, 5, 7]
