import dataclasses
import math

import numpy as np
import pytest

from vortexcage import beam, coupling, numerics, structure

from conftest import WAIST, make_pulse


class UniformField:
    """Constant real A_x stub (matches the field duck interface)."""

    def __init__(self, amplitude=1.0):
        self.amplitude = amplitude

    def spatial_amplitude(self, points):
        n = len(np.atleast_2d(points))
        return (np.full(n, self.amplitude, dtype=complex),
                np.zeros(n, dtype=complex))


def apply_operator(field, orbitals, basis, points):
    """-(i/2)(dA_x/dx) psi - i A_x dpsi/dx of each orbital, assembled
    pointwise at (n, 3) points: (n_orb, n_pts)."""
    a_x, div = field.spatial_amplitude(points)
    psi, grad = structure.orbital_tables(basis, orbitals, points)
    return -0.5j * div * psi - 1j * a_x * grad[:, :, 0]


class TestApplyInteraction:
    def test_constant_field_reduces_to_gradient_term(self, basis):
        # zero divergence: H psi = -i a dpsi/dx exactly
        field = UniformField(0.8)
        orb = next(o for o in basis.band_orbitals(2) if o.l == 1)
        pts = np.array([[1.0, 2.0, -0.5], [4.0, -3.0, 2.0]])
        got = apply_operator(field, [orb], basis, pts)[0]
        _, grad = structure.orbital_tables(basis, [orb], pts)
        expected = -1j * 0.8 * grad[0, :, 0]
        assert np.abs(got - expected).max() == 0.0

    def test_operator_identity_oracle(self, basis, pulse_m1):
        # independent assembly -(i/2)[d_x(A psi) + A d_x psi] with the
        # product derivative taken by finite differences
        rng = np.random.default_rng(41)
        orb = next(o for o in basis.band_orbitals(2) if o.l == 2)
        h = 2e-3
        for _ in range(50):
            pt = rng.uniform(-1, 1, 3)
            pt *= rng.uniform(3.0, 10.0) / np.linalg.norm(pt)
            got = apply_operator(pulse_m1, [orb], basis, pt[None, :])[0, 0]

            def a_psi(x):
                a = pulse_m1.spatial_amplitude(x[None, :])[0][0]
                psi, _ = structure.orbital_tables(basis, [orb], x[None, :])
                return a * psi[0, 0]

            def central(step_h):
                step = np.array([step_h, 0.0, 0.0])
                return (a_psi(pt + step) - a_psi(pt - step)) / (2 * step_h)

            # Richardson-extrapolated derivative of the product A psi
            d_apsi = (4.0 * central(h / 2) - central(h)) / 3.0
            a_here = pulse_m1.spatial_amplitude(pt[None, :])[0][0]
            _, grad = structure.orbital_tables(basis, [orb], pt[None, :])
            oracle = -0.5j * (d_apsi + a_here * grad[0, 0, 0])
            assert got == pytest.approx(oracle, rel=1e-8, abs=1e-18)

    def test_azimuthal_fourier_content(self, basis):
        # centered m=1 beam on an l=0 orbital: only e^{i0 phi} and
        # e^{i2 phi} components survive (e^{i phi} times sigma+-)
        pulse = make_pulse(1)
        orb = next(o for o in basis.band_orbitals(2) if o.l == 0)
        nphi = 32
        phi = 2 * math.pi * np.arange(nphi) / nphi
        r, z = 5.0, 2.0
        pts = np.stack([r * np.cos(phi), r * np.sin(phi),
                        np.full(nphi, z)], axis=1)
        vals = apply_operator(pulse, [orb], basis, pts)[0]
        comps = np.fft.fft(vals) / nphi
        mags = np.abs(comps)
        keep = {0, 2}
        for k in range(nphi):
            if k not in keep:
                assert mags[k] < 1e-12 * mags.max()


def raw_matrix(basis, grid, pulse):
    """Unpruned M with its targets (rows) and sources (columns)."""
    sources, targets = coupling.transition_orbitals(basis)
    mat = coupling.interaction_matrix(pulse, basis, targets, sources, grid)
    return mat, targets, sources


class TestMatrixElement:
    def test_gaussian_beam_dipole_selection(self, basis, grid):
        mat, targets, sources = raw_matrix(basis, grid, make_pulse(0))
        mmax = np.abs(mat).max()
        for jr, oj in enumerate(targets):
            for kc, ok in enumerate(sources):
                if oj.lam - ok.lam not in (-1, 1):
                    assert abs(mat[jr, kc]) < 1e-12 * mmax

    def test_vortex_m2_selection(self, basis, grid):
        mat, targets, sources = raw_matrix(basis, grid, make_pulse(2))
        mmax = np.abs(mat).max()
        for jr, oj in enumerate(targets):
            for kc, ok in enumerate(sources):
                if oj.lam - ok.lam not in (1, 3):
                    assert abs(mat[jr, kc]) < 1e-12 * mmax

    def test_parity_selection(self, basis, grid):
        for m_oam in (1, 2):
            mat, targets, sources = raw_matrix(basis, grid, make_pulse(m_oam))
            mmax = np.abs(mat).max()
            for jr, oj in enumerate(targets):
                for kc, ok in enumerate(sources):
                    if (ok.l + oj.l + abs(m_oam) + 1) % 2 == 1:
                        assert abs(mat[jr, kc]) < 1e-10 * mmax

    def test_offset_beam_dipole_dominance(self, basis, grid):
        # at rho0 = rho_max the molecule sees a locally plane wave, so
        # |delta l| = 1 entries dominate all others by >= 10x
        pulse = make_pulse(1, rho0=beam.rho_max(1, make_pulse(1).waist))
        mat, targets, sources = raw_matrix(basis, grid, pulse)
        dip, rest = 0.0, 0.0
        for jr, oj in enumerate(targets):
            for kc, ok in enumerate(sources):
                v = abs(mat[jr, kc])
                if abs(oj.l - ok.l) == 1:
                    dip = max(dip, v)
                else:
                    rest = max(rest, v)
        assert dip >= 10.0 * rest


class TestTransitionSet:
    def test_table_shape(self, ts_m1):
        assert ts_m1.matrix.shape == (16, 30)
        assert len(ts_m1.occupied) == 30
        assert len(ts_m1.unoccupied) == 16

    def test_zero_amplitude(self, basis, grid):
        pulse = make_pulse(1, a0=0.0)
        ts = coupling.build_transition_set(basis, grid, pulse)
        assert not np.any(ts.matrix)

    def test_linearity_in_a0(self, basis, grid):
        m1 = raw_matrix(basis, grid, make_pulse(2, a0=0.03))[0]
        m2 = raw_matrix(basis, grid, make_pulse(2, a0=0.06))[0]
        assert np.abs(m2 - 2.0 * m1).max() == 0.0

    def test_pruning_bookkeeping(self, basis, grid):
        ts = coupling.build_transition_set(basis, grid, make_pulse(1))
        scale = ts.max_abs()
        for jr, kc in ts.pruned:
            assert ts.matrix[jr, kc] == 0.0
        unpruned = np.abs(ts.matrix[np.abs(ts.matrix) > 0.0])
        if unpruned.size:
            assert unpruned.min() >= 1e-14 * scale

    def test_static_field_hermitian(self, basis, grid):
        field = UniformField(0.5)
        orbs = basis.band_orbitals(2) + basis.band_orbitals(3)
        mat = coupling.interaction_matrix(field, basis, orbs, orbs, grid)
        dev = np.abs(mat - mat.conj().T).max()
        assert dev < 1e-10 * np.abs(mat).max()

    def test_shared_list_tabulated_once(self, basis, grid, pulse_m1,
                                        monkeypatch):
        calls = []
        tabulate = structure.orbital_tables

        def spy(basis, orbitals, points, **kw):
            calls.append(len(orbitals))
            return tabulate(basis, orbitals, points, **kw)

        monkeypatch.setattr(structure, "orbital_tables", spy)
        orbs = basis.band_orbitals(3)
        shared = coupling.interaction_matrix(pulse_m1, basis, orbs, orbs, grid)
        separate = coupling.interaction_matrix(pulse_m1, basis, list(orbs),
                                               list(orbs), grid)
        coupling.build_transition_set(basis, grid, pulse_m1)
        assert calls == []      # the factored path tabulates no orbital
        assert np.array_equal(shared, separate)

    def test_requires_orbitals(self, grid):
        # no electrons in band 2: no transition sources
        bands = list(structure.default_bands())
        bands[1] = dataclasses.replace(bands[1], electron_count=0)
        empty = structure.build_basis(tuple(bands))
        with pytest.raises(ValueError):
            coupling.build_transition_set(empty, grid, make_pulse(1))

    def test_translation_consistency(self, basis, grid, pulse_m1):
        # substituting u = r - rho0: a beam offset by +rho0 integrated in
        # cage coordinates equals the centered beam integrated against
        # orbitals displaced to u + rho0
        rho0 = 3.0
        occ = [o for o in basis.band_orbitals(2) if o.occupied][:4]
        unocc = basis.band_orbitals(3)[:4]
        offset_pulse = make_pulse(1, rho0=rho0)
        m_offset = coupling.interaction_matrix(offset_pulse, basis, unocc,
                                               occ, grid)
        centered = make_pulse(1)
        shifted_pts = grid.points + np.array([rho0, 0.0, 0.0])
        a_x, div = centered.spatial_amplitude(grid.points)
        psi_o, grad_o = structure.orbital_tables(basis, occ, shifted_pts)
        psi_u, _ = structure.orbital_tables(basis, unocc, shifted_pts)
        applied = -0.5j * div * psi_o - 1j * a_x * grad_o[:, :, 0]
        m_shift = np.einsum("jn,n,kn->jk", psi_u.conj(), grid.weights, applied)
        scale = np.abs(m_offset).max()
        assert np.abs(m_offset - m_shift).max() < 1e-8 * scale

    def test_rotation_phase_invariance(self, basis, grid, pulse_m1, ts_m1):
        # rotating every substate about z (coefficients pick up e^{-i m a})
        # multiplies each element by a pure phase; |M| is invariant
        alpha = 0.73
        occ = [o for o in basis.band_orbitals(2) if o.occupied][:5]
        unocc = basis.band_orbitals(3)[:5]

        def rotated(orb):
            coeffs = orb.coeffs.copy()
            m = orb.lam
            coeffs[m + orb.l] *= np.exp(-1j * m * alpha)
            return structure.Orbital(
                index=orb.index, band=orb.band, band_pos=orb.band_pos,
                l=orb.l, rep_label=orb.rep_label, lam=orb.lam,
                energy=orb.energy, coeffs=coeffs, occupied=orb.occupied)

        plain = coupling.interaction_matrix(pulse_m1, basis, unocc, occ, grid)
        rot = coupling.interaction_matrix(pulse_m1, basis,
                                          [rotated(o) for o in unocc],
                                          [rotated(o) for o in occ], grid)
        assert np.abs(np.abs(rot) - np.abs(plain)).max() < \
            1e-12 * np.abs(plain).max()
        # and the phases compensate as e^{i(m_k - m_j) alpha}
        for jr, oj in enumerate(unocc):
            for kc, ok in enumerate(occ):
                expect = plain[jr, kc] * np.exp(1j * (oj.lam - ok.lam) * alpha)
                assert abs(rot[jr, kc] - expect) < 1e-12 * np.abs(plain).max()


class TestTransitionTables:
    def test_matches_pointwise_operator(self, basis, grid):
        # the factored contraction against the quadrature sum of the
        # pointwise operator, at each live set's own scale; m >= 9 lies
        # above the selection-rule ceiling (m = 8), so those sets are
        # roundoff and are held to the m = +1 scale
        sources, targets = coupling.transition_orbitals(basis)
        bra = structure.orbital_tables(basis, targets, grid.points)[0].conj()

        def deviation(pulse):
            got = raw_matrix(basis, grid, pulse)[0]
            ref = np.einsum("jn,n,kn->jk", bra, grid.weights,
                            apply_operator(pulse, sources, basis, grid.points))
            return np.abs(got - ref).max(), np.abs(ref).max()

        live = [make_pulse(m) for m in range(9)]
        live.append(make_pulse(1, rho0=beam.rho_max(1, WAIST)))
        for pulse in live:
            dev, scale = deviation(pulse)
            assert scale > 0.0
            assert dev <= 1e-13 * scale
        floor = deviation(make_pulse(1))[1]
        for m in range(9, 13):
            dev, scale = deviation(make_pulse(m))
            assert scale < 1e-20 * floor
            assert dev <= 1e-13 * floor

    def test_reused_tables_match_fresh(self, basis, grid):
        for pulse in (make_pulse(1), make_pulse(3, rho0=40.0)):
            shared = coupling.build_transition_set(basis, grid, pulse)
            fresh = coupling.build_transition_set(basis, grid, pulse)
            assert np.array_equal(shared.matrix, fresh.matrix)
            assert shared.pruned == fresh.pruned
            assert (shared.occupied, shared.unoccupied) == \
                (fresh.occupied, fresh.unoccupied)


class TestBandPairBlocks:
    @pytest.mark.parametrize("which", ["basis", "symmetry_basis"])
    @pytest.mark.parametrize("field", ["centred", "offset", "uniform"])
    def test_matches_pointwise_operator(self, request, which, field):
        # bands 2 + 3 as rows and columns: every (row band, column band)
        # block of the factored sums against the pointwise quadrature.  Both
        # sides sum the same product grid, so a coarse one suffices.
        basis = request.getfixturevalue(which)
        field = {"centred": make_pulse(1),
                 "offset": make_pulse(1, rho0=beam.rho_max(1, WAIST)),
                 "uniform": UniformField(0.7)}[field]
        grid = numerics.build_grid(0.0, 26.8, 40, 16)
        orbs = basis.band_orbitals(2) + basis.band_orbitals(3)
        got = coupling.interaction_matrix(field, basis, orbs, orbs, grid)
        bra = structure.orbital_tables(basis, orbs, grid.points)[0].conj()
        ref = np.einsum("jn,n,kn->jk", bra, grid.weights,
                        apply_operator(field, orbs, basis, grid.points))
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
