import math

import numpy as np
import pytest

from vortexcage import numerics


def rodrigues_assoc_legendre(l, m, x):
    """Normalized associated Legendre by direct polynomial differentiation.

    Builds P_l from the Legendre coefficient basis, applies d^m/dx^m, the
    (1-x^2)^(m/2) factor, the Condon-Shortley phase and the orthonormal
    spherical-harmonic prefactor.  Recurrence-free oracle.
    """
    coeffs = np.zeros(l + 1)
    coeffs[l] = 1.0
    poly = np.polynomial.legendre.Legendre(coeffs).convert(kind=np.polynomial.Polynomial)
    for _ in range(abs(m)):
        poly = poly.deriv()
    ma = abs(m)
    val = (-1.0) ** ma * (1.0 - x * x) ** (ma / 2.0) * poly(x)
    norm = math.sqrt((2 * l + 1) / (4 * math.pi)
                     * math.factorial(l - ma) / math.factorial(l + ma))
    val = norm * val
    if m < 0:
        val = (-1.0) ** ma * val
    return val


def assoc_legendre(l, m, x):
    """Ptilde_lm = Q_l|m| (1-x^2)^(|m|/2) from ``legendre_q_tables``, with
    Ptilde_{l,-m} = (-1)^m Ptilde_{l,m}."""
    x = np.asarray(x, dtype=float)
    q, _ = numerics.legendre_q_tables(l, x)
    ma = abs(m)
    val = q[l, ma] * (1.0 - x * x) ** (ma / 2.0)
    return (-1.0) ** ma * val if m < 0 else val


def laguerre_series(p, alpha, x):
    """L_p^alpha by the explicit binomial series (independent oracle)."""
    total = 0.0
    for k in range(p + 1):
        total += ((-1.0) ** k * math.comb(p + alpha, p - k)
                  * x**k / math.factorial(k))
    return total


class TestAssocLegendre:
    def test_y00_constant(self):
        assert assoc_legendre(0, 0, 0.3) == pytest.approx(
            1.0 / math.sqrt(4 * math.pi), abs=1e-15)

    def test_y10_pole(self):
        assert assoc_legendre(1, 0, 1.0) == pytest.approx(
            math.sqrt(3.0 / (4 * math.pi)), abs=1e-15)

    def test_matches_rodrigues_oracle(self):
        assert assoc_legendre(5, 3, 0.42) == pytest.approx(
            rodrigues_assoc_legendre(5, 3, 0.42), rel=1e-12)
        rng = np.random.default_rng(11)
        for _ in range(20):
            l = int(rng.integers(0, 17))
            m = int(rng.integers(-l, l + 1)) if l else 0
            x = float(rng.uniform(-1, 1))
            assert assoc_legendre(l, m, x) == pytest.approx(
                rodrigues_assoc_legendre(l, m, x), rel=1e-10, abs=1e-12)


class TestLaguerre:
    def test_p0_is_one(self):
        assert numerics.laguerre(0, 3, 7.5) == 1.0

    def test_p1(self):
        # L_1^a(x) = 1 + a - x by the series oracle
        assert laguerre_series(1, 2, 1.0) == 2.0
        assert numerics.laguerre(1, 2, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_zero_argument(self):
        assert numerics.laguerre(2, 0, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_series_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            p = int(rng.integers(0, 9))
            a = int(rng.integers(0, 41))
            x = float(rng.uniform(0, 50))
            assert numerics.laguerre(p, a, x) == pytest.approx(
                laguerre_series(p, a, x), rel=1e-9, abs=1e-9)

    def test_three_term_recurrence_residual(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = int(rng.integers(2, 9))
            a = int(rng.integers(0, 41))
            x = float(rng.uniform(0, 40))
            lhs = p * numerics.laguerre(p, a, x)
            rhs = (2 * p - 1 + a - x) * numerics.laguerre(p - 1, a, x) \
                - (p - 1 + a) * numerics.laguerre(p - 2, a, x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_invalid(self):
        with pytest.raises(ValueError):
            numerics.laguerre(-1, 0, 1.0)


class TestGrid:
    def test_weights_positive(self, grid):
        assert np.all(grid.radial_weights > 0)
        assert np.all(grid.angular_weights > 0)

    def test_angular_weights_sum(self, grid):
        assert float(grid.angular_weights.sum()) == pytest.approx(
            4 * math.pi, rel=1e-12)

    def test_ball_volume(self, grid):
        vol = float(grid.integrate(np.ones(len(grid.points))))
        assert vol == pytest.approx(4 * math.pi / 3 * 26.8**3, rel=1e-10)

    def test_shell_volume(self):
        g = numerics.build_grid(5.0, 9.0, 32, 8)
        vol = float(g.integrate(np.ones(len(g.points))))
        assert vol == pytest.approx(4 * math.pi / 3 * (9**3 - 5**3), rel=1e-10)

    def test_halving_radial_nodes_keeps_volume(self):
        a = numerics.build_grid(5.0, 9.0, 64, 8)
        b = numerics.build_grid(5.0, 9.0, 32, 8)
        va = float(a.integrate(np.ones(len(a.points))))
        vb = float(b.integrate(np.ones(len(b.points))))
        assert abs(va - vb) / va < 1e-8

    def test_harmonic_orthonormality(self, grid):
        w = grid.angular_weights
        d = grid.angular_nodes
        ct = d[:, 2]
        phi = np.arctan2(d[:, 1], d[:, 0])
        y21 = assoc_legendre(2, 1, ct) * np.exp(1j * phi)
        y32 = assoc_legendre(3, 2, ct) * np.exp(2j * phi)
        y10 = assoc_legendre(1, 0, ct)
        assert float(np.sum(w * np.abs(y21) ** 2)) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.sum(w * y32.conj() * y10)) < 1e-12

    def test_gram_identity_all_l(self, grid):
        lmax = 9
        d = grid.angular_nodes
        ct = d[:, 2]
        phi = np.arctan2(d[:, 1], d[:, 0])
        funcs = []
        for l in range(lmax + 1):
            for m in range(-l, l + 1):
                funcs.append(assoc_legendre(l, m, ct)
                             * np.exp(1j * m * phi))
        mat = np.array(funcs)
        gram = (mat.conj() * grid.angular_weights) @ mat.T
        assert np.abs(gram - np.eye(len(funcs))).max() < 1e-10

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            numerics.build_grid(0.0, 10.0, 8, 12)
        with pytest.raises(ValueError):
            numerics.build_grid(0.0, 10.0, 32, 10, l_basis_max=5)
        with pytest.raises(ValueError):
            numerics.build_grid(5.0, 5.0, 32, 12)
        with pytest.raises(ValueError):
            numerics.build_grid(-1.0, 5.0, 32, 12)

