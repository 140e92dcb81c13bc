import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import comb, eval_legendre, i0e

from grusslab import special as sp
from grusslab import operators as ops


def phi_oracle(n, x):
    """Direct squared-basis sum with exact binomials."""
    return sum(
        (comb(n, k, exact=True) * x ** k * (1 - x) ** (n - k)) ** 2
        for k in range(n + 1)
    )


def legendre_sum_oracle(n, y):
    """Explicit binomial-square sum; positive terms for y >= 1."""
    return sum(
        comb(n, k, exact=True) ** 2 * (y + 1.0) ** k * (y - 1.0) ** (n - k)
        for k in range(n + 1)
    ) / 2.0 ** n


def bessel_integral_oracle(z, m=4000):
    theta = (2.0 * np.arange(1, m + 1) - 1.0) * (math.pi / (2.0 * m))
    return float(np.mean(np.exp(-z * (1.0 + np.cos(theta)))))


class TestPhi:
    def test_half_values(self):
        assert sp.phi_bernstein(1, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert sp.phi_bernstein(2, 0.5) == pytest.approx(0.375, abs=1e-15)

    def test_endpoint_is_one(self):
        for n in (1, 9, 64):
            assert sp.phi_bernstein(n, 0.0) == 1.0

    def test_matches_direct_sum(self):
        for n in (1, 2, 5, 12):
            for x in (0.1, 0.3, 0.5, 0.8):
                assert sp.phi_bernstein(n, x) == pytest.approx(
                    phi_oracle(n, x), rel=1e-13)

    def test_bounds_and_symmetry(self):
        xs = np.linspace(0, 1, 101)
        for n in (1, 2, 8, 32, 64):
            lo = sp.central_binom_scaled(n)
            for x in xs:
                v = sp.phi_bernstein(n, float(x))
                assert 1.0 / (n + 1) - 1e-12 <= v <= 1.0 + 1e-12
                assert v >= lo - 1e-12
                assert v == pytest.approx(sp.phi_bernstein(n, float(1 - x)), abs=1e-12)

    def test_bounds_dense_grid_all_degrees(self):
        from grusslab.verify import _phi_grid
        xs = np.linspace(0, 1, 1001)
        for n in range(1, 65):
            phi = _phi_grid(n, xs)
            assert np.all(phi >= 1.0 / (n + 1) - 1e-12)
            assert np.all(phi <= 1.0 + 1e-12)
            assert np.all(phi >= sp.central_binom_scaled(n) - 1e-12)


class TestLegendre:
    def test_seeds(self):
        for y in (-2.0, 0.3, 5.0):
            assert sp.legendre_P(0, y) == 1.0
            assert sp.legendre_P(1, y) == y

    def test_value_one_at_one(self):
        for n in (2, 7, 64):
            assert sp.legendre_P(n, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_explicit_sum_value(self):
        assert legendre_sum_oracle(2, 2.0) == 5.5
        assert sp.legendre_P(2, 2.0) == pytest.approx(5.5, abs=1e-14)

    def test_recurrence_vs_sum_oracle(self):
        for n in (1, 3, 9, 33, 64):
            for y in np.linspace(1.0, 10.0, 13):
                want = legendre_sum_oracle(n, float(y))
                assert sp.legendre_P(n, float(y)) == pytest.approx(want, rel=1e-10)

    def test_recurrence_vs_scipy(self):
        for n in range(2, 65):
            for y in np.linspace(-10, 10, 41):
                want = float(eval_legendre(n, y))
                assert sp.legendre_P(n, float(y)) == pytest.approx(
                    want, rel=1e-10, abs=1e-12)

    def test_ratio_inequality(self):
        # P_n(y) <= (y + sqrt(y^2-1)) P_{n-1}(y) strictly above 1
        for n in (2, 5, 30, 64):
            for y in np.linspace(1.0 + 1e-6, 10.0, 25):
                lhs = sp.legendre_P(n, float(y))
                rhs = (y + math.sqrt(y * y - 1.0)) * sp.legendre_P(n - 1, float(y))
                assert lhs <= rhs * (1 + 1e-12)


class TestPhiViaLegendre:
    def test_at_zero(self):
        for n in (1, 4, 64):
            assert sp.phi_via_legendre(n, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_phi(self):
        for n in (2, 5, 23, 64):
            for x in (0.05, 0.25, 0.4, 0.499):
                assert sp.phi_via_legendre(n, x) == pytest.approx(
                    sp.phi_bernstein(n, x), rel=1e-9)

    def test_exclusion_zone(self):
        with pytest.raises(ValueError):
            sp.phi_via_legendre(4, 0.4999)
        with pytest.raises(ValueError):
            sp.phi_via_legendre(4, 0.5)

    def test_overflow_guard(self):
        with pytest.raises(ArithmeticError):
            sp.phi_via_legendre(400, 0.499)


class TestCentralBinom:
    def test_small_values(self):
        assert sp.central_binom_scaled(1) == 0.5
        assert sp.central_binom_scaled(2) == 0.375

    def test_equals_binomial(self):
        for n in (1, 3, 10, 30):
            want = comb(2 * n, n, exact=True) / 4.0 ** n
            assert sp.central_binom_scaled(n) == pytest.approx(want, rel=1e-14)

    def test_decreasing(self):
        vals = [sp.central_binom_scaled(n) for n in range(1, 65)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_elezovic_window(self):
        for n in (2, 10, 64):
            c = sp.central_binom_scaled(n)
            assert 1 / math.sqrt(math.pi * (n + 3)) < c < 1 / math.sqrt(math.pi * (n - 1))


class TestScaledBessel:
    def test_at_zero(self):
        assert sp.scaled_bessel_i0(0.0) == 1.0

    def test_monotone_decreasing(self):
        zs = np.linspace(0, 100, 41)
        vals = [sp.scaled_bessel_i0(float(z)) for z in zs]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0 < v <= 1 for v in vals)

    def test_vs_scipy(self):
        for z in (0.1, 1.0, 10.0, 29.0, 31.0, 50.0, 300.0, 6400.0):
            assert sp.scaled_bessel_i0(z) == pytest.approx(float(i0e(z)), rel=1e-10)

    def test_vs_integral_oracle(self):
        for z in (35.0, 50.0, 120.0):
            assert sp.scaled_bessel_i0(z) == pytest.approx(
                bessel_integral_oracle(z), abs=1e-8)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sp.scaled_bessel_i0(-1.0)


class TestSigma:
    def test_at_zero(self):
        for n in (1, 5, 64):
            assert sp.sigma_szasz(n, 0.0) == 1.0

    def test_matches_bessel(self):
        for n, x in ((1, 10.0), (2, 50.0), (8, 3.0), (64, 50.0)):
            assert sp.sigma_szasz(n, x) == pytest.approx(
                sp.scaled_bessel_i0(2 * n * x), rel=1e-10)

    def test_decay(self):
        assert sp.sigma_szasz(2, 50.0) < 0.05
        vals = [sp.sigma_szasz(3, x) for x in (10, 20, 40, 80)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_matches_sum_of_squared_weights(self):
        for n, x in ((1, 0.5), (4, 2.0), (16, 10.0)):
            L = ops.szasz_at(n, x, 1e-14)
            assert sp.sigma_szasz(n, x) == pytest.approx(
                float(L.weights @ L.weights), abs=1e-11)


class TestTheta:
    def test_closed_forms(self):
        xs = np.linspace(0.0, 50.0, 101)
        for x in xs:
            x = float(x)
            assert sp.theta_baskakov(1, x) == pytest.approx(1 / (1 + 2 * x), abs=1e-10)
            want = (2 * x * x + 2 * x + 1) / (2 * x + 1) ** 3
            assert sp.theta_baskakov(2, x) == pytest.approx(want, abs=1e-10)

    def test_at_point_values(self):
        assert sp.theta_baskakov(1, 0.5) == pytest.approx(0.5, abs=1e-12)
        assert sp.theta_baskakov(2, 1.0) == pytest.approx(5.0 / 27.0, abs=1e-12)
        for n in (1, 7, 64):
            assert sp.theta_baskakov(n, 0.0) == 1.0

    def test_matches_sum_of_squared_weights(self):
        for n, x in ((1, 0.7), (3, 4.0), (16, 20.0)):
            L = ops.baskakov_at(n, x, 1e-14)
            assert sp.theta_baskakov(n, x) == pytest.approx(
                float(L.weights @ L.weights), abs=1e-11)

    def test_chain_decreasing_in_n(self):
        xs = np.linspace(0.0, 50.0, 26)
        prev = None
        for n in range(2, 17):
            cur = np.array([sp.theta_baskakov(n, float(x)) for x in xs])
            assert np.all(cur >= -1e-12)
            if prev is not None:
                assert np.all(prev - cur >= -1e-12)
            prev = cur

    def test_decay(self):
        vals = [sp.theta_baskakov(3, x) for x in (10, 20, 40, 80)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_array_call_gives_each_point_its_scalar_value(self):
        """An array call runs the point call's body on every point at once;
        each point's value is its scalar call's bit for bit, in any order."""
        xs = np.linspace(0.0, 50.0, 41)
        xs = xs[np.random.default_rng(7).permutation(xs.size)]
        for n in (1, 2, 3, 16, 37, 64):
            vals = sp.theta_baskakov(n, xs)
            assert vals.shape == xs.shape
            for x, v in zip(xs, vals):
                assert v == sp.theta_baskakov(n, float(x)), (n, x)
        assert isinstance(sp.theta_baskakov(3, 2.0), float)

    def test_matches_squared_negbin_masses(self):
        """Within 1e-11 relative of the sum of scipy's squared negative
        binomial masses, taken out to a survival of 1e-20."""
        from scipy import stats
        xs = np.linspace(0.25, 50.0, 34)
        for n in (1, 2, 3, 16, 37, 64):
            vals = sp.theta_baskakov(n, xs)
            for x, v in zip(xs, vals):
                law = stats.nbinom(n, 1.0 / (1.0 + x))
                pmf = law.pmf(np.arange(law.isf(1e-20) + 1.0))
                want = float(pmf @ pmf)
                assert abs(v - want) <= 1e-11 * want, (n, x, v, want)

    @pytest.mark.parametrize("bad", [math.nan, -0.5, math.inf])
    def test_bad_point_inside_an_array_raises(self, bad):
        with pytest.raises(ValueError, match="argument must lie"):
            sp.theta_baskakov(4, np.array([0.5, bad, 2.0]))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
    @pytest.mark.parametrize("x", [0.25, 1.0, 3.0])
    def test_within_an_exact_bracket_of_the_series(self, n, x):
        """The defining series sum_k C(n+k-1, k)^2 q^(2k) (1-q)^(2n), q =
        x/(1+x), summed in rationals until its geometric tail bound is below
        1e-20 of the sum, brackets theta exactly; the closed form lies within
        1e-14 relative of the bracket."""
        q = Fraction(x) / (1 + Fraction(x))
        term, total, k = (1 - q) ** (2 * n), Fraction(0), 0
        while True:
            total += term
            term *= (q * (n + k) / (k + 1)) ** 2           # the (k+1)-th term
            k += 1
            rho = (q * (n + k) / (k + 1)) ** 2             # its ratio to the next
            if rho < 1 and term / (1 - rho) < Fraction(1, 10 ** 20) * total:
                break
        lo, hi = total, total + term / (1 - rho)
        v = Fraction(sp.theta_baskakov(n, x))
        assert lo * (1 - Fraction(1, 10 ** 14)) <= v <= hi * (1 + Fraction(1, 10 ** 14)), \
            (n, x, float((v - lo) / lo))


class TestPsi:
    def test_at_zero(self):
        for n in (1, 6, 64):
            assert sp.psi_bbh(n, 0.0) == 1.0

    def test_substitution_values(self):
        assert sp.psi_bbh(2, 1.0) == pytest.approx(0.375, abs=1e-12)
        assert sp.psi_bbh(3, 2.0) == pytest.approx(
            sp.phi_bernstein(3, 2.0 / 3.0), abs=1e-12)

    def test_matches_phi_on_grid(self):
        for n in (1, 2, 9, 32):
            for t in np.linspace(0.0, 50.0, 41):
                t = float(t)
                assert sp.psi_bbh(n, t) == pytest.approx(
                    sp.phi_bernstein(n, t / (1 + t)), abs=1e-10)

    def test_matches_phi_relative(self):
        for n in (1, 2, 3, 9, 16, 32, 64):
            for t in np.linspace(0.0, 200.0, 81)[1:]:
                t = float(t)
                want = sp.phi_bernstein(n, t / (1 + t))
                assert abs(sp.psi_bbh(n, t) - want) <= 1e-12 * want, (n, t)

    def test_infimum_is_central_binom(self):
        for n in (1, 4, 16):
            lo = sp.central_binom_scaled(n)
            vals = [sp.psi_bbh(n, float(t)) for t in np.linspace(0, 200, 401)]
            assert min(vals) >= lo - 1e-12
            # infimum approached as the substitution point passes 1/2
            assert min(vals) == pytest.approx(lo, rel=1e-6)


class TestTau:
    def test_nodes(self):
        for n in (1, 4, 64):
            for k in range(n + 1):
                assert sp.tau_hat(n, k / n) == 1.0

    def test_midpoints(self):
        for n in (1, 4, 64):
            for k in range(1, n + 1):
                assert sp.tau_hat(n, (2 * k - 1) / (2 * n)) == pytest.approx(
                    0.5, abs=1e-12)

    def test_hat_formula(self):
        assert sp.tau_hat(4, 0.2) == pytest.approx(0.68, abs=1e-12)

    def test_matches_sdelta_weights(self):
        for n in (2, 9, 32):
            for x in np.linspace(0, 1, 17):
                L = ops.sdelta_at(n, float(x))
                assert sp.tau_hat(n, float(x)) == pytest.approx(
                    float(L.weights @ L.weights), abs=1e-13)


class TestKingSumsq:
    def test_minimum_point(self):
        assert sp.king_sumsq(1, math.sqrt(2) / 2) == pytest.approx(0.5, abs=1e-12)

    def test_at_zero(self):
        assert sp.king_sumsq(1, 0.0) == 1.0

    def test_closed_form_degree_one(self):
        for x in np.linspace(0, 1, 21):
            want = 2 * x ** 4 - 2 * x ** 2 + 1
            assert sp.king_sumsq(1, float(x)) == pytest.approx(want, abs=1e-13)

    def test_composition(self):
        assert sp.king_sumsq(2, 0.6) == pytest.approx(
            sp.phi_bernstein(2, ops.r_star(2, 0.6)), abs=1e-14)

    def test_lower_bound(self):
        for n in (1, 2, 8, 64):
            for x in np.linspace(0, 1, 33):
                assert sp.king_sumsq(n, float(x)) >= 1.0 / (n + 1) - 1e-12


class TestSecondMoment:
    def test_bernstein(self):
        assert sp.second_moment("bernstein", 4, 0.5) == pytest.approx(1 / 16, abs=0)

    def test_sdelta_nodes_and_cap(self):
        for n in (2, 8):
            for k in range(n + 1):
                assert sp.second_moment("sdelta", n, k / n) == 0.0
            for x in np.linspace(0, 1, 37):
                assert sp.second_moment("sdelta", n, float(x)) <= 1 / (4 * n * n) + 1e-15

    def test_king(self):
        for x in (0.0, 0.4, 1.0):
            assert sp.second_moment("king", 1, x) == pytest.approx(
                2 * x * x * (1 - x), abs=1e-12)
        assert sp.second_moment("king", 1, 1.0) == 0.0

    def test_matches_functional_variance(self, corpus01):
        # for e1-reproducing families the second moment IS T(e1, e1)
        e1 = corpus01["e1"]
        for name, builder in (("bernstein", ops.bernstein_at),
                              ("sdelta", ops.sdelta_at)):
            for n in (1, 3, 16):
                for x in np.linspace(0, 1, 13):
                    t = ops.chebyshev_T(builder(n, float(x)), e1, e1)
                    assert sp.second_moment(name, n, float(x)) == pytest.approx(
                        t, abs=1e-10)

    def test_king_matches_applied_square_distance(self):
        # the king family reproduces e2, not e1, so its second moment is
        # L((e1-x)^2) = x^2 - 2x r* + x^2, which exceeds T(e1, e1)
        for n in (1, 2, 16):
            for x in np.linspace(0, 1, 13):
                x = float(x)
                L = ops.king_at(n, x)
                direct = float(L.weights @ (L.nodes - x) ** 2)
                m2 = sp.second_moment("king", n, x)
                assert m2 == pytest.approx(direct, abs=1e-10)
                r = ops.r_star(n, x)
                assert m2 >= x * x - r * r - 1e-12  # >= the variance T(e1,e1)

    def test_unsupported_family(self):
        with pytest.raises(ValueError):
            sp.second_moment("szasz", 3, 0.5)


@pytest.mark.parametrize("fn", [
    sp.phi_bernstein, sp.phi_via_legendre, lambda n, _x: sp.central_binom_scaled(n),
    sp.sigma_szasz, sp.theta_baskakov, sp.psi_bbh, sp.tau_hat, sp.king_sumsq,
    lambda n, x: sp.second_moment("bernstein", n, x)])
@pytest.mark.parametrize("n", [0, -1, 2.5])
def test_degree_must_be_a_positive_integer(fn, n):
    with pytest.raises(ValueError, match="degree n"):
        fn(n, 0.25)


@pytest.mark.parametrize("fn", [
    sp.sigma_szasz, sp.theta_baskakov, sp.psi_bbh,
    lambda _n, z: sp.scaled_bessel_i0(z)])
@pytest.mark.parametrize("x", [-0.5, math.nan, math.inf])
def test_ray_argument_must_be_finite_and_nonnegative(fn, x):
    with pytest.raises(ValueError, match=r"^argument must lie in \[0, inf\)$"):
        fn(3, x)


def test_legendre_order_must_be_nonnegative():
    with pytest.raises(ValueError, match="order n >= 0"):
        sp.legendre_P(-1, 0.5)


def test_phi_second_derivative_at_half():
    h = 1e-3
    for n in (1, 2, 8, 33, 64):
        got = (sp.phi_bernstein(n, 0.5 + h) - 2 * sp.phi_bernstein(n, 0.5)
               + sp.phi_bernstein(n, 0.5 - h)) / (h * h)
        want = 4.0 ** (2 - n) * comb(2 * n - 2, n - 1, exact=True)
        assert got == pytest.approx(want, rel=1e-4)


def test_inequality_chain():
    for n in range(2, 65):
        c = sp.central_binom_scaled(n)
        assert 1 / (n + 1) < 1 / (2 * math.sqrt(n)) - 1e-12
        assert 1 / (2 * math.sqrt(n)) < c - 1e-12
        assert c < 1 / math.sqrt(2 * n + 1) - 1e-12
