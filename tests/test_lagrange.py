import math

import numpy as np
import pytest
import scalar_bounds as scalar

from grusslab import lagrange as lag
from grusslab import operators as ops
from grusslab.funcspace import NodeSet, oscillation


def _searched_lebesgue_constant(n, grid=4097):
    """max of Lambda_n found numerically: the grid maximum, refined by
    golden-section search between its two grid neighbours."""
    if n == 1:
        return 1.0
    xs = np.linspace(-1.0, 1.0, grid)
    r, hit = lag._bary_terms(n, xs)
    lam = np.abs(r).sum(axis=1) / np.abs(r.sum(axis=1))
    lam[hit.any(axis=1)] = 1.0
    i = int(np.argmax(lam))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, grid - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = lag.lebesgue_function(n, c), lag.lebesgue_function(n, d)
    for _ in range(90):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = lag.lebesgue_function(n, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = lag.lebesgue_function(n, d)
        if b - a < 1e-13:
            break
    return max(float(lam[i]), fc, fd)


def direct_basis_oracle(n, x):
    """l_k(x) from the defining product quotient (small n only)."""
    nodes = lag.chebyshev_grid(n).nodes
    out = np.empty(n)
    for k in range(n):
        num = den = 1.0
        for j in range(n):
            if j != k:
                num *= x - nodes[j]
                den *= nodes[k] - nodes[j]
        out[k] = num / den
    return out


class TestGrid:
    def test_nodes_sorted_symmetric(self):
        for n in (1, 2, 9, 64):
            g = lag.chebyshev_grid(n)
            assert np.all(np.diff(g.nodes) > 0)
            assert np.all(np.abs(g.nodes) < 1.0)
            assert np.allclose(g.nodes, -g.nodes[::-1], atol=1e-15)

    def test_explicit_cosines(self):
        g = lag.chebyshev_grid(3)
        want = np.sort(np.cos((2 * np.arange(1, 4) - 1) * math.pi / 6))
        assert np.allclose(g.nodes, want, atol=1e-15)

    def test_needs_a_node(self):
        with pytest.raises(ValueError, match="positive number of nodes"):
            lag.chebyshev_grid(0)


class TestBasis:
    def test_single_node(self):
        L = lag.lagrange_basis(1, 0.3)
        assert L.weights.tolist() == [1.0]

    def test_two_nodes_at_center(self):
        L = lag.lagrange_basis(2, 0.0)
        assert np.allclose(L.weights, [0.5, 0.5], atol=1e-15)
        assert np.allclose(np.abs(L.nodes), math.sqrt(2) / 2, atol=1e-15)

    def test_node_hit_is_delta(self):
        for n in (2, 5, 16):
            nodes = lag.chebyshev_grid(n).nodes
            for k in (0, n - 1):
                w = lag.basis_weights(n, float(nodes[k]))
                assert w[k] == 1.0 and np.count_nonzero(w) == 1

    def test_matches_product_oracle(self):
        for n in (2, 3, 5, 8):
            for x in (-0.9, -0.33, 0.11, 0.97):
                got = lag.basis_weights(n, x)
                assert np.allclose(got, direct_basis_oracle(n, x), atol=1e-12)

    def test_partition_of_unity(self):
        for n in (1, 2, 7, 33, 64):
            for x in np.linspace(-1, 1, 41):
                assert np.sum(lag.basis_weights(n, float(x))) == pytest.approx(
                    1.0, abs=1e-12)

    def test_polynomial_reproduction(self):
        # interpolation is exact on polynomials of degree < n
        for n in (2, 4, 8):
            nodes = lag.chebyshev_grid(n).nodes
            for deg in range(n):
                for x in np.linspace(-1, 1, 17):
                    w = lag.basis_weights(n, float(x))
                    assert float(w @ nodes ** deg) == pytest.approx(
                        x ** deg, abs=1e-9)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            lag.lagrange_basis(4, 1.5)


class TestLebesgue:
    def test_degree_one_constant(self):
        for x in (-1.0, 0.2, 1.0):
            assert lag.lebesgue_function(1, x) == 1.0

    def test_two_nodes(self):
        assert lag.lebesgue_function(2, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert lag.lebesgue_function(2, 1.0) == pytest.approx(math.sqrt(2), abs=1e-14)

    def test_at_least_one_and_one_at_nodes(self):
        for n in (2, 5, 16):
            for x in np.linspace(-1, 1, 33):
                assert lag.lebesgue_function(n, float(x)) >= 1.0 - 1e-12
            for xk in lag.chebyshev_grid(n).nodes:
                assert lag.lebesgue_function(n, float(xk)) == pytest.approx(
                    1.0, abs=1e-12)

    def test_constants(self):
        assert lag.lebesgue_constant(1) == 1.0
        assert lag.lebesgue_constant(2) == pytest.approx(math.sqrt(2), abs=1e-6)
        assert lag.lebesgue_constant(3) == pytest.approx(5.0 / 3.0, abs=1e-6)

    def test_closed_form_agrees_with_search_and_endpoint(self):
        """The closed form against the maximum found by a 4,097-point grid and
        golden-section search, and against Lambda_n(1), for n = 1..129."""
        for n in range(1, 130):
            lam = lag.lebesgue_constant(n)
            assert lam == pytest.approx(_searched_lebesgue_constant(n), rel=1e-11, abs=0), n
            assert lam == pytest.approx(lag.lebesgue_function(n, 1.0), rel=1e-11, abs=0), n

    @pytest.mark.parametrize("n", [0, -1, 2.5])
    def test_constant_needs_a_positive_degree(self, n):
        with pytest.raises(ValueError, match="positive number of nodes"):
            lag.lebesgue_constant(n)

    def test_rivlin_window_small(self):
        for n in (2, 3, 8, 32):
            gap = lag.rivlin_gap(n)
            assert lag.RIVLIN_LO < gap < lag.RIVLIN_HI


class TestPairProductSum:
    def test_degree_one_zero(self):
        assert lag.pair_product_sum(1, 0.4) == 0.0

    def test_two_nodes_center(self):
        assert lag.pair_product_sum(2, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_zero_at_nodes(self):
        for n in (2, 6, 17):
            for xk in lag.chebyshev_grid(n).nodes:
                assert lag.pair_product_sum(n, float(xk)) == 0.0

    def test_half_difference_vs_double_sum(self):
        for n in (2, 4, 9):
            for x in (-0.77, 0.05, 0.93):
                w = lag.basis_weights(n, x)
                brute = sum(
                    abs(w[k] * w[m])
                    for k in range(n) for m in range(k + 1, n)
                )
                assert lag.pair_product_sum(n, x) == pytest.approx(brute, abs=1e-12)


class TestBounds:
    def test_constant_function_trivial(self, corpus_pm):
        res = scalar.lagrange_new_bound(5, corpus_pm["e0"], corpus_pm["sinpi"], 0.37)
        assert res.lhs <= 1e-13
        assert res.rhs["new_osc"] >= 0.0

    def test_equality_two_nodes_center(self, corpus_pm):
        res = scalar.lagrange_new_bound(2, corpus_pm["e1"], corpus_pm["e1"], 0.0)
        assert res.lhs == pytest.approx(0.5, abs=1e-14)
        assert res.rhs["new_osc"] == pytest.approx(0.5, abs=1e-14)

    def test_generic_pair_holds(self, corpus_pm):
        for x in (-0.9, 0.3, 0.84):
            res = scalar.lagrange_new_bound(4, corpus_pm["absmid"], corpus_pm["sinpi"], x)
            assert res.lhs <= res.rhs["new_osc"] + 1e-10

    def test_matches_signed_bound_route(self, corpus_pm):
        for n in (2, 5):
            for x in (-0.4, 0.66):
                L = lag.lagrange_basis(n, x)
                direct = scalar.new_bound_signed(L, corpus_pm["e2"], corpus_pm["randlip"])
                res = scalar.lagrange_new_bound(n, corpus_pm["e2"], corpus_pm["randlip"], x)
                assert direct == pytest.approx(res.rhs["new_osc"], rel=1e-12, abs=1e-15)

    def test_classical_forms(self, corpus_pm):
        e0 = corpus_pm["e0"]
        forms = scalar.lagrange_classical_bound(4, e0, e0)
        assert forms["classical_norm"] == 0.0

        e1 = corpus_pm["e1"]
        forms = scalar.lagrange_classical_bound(2, e1, e1)
        lam = math.sqrt(2)
        assert forms["classical_norm"] == pytest.approx(
            0.25 * lam * (1 + lam) * 4.0, rel=1e-6)
        # dominates the pointwise functional everywhere
        xs = np.linspace(-1, 1, 101)
        worst = max(abs(ops.chebyshev_T(lag.lagrange_basis(2, float(x)), e1, e1))
                    for x in xs)
        assert worst <= forms["classical_norm"] + 1e-12

    def test_norm_form_below_log_form(self, corpus_pm):
        f, g = corpus_pm["e1"], corpus_pm["e2"]
        for n in range(2, 65):
            forms = scalar.lagrange_classical_bound(n, f, g)
            assert forms["classical_norm"] <= forms["classical_log"] + 1e-12
            assert forms["classical_log"] <= forms["classical_log_stated"] + 1e-12


class TestIdempotence:
    def test_interpolation_at_nodes(self, corpus_pm):
        f = corpus_pm["sinpi"]
        for n in (2, 6, 31):
            for xk in lag.chebyshev_grid(n).nodes:
                L = lag.lagrange_basis(n, float(xk))
                assert ops.apply(L, f) == float(f(xk))

    def test_oscillation_over_nodes(self, corpus_pm):
        n = 8
        nodes = NodeSet(lag.chebyshev_grid(n).nodes)
        assert oscillation(corpus_pm["e1"], nodes) == pytest.approx(
            2 * math.cos(math.pi / 16), abs=1e-14)


def test_hermann_ratio_positive():
    for n in (2, 8, 32):
        assert lag.hermann_ratio(n) > 0.0


def _per_x_basis(n, x):
    """The per-x barycentric basis the array form replaced, kept as reference."""
    grid = lag.chebyshev_grid(n)
    if n == 1:
        return np.array([1.0])
    diff = x - grid.nodes
    hit = np.abs(diff) < 1e-14
    if np.any(hit):
        out = np.zeros(n)
        out[int(np.argmax(hit))] = 1.0
        return out
    r = grid.bary / diff
    return r / np.sum(r)


def _per_x_hermann(n):
    """The per-x loop of hermann_ratio, kept as reference."""
    xs = np.linspace(-1.0, 1.0, lag.HERMANN_GRID)
    ts = np.arccos(np.clip(xs, -1.0, 1.0))
    best = math.inf
    for x, t in zip(xs, ts):
        w = _per_x_basis(n, x)
        ssq = float(np.dot(w, w))
        denom = 1.0 + math.cos(n * t) ** 2 * (math.pi ** 2 / 6.0)
        best = min(best, ssq / denom)
    return best


def test_basis_bits_match_per_x_reference():
    """Array rows, the point form and hermann_ratio are bit for bit the per-x
    barycentric basis, on a 4,097-point grid and at every node hit."""
    for n in range(1, 65):
        nodes = lag.chebyshev_grid(n).nodes
        xs = np.concatenate([np.linspace(-1.0, 1.0, 4097), nodes])
        want = np.stack([_per_x_basis(n, x) for x in xs])
        assert lag.basis_weights(n, xs).tobytes() == want.tobytes(), n
        points = np.concatenate([xs[::64], nodes])
        got = np.stack([lag.basis_weights(n, float(x)) for x in points])
        want = np.stack([_per_x_basis(n, float(x)) for x in points])
        assert got.tobytes() == want.tobytes(), n
        assert lag.hermann_ratio(n) == _per_x_hermann(n), n
