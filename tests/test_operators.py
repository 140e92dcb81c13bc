import math
from fractions import Fraction

import numpy as np
import pytest
import scalar_bounds as scalar
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import comb

from grusslab import lagrange as lag
from grusslab import operators as ops
from grusslab.funcspace import standard_corpus

FAMILY_BUILDERS = {
    "bernstein": lambda n, x: ops.bernstein_at(n, x),
    "sdelta": lambda n, x: ops.sdelta_at(n, x),
    "king": lambda n, x: ops.king_at(n, x),
    "bbh": lambda n, x: ops.bbh_at(n, 4.0 * x / (1.0 - x + 1e-9)),
    "szasz": lambda n, x: ops.szasz_at(n, 50.0 * x),
    "baskakov": lambda n, x: ops.baskakov_at(n, 50.0 * x),
}


class TestBernstein:
    def test_degree_one_half(self):
        L = ops.bernstein_at(1, 0.5)
        assert L.nodes.tolist() == [0.0, 1.0]
        assert L.weights.tolist() == [0.5, 0.5]

    def test_degree_two_half(self):
        L = ops.bernstein_at(2, 0.5)
        assert np.allclose(L.weights, [0.25, 0.5, 0.25], atol=1e-15)

    def test_endpoint_point_mass(self):
        for n in (1, 5, 64):
            L = ops.bernstein_at(n, 0.0)
            assert L.weights[0] == 1.0 and np.all(L.weights[1:] == 0.0)

    def test_matches_binomial_oracle(self):
        for n in (3, 8, 17):
            for x in (0.1, 0.37, 0.5, 0.93):
                L = ops.bernstein_at(n, x)
                oracle = [comb(n, k, exact=True) * x ** k * (1 - x) ** (n - k)
                          for k in range(n + 1)]
                assert np.allclose(L.weights, oracle, rtol=1e-13, atol=1e-300)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ops.bernstein_at(4, 1.2)


class TestSdelta:
    def test_interpolatory_at_knots(self, corpus01):
        f = corpus01["sinpi"]
        for n in (2, 7, 64):
            for k in range(n + 1):
                L = ops.sdelta_at(n, k / n)
                assert len(L.weights) == 1 and L.weights[0] == 1.0
                assert ops.apply(L, f) == float(f(k / n))

    def test_hat_between_knots(self):
        L = ops.sdelta_at(2, 0.25)
        assert L.nodes.tolist() == [0.0, 0.5]
        assert np.allclose(L.weights, [0.5, 0.5], atol=1e-15)
        L = ops.sdelta_at(1, 1.0 / 3.0)
        assert L.nodes.tolist() == [0.0, 1.0]
        assert np.allclose(L.weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_linear_reproduction(self, corpus01):
        e1 = corpus01["e1"]
        for n in (1, 5, 32):
            for x in np.linspace(0, 1, 17):
                assert ops.apply(ops.sdelta_at(n, float(x)), e1) == \
                    pytest.approx(x, abs=1e-13)


class TestSzasz:
    def test_point_mass_at_zero(self):
        L = ops.szasz_at(5, 0.0)
        assert L.nodes.tolist() == [0.0] and L.weights.tolist() == [1.0]
        assert L.tail_mass_bound == 0.0

    def test_poisson_oracle(self):
        L = ops.szasz_at(1, 1.0, 1e-12)
        oracle = [math.exp(-1) / math.factorial(k) for k in range(len(L.weights))]
        assert np.allclose(L.weights, oracle, rtol=1e-14)
        assert abs(L.weights.sum() - 1.0) <= 1e-12

    def test_mean_identity(self):
        L = ops.szasz_at(4, 2.5, 1e-12)
        assert float(L.weights @ L.nodes) == pytest.approx(2.5, abs=1e-9)

    def test_bad_tail_eps(self):
        with pytest.raises(ValueError):
            ops.szasz_at(2, 1.0, 0.0)

    def test_truncation_stability(self, corpus_ray):
        f = corpus_ray["expneg"]
        for x in (0.5, 7.0, 50.0):
            a = ops.apply(ops.szasz_at(8, x, 1e-8), f)
            b = ops.apply(ops.szasz_at(8, x, 1e-9), f)
            assert abs(a - b) < 10.0 * 1e-8 * 1.0


class TestBaskakov:
    def test_point_mass_at_zero(self):
        L = ops.baskakov_at(3, 0.0)
        assert L.weights.tolist() == [1.0]

    def test_geometric_oracle(self):
        L = ops.baskakov_at(1, 1.0, 1e-12)
        oracle = 0.5 ** (np.arange(len(L.weights)) + 1.0)
        assert np.allclose(L.weights, oracle, rtol=1e-14)
        assert abs(L.weights.sum() - 1.0) <= 1e-12

    def test_mean_identity(self):
        L = ops.baskakov_at(2, 1.0, 1e-12)
        assert float(L.weights @ L.nodes) == pytest.approx(1.0, abs=1e-9)

    def test_negbin_oracle_small(self):
        n, x = 3, 0.6
        L = ops.baskakov_at(n, x, 1e-12)
        ks = np.arange(len(L.weights))
        oracle = comb(n + ks - 1, ks) * x ** ks / (1 + x) ** (n + ks)
        assert np.allclose(L.weights, oracle, rtol=1e-12)

    def test_truncation_stability(self, corpus_ray):
        f = corpus_ray["sinpi"]
        for x in (0.5, 7.0, 50.0):
            a = ops.apply(ops.baskakov_at(4, x, 1e-8), f)
            b = ops.apply(ops.baskakov_at(4, x, 1e-9), f)
            assert abs(a - b) < 10.0 * 1e-8 * 1.0


def _ray_window(family, n, x, tail_eps):
    return (ops._poisson_weights(n * x, tail_eps) if family == "szasz"
            else ops._negbin_weights(n, x, tail_eps))


def _survival(family, n, x, k):
    """The untruncated law's mass past k, the negative binomial's with its
    failure probability x/(1 + x) taken directly rather than as
    1 - 1/(1 + x), which cancels at small x."""
    from scipy.special import betainc, gammainc
    return gammainc(k + 1, n * x) if family == "szasz" else betainc(k + 1, n, x / (1.0 + x))


def _quantile(family, n, x, tail_eps):
    from scipy import stats
    law = stats.poisson(n * x) if family == "szasz" else stats.nbinom(n, 1.0 / (1.0 + x))
    return law.isf(tail_eps)


def _check_tail_contract(family, n, x, w, tail, tail_eps):
    """The window w_0..w_K leaves out at most ``tail`` <= tail_eps, and it is
    the first cut past the mode that the geometric rule allows: one node
    shorter, the mass left out exceeds tail_eps (1 - r), r the up ratio
    there, so w_{K-1} r/(1 - r) > tail_eps with exact masses too.

    At baskakov n = 1 the up ratio is constant, so the geometric bound is the
    exact tail and only rounding separates the two: the masses' cumprod
    (about w.size eps relative), 1 - r (about eps/(1 - r)) and scipy's own."""
    k = w.size - 1
    assert _survival(family, n, x, k) <= tail * (1.0 + 1e-12), (family, n, x, tail)
    assert tail <= tail_eps, (family, n, x, tail)
    mode = int(n * x) if family == "szasz" else int((n - 1) * x)
    if k > mode:
        p = x / (1.0 + x)
        r = n * x / k if family == "szasz" else p * (n + k - 1.0) / k
        assert _survival(family, n, x, k - 1) > tail_eps * (1.0 - r) * (1.0 - 1e-12), \
            (family, n, x, k)


@pytest.mark.parametrize("family, n, x", [("szasz", 32, 36.328125),
                                          ("baskakov", 16, 44.7265625)])
def test_rounding_deficit_does_not_widen_window(family, n, x):
    """Here the computed masses sum to about 1 - 1.4e-12 from rounding in the
    mode weight alone; the cut does not read the masses' sum, so the window
    still ends at the 1e-12 quantile and reports a tail of at most 1e-12."""
    L = ops.point_functional(family, n, x, 1e-12)
    w, tail = _ray_window(family, n, x, 1e-12)
    assert w.size == L.weights.size and tail == L.tail_mass_bound
    _check_tail_contract(family, n, x, w, tail, 1e-12)
    assert w.size - 1 <= _quantile(family, n, x, 1e-12) + 2


@pytest.mark.parametrize("family", ["szasz", "baskakov"])
def test_windows_meet_the_tail_contract_on_the_sweep_grid(family):
    """Every window of the default sweep, at its degrees and x grid, ends at
    most two nodes past the tail_eps quantile."""
    from grusslab.verify import SuiteConfig
    cfg = SuiteConfig()
    for n in cfg.degrees:
        for x in np.linspace(0.0, cfg.x_max, cfg.x_grid):
            w, tail = _ray_window(family, n, float(x), cfg.tail_eps)
            _check_tail_contract(family, n, float(x), w, tail, cfg.tail_eps)
            assert w.size - 1 <= _quantile(family, n, float(x), cfg.tail_eps) + 2, \
                (family, n, x, w.size)


@given(st.sampled_from(["szasz", "baskakov"]), st.integers(1, 64),
       st.floats(0.0, 50.0, exclude_min=True), st.floats(1e-14, 1e-6))
def test_windows_meet_the_tail_contract(family, n, x, tail_eps):
    """Over n, x and tail_eps.  Two nodes past the quantile is not promised
    here: where the up ratio falls slowly the geometric bound exceeds the
    true tail by a few per cent, and baskakov:54 at x = 46.5 with tail_eps
    8.8e-7 ends three nodes past it."""
    w, tail = _ray_window(family, n, x, tail_eps)
    _check_tail_contract(family, n, x, w, tail, tail_eps)


def _scan_ratios(family, n, x):
    """The up and down ratios of the family's law at x, as functions of an
    array k, written from their formulas apart from the program's."""
    if family == "szasz":
        lam = n * x
        return (lambda k: lam / (k + 1.0)), (lambda k: k / lam)
    p = x / (1.0 + x)
    return (lambda k: p * (n + k) / (k + 1.0)), (lambda k: k / (p * (n + k - 1.0)))


def _scan_ratio_window(log_wm, mode, reach, up_ratio, down_ratio, tail_eps):
    """The cut rule as a scan over the whole pass: 1 - r clipped at 0, the
    bound w r/(1 - r) formed at every index, and the first index where it is
    at most tail_eps taken; the pass structure and the masses are the
    program's, each chain a fresh cumprod joined by concatenation."""
    wm = math.exp(log_wm)
    parts, lo, hi = [np.array([wm])], mode, reach
    while True:
        if hi > ops._KCAP:
            raise ArithmeticError("truncation window exceeded the hard cap")
        r = up_ratio(np.arange(float(lo), float(hi)))
        up = np.cumprod(r)
        up *= parts[-1][-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = up / np.maximum(1.0 - r, 0.0)
        hit = np.flatnonzero(bound <= tail_eps)
        if hit.size:
            j = int(hit[0])
            break
        parts.append(up)
        lo, hi = hi, hi + 2 * (hi - lo)
    parts.append(up[:j])
    down = np.cumprod(down_ratio(np.arange(mode, 0, -1.0)))
    down *= wm
    parts.insert(0, down[::-1])
    return np.concatenate(parts), float(bound[j])


def _passes(monkeypatch, family, n, x, tail_eps):
    """The window, its tail, the mode its builder was given, and the (lo, hi)
    of each pass of up ratios."""
    seen, passes, window = [], [], ops._ratio_window

    def spy(log_wm, mode, reach, up_ratio, down_ratio, eps):
        def counted(lo, hi):
            passes.append((lo, hi))
            return up_ratio(lo, hi)
        seen.append(mode)
        return window(log_wm, mode, reach, counted, down_ratio, eps)
    with monkeypatch.context() as m:
        m.setattr(ops, "_ratio_window", spy)
        w, tail = _ray_window(family, n, x, tail_eps)
    return w, tail, seen[0], passes


def _assert_cut_is_the_scan(monkeypatch, family, n, x, tail_eps):
    w, tail = _ray_window(family, n, x, tail_eps)
    up, down = _scan_ratios(family, n, x)

    def scan(log_wm, mode, reach, _up_ratio, _down_ratio, eps):
        return _scan_ratio_window(log_wm, mode, reach, up, down, eps)
    with monkeypatch.context() as m:
        m.setattr(ops, "_ratio_window", scan)
        ref_w, ref_tail = _ray_window(family, n, x, tail_eps)
    assert w.tobytes() == ref_w.tobytes() and tail.hex() == ref_tail.hex(), \
        (family, n, x, tail_eps, w.size, ref_w.size, tail, ref_tail)


class TestCutByBisection:
    """The bisected cut gives the scan's window and tail bit for bit."""

    @pytest.mark.parametrize("family", ["szasz", "baskakov"])
    def test_every_window_of_the_default_sweep(self, monkeypatch, family):
        from grusslab.verify import SuiteConfig
        cfg = SuiteConfig()
        for n in cfg.degrees:
            for x in np.linspace(0.0, cfg.x_max, cfg.x_grid):
                _assert_cut_is_the_scan(monkeypatch, family, n, float(x), cfg.tail_eps)

    @given(st.sampled_from(["szasz", "baskakov"]), st.integers(1, 200),
           st.floats(0.0, 1e4), st.floats(1e-15, 1e-3))
    def test_random_windows(self, family, n, x, tail_eps):
        with pytest.MonkeyPatch.context() as monkeypatch:
            _assert_cut_is_the_scan(monkeypatch, family, n, x, tail_eps)

    def test_a_window_of_two_passes(self, monkeypatch):
        # baskakov:1 at x = 50 has the constant up ratio 50/51; its first
        # pass ends before the 1e-12 cut
        _, _, _, passes = _passes(monkeypatch, "baskakov", 1, 50.0, 1e-12)
        assert len(passes) == 2
        _assert_cut_is_the_scan(monkeypatch, "baskakov", 1, 50.0, 1e-12)

    @pytest.mark.parametrize("family, n, x", [("szasz", 1, 2e5),
                                              ("baskakov", 64, 3000.0)])
    def test_chains_of_thousands_of_nodes(self, monkeypatch, family, n, x):
        w, _, _, _ = _passes(monkeypatch, family, n, x, 1e-12)
        assert w.size > 16_000
        _assert_cut_is_the_scan(monkeypatch, family, n, x, 1e-12)

    @pytest.mark.parametrize("family, n, x", [("szasz", 1, 0.5), ("szasz", 8, 0.0625),
                                              ("baskakov", 1, 7.0), ("baskakov", 2, 0.5)])
    def test_windows_from_mode_zero(self, monkeypatch, family, n, x):
        # no down chain: the window starts at the mode weight, w_0, which
        # comes from lgamma and logs within a few ulps
        w, tail, mode, _ = _passes(monkeypatch, family, n, x, 1e-12)
        assert mode == 0
        w0 = math.exp(-n * x) if family == "szasz" else (1.0 + x) ** -n
        assert w[0] == pytest.approx(w0, rel=1e-14, abs=0)
        _assert_cut_is_the_scan(monkeypatch, family, n, x, 1e-12)
        _check_tail_contract(family, n, x, w, tail, 1e-12)

    @pytest.mark.parametrize("family", ["szasz", "baskakov"])
    def test_window_at_zero(self, family):
        w, tail = _ray_window(family, 4, 0.0, 1e-12)
        assert w.tolist() == [1.0] and tail == 0.0

    def test_a_ratio_that_rounds_to_one_is_not_a_cut(self):
        # r[0] = 1 has no geometric bound; the scan's clipped divide reads
        # inf there, and the bisection must not divide by 1 - r = 0
        def up_ratio(k):
            r = np.full(k.shape, 0.5)
            r[k == 0.0] = 1.0
            return r
        def none_below(k):       # mode 0: asked for no ratio
            assert k.size == 0
            return k
        def none_written(out):
            assert out.size == 0
        # past r[0], the bounds 2^-(j+1) are exact: at 2^-7 one equals tail_eps
        for eps in (1e-12, 0.3, 10.0, 2.0 ** -7):
            w, tail = ops._ratio_window(
                math.log(0.25), 0, 40,
                lambda lo, hi: up_ratio(np.arange(float(lo), float(hi))),
                none_written, eps)
            ref_w, ref_tail = _scan_ratio_window(math.log(0.25), 0, 40, up_ratio,
                                                 none_below, eps)
            assert w.size >= 2 and w.tobytes() == ref_w.tobytes(), eps
            assert tail.hex() == ref_tail.hex(), eps


class TestBBH:
    def test_degree_one_expansion(self):
        for x in (0.0, 0.5, 3.0):
            L = ops.bbh_at(1, x)
            assert L.nodes.tolist() == [0.0, 1.0]
            assert np.allclose(L.weights, [1 / (1 + x), x / (1 + x)], atol=1e-15)

    def test_point_mass_at_zero(self):
        L = ops.bbh_at(6, 0.0)
        assert L.weights[0] == 1.0

    def test_degree_two_at_one(self):
        L = ops.bbh_at(2, 1.0)
        assert np.allclose(L.nodes, [0.0, 0.5, 2.0], atol=0)
        assert np.allclose(L.weights, [0.25, 0.5, 0.25], atol=1e-15)


class TestKing:
    def test_r_star_values(self):
        for x in (0.0, 0.3, 1.0):
            assert ops.r_star(1, x) == pytest.approx(x * x, abs=1e-15)
        assert ops.r_star(2, 0.0) == 0.0
        for n in (2, 5, 64):
            assert ops.r_star(n, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_r_star_quadratic(self):
        for n in (2, 3, 17, 64):
            for x in np.linspace(0, 1, 21):
                r = ops.r_star(n, float(x))
                assert 0.0 <= r <= 1.0
                assert r / n + (n - 1) / n * r * r == pytest.approx(x * x, abs=1e-12)

    def test_degree_one_weights(self):
        for x in (0.2, 0.9):
            L = ops.king_at(1, x)
            assert np.allclose(L.weights, [1 - x * x, x * x], atol=1e-15)

    def test_endpoints(self):
        for n in (1, 4, 32):
            assert ops.king_at(n, 0.0).weights[0] == 1.0
            assert ops.king_at(n, 1.0).weights[-1] == pytest.approx(1.0, abs=1e-12)

    def test_reproduces_e2(self, corpus01):
        e2 = corpus01["e2"]
        for n in (1, 2, 8, 64):
            for x in np.linspace(0, 1, 11):
                assert ops.apply(ops.king_at(n, float(x)), e2) == pytest.approx(
                    x * x, abs=1e-9)


class TestTwoPoint:
    @pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 1.0])
    def test_weights(self, a):
        L = ops.two_point(a)
        assert L.weights.tolist() == [1.0 - a, a]

    def test_range_error(self):
        with pytest.raises(ValueError):
            ops.two_point(1.5)

    def test_apply_e1(self, corpus01):
        for a in (0.0, 0.25, 0.7):
            assert ops.apply(ops.two_point(a), corpus01["e1"]) == a


class TestMeasureExample:
    def test_point_mass_multiplicative(self, corpus01):
        t, rhs = scalar.measure_example_T(0.0, corpus01["sinpi"], corpus01["e2"])
        assert t == 0.0 and rhs == 0.0

    def test_lebesgue_variance_of_identity(self, corpus01):
        t, rhs = scalar.measure_example_T(1.0, corpus01["e1"], corpus01["e1"])
        assert t == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert rhs == pytest.approx(0.5, abs=1e-12)

    def test_half_coefficient(self, corpus01):
        _, rhs = scalar.measure_example_T(0.5, corpus01["e1"], corpus01["e1"])
        assert rhs == pytest.approx(0.5 * 0.5 * 1.5, abs=1e-12)

    def test_bound_holds_on_corpus(self, corpus01):
        for a in (0.1, 0.5, 0.9):
            for f in ("e1", "halfstep", "sinpi"):
                for g in ("e2", "randlip"):
                    t, rhs = scalar.measure_example_T(a, corpus01[f], corpus01[g])
                    assert abs(t) <= rhs + 1e-9


class TestLebesgueRule:
    def test_rule_is_leggauss_inside_each_corpus_cell(self):
        t, w = np.polynomial.legendre.leggauss(8)
        xq, wq = ops.lebesgue_rule()
        assert np.array_equal(xq, ((np.arange(32)[:, None] + 0.5 * (1.0 + t)) / 32).ravel())
        assert np.array_equal(wq, np.tile(w / 64.0, 32))
        cell = np.floor(xq * 32.0)
        assert np.array_equal(np.bincount(cell.astype(int)), np.full(32, 8))
        assert np.all(xq * 32.0 > cell)
        assert not (xq.flags.writeable or wq.flags.writeable)

    def test_integrals_match_the_oracle(self, corpus01, lebesgue_oracle):
        """Every unit-corpus member and every product of two, against
        closed forms or quad on the corpus cells, to 1e-14 absolute."""
        xq, wq = ops.lebesgue_rule()
        names = list(corpus01)
        for i, f in enumerate(names):
            vf = corpus01[f].values(xq)
            assert abs(float(vf @ wq) - lebesgue_oracle(f)) <= 1e-14, f
            for g in names[i:]:
                got = float((vf * corpus01[g].values(xq)) @ wq)
                assert abs(got - lebesgue_oracle(f, g)) <= 1e-14, (f, g)

    def test_halfstep_integrals_are_exact(self, corpus01):
        """halfstep jumps at 1/2, a cell end; its integral and that of its
        square come out exactly, summed as mixed_measure_T sums them."""
        xq, wq = ops.lebesgue_rule()
        v = corpus01["halfstep"].values(xq)
        assert (v * wq).sum() == 0.25
        assert ((v * wq) * v).sum() == 0.125
        assert ops.mixed_measure_T(np.array([1.0]), [corpus01["halfstep"]])[0, 0, 0] \
            == 0.0625


class TestApplyAndT:
    def test_partition_of_unity(self, corpus01):
        for n in (1, 6, 64):
            for x in (0.0, 0.31, 1.0):
                assert ops.apply(ops.bernstein_at(n, x), corpus01["e0"]) == \
                    pytest.approx(1.0, abs=1e-13)

    def test_linear_reproduction(self, corpus01):
        e1 = corpus01["e1"]
        for n in (1, 6, 64):
            for x in np.linspace(0, 1, 9):
                assert ops.apply(ops.bernstein_at(n, float(x)), e1) == \
                    pytest.approx(x, abs=1e-13)

    def test_domain_violation(self, corpus01):
        L = ops.bbh_at(2, 1.0)  # nodes reach 2.0
        with pytest.raises(ValueError):
            ops.apply(L, corpus01["e1"])

    def test_domain_violation_names_the_member(self, corpus01):
        L = ops.bbh_at(2, 1.0)  # nodes reach 2.0
        ray = standard_corpus((0.0, math.inf))
        with pytest.raises(ValueError, match=r"\[0.0, 2.0\] leave the domain of 'sinpi'"):
            ops.chebyshev_T(L, ray["e1"], corpus01["sinpi"])
        with pytest.raises(ValueError, match="'hat'"):
            ops.chebyshev_T(L, corpus01["hat"], ray["e1"])

    def test_second_moment_bernstein(self, corpus01):
        e1 = corpus01["e1"]
        for n in (1, 4, 16):
            for x in (0.2, 0.5, 0.77):
                t = ops.chebyshev_T(ops.bernstein_at(n, x), e1, e1)
                assert t == pytest.approx(x * (1 - x) / n, abs=1e-13)

    def test_constant_gives_zero(self, corpus01):
        for L in (ops.bernstein_at(5, 0.3), ops.two_point(0.7)):
            assert abs(ops.chebyshev_T(L, corpus01["e0"], corpus01["e2"])) < 1e-14

    def test_two_point_product(self, corpus01):
        e1 = corpus01["e1"]
        for a in (0.1, 0.25, 0.5):
            assert ops.chebyshev_T(ops.two_point(a), e1, e1) == \
                pytest.approx(a * (1 - a), abs=1e-15)


def _pair_sum(L, f, g):
    """pairwise_identity over a pair form of L built for f and g alone."""
    return ops.pairwise_identity(ops.PairForm(L, (f, g)), f, g)


class TestPairwiseIdentity:
    def test_two_point_exact(self, corpus01):
        e1 = corpus01["e1"]
        for a in (0.1, 0.5, 0.8):
            assert _pair_sum(ops.two_point(a), e1, e1) == \
                pytest.approx(a * (1 - a), abs=1e-16)

    def test_constant_is_exact_zero(self, corpus01):
        L = ops.bernstein_at(7, 0.41)
        assert _pair_sum(L, corpus01["e0"], corpus01["randlip"]) == 0.0

    def test_cross_check_bernstein(self, corpus01):
        L = ops.bernstein_at(3, 0.3)
        t1 = ops.chebyshev_T(L, corpus01["e1"], corpus01["e2"])
        t2 = _pair_sum(L, corpus01["e1"], corpus01["e2"])
        assert t1 == pytest.approx(t2, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("family", [f for f, fam in ops.FAMILY.items()
                                        if fam.nodes is not None])
    def test_form_matches_written_out_sum(self, family):
        # one form per functional serves every ordered corpus pair, bit for
        # bit the sum written out term by term over k < l
        fam = ops.FAMILY[family]
        corpus = standard_corpus(fam.domain)
        funcs = list(corpus.values())
        lo, hi = funcs[0].interval
        for n in ((1,) if fam.one_point else (1, 3, 64)):
            for x in ((0.3, 1.0) if fam.one_point else np.linspace(lo, hi, 5)):
                L = ops.point_functional(family, n, float(x))
                form = ops.PairForm(L, funcs)
                w = L.weights
                k, l = np.triu_indices(w.size, 1)
                for f in funcs:
                    fv = f.values(L.nodes)
                    for g in funcs:
                        gv = g.values(L.nodes)
                        ref = float((w[k] * w[l] * (fv[k] - fv[l]) * (gv[k] - gv[l])).sum())
                        got = ops.pairwise_identity(form, f, g)
                        assert got == ref, (family, n, x, f.name, g.name)
                pairs = w.size * (w.size - 1) // 2
                assert form.ww.size + form.diff.size + form.wdiff.size == \
                    (2 * len(funcs) + 1) * pairs

    @given(st.sampled_from(["bernstein", "sdelta", "king", "bbh"]),
           st.integers(1, 16), st.floats(0.01, 0.99))
    def test_identity_equivalence_property(self, family, n, x):
        corpus = standard_corpus((0.0, 1.0) if family != "bbh" else (0.0, math.inf))
        L = FAMILY_BUILDERS[family](n, x)
        f, g = corpus["sinpi"], corpus["expneg"]
        t1 = ops.chebyshev_T(L, f, g)
        t2 = _pair_sum(L, f, g)
        assert abs(t1 - t2) <= 1e-10 * max(abs(t1), abs(t2)) + 1e-13


#: polynomial corpus members in exact arithmetic
EXACT_MEMBERS = {
    "e0": lambda t: Fraction(1),
    "e1": lambda t: t,
    "e2": lambda t: t * t,
    "hat": lambda t: t * (1 - t),
}


def _exact_functional(family, n, x):
    """Nodes and weights as Fractions, from the family's definition at x."""
    if family == "two_point":
        return [Fraction(0), Fraction(1)], [1 - x, x]
    if family == "bernstein":
        return ([Fraction(k, n) for k in range(n + 1)],
                [math.comb(n, k) * x ** k * (1 - x) ** (n - k) for k in range(n + 1)])
    k, u = divmod(n * x, 1)
    if u == 0:
        return [x], [Fraction(1)]
    return [Fraction(int(k), n), Fraction(int(k) + 1, n)], [1 - u, u]


def _row_loop_pair_sum(L, f, g):
    """The row-by-row pair sum that the vectorised body replaced."""
    fv = f.values(L.nodes)
    gv = g.values(L.nodes)
    w = L.weights
    total = 0.0
    for k in range(w.size - 1):
        total += float(w[k] * np.sum(
            w[k + 1:] * (fv[k] - fv[k + 1:]) * (gv[k] - gv[k + 1:])
        ))
    return total


class TestPairSumOracle:
    @pytest.mark.parametrize("family,degrees", [
        ("two_point", (1,)), ("sdelta", (1, 2, 3, 4)), ("bernstein", (1, 2, 3, 4)),
    ])
    def test_exact_rational(self, family, degrees, corpus01):
        # x = k/16 is exact in binary, so the float routes and the Fraction
        # oracle evaluate the same functional
        builders = {"two_point": lambda n, x: ops.two_point(x),
                    "sdelta": ops.sdelta_at, "bernstein": ops.bernstein_at}
        eps = Fraction(np.finfo(float).eps)
        for n in degrees:
            for k in range(17):
                x = Fraction(k, 16)
                L = builders[family](n, float(x))
                nodes, w = _exact_functional(family, n, x)

                def apply_exact(h):
                    return sum(wk * h(t) for t, wk in zip(nodes, w))

                for a, fa in EXACT_MEMBERS.items():
                    for b, fb in EXACT_MEMBERS.items():
                        means = apply_exact(fa) * apply_exact(fb)
                        exact = apply_exact(lambda t: fa(t) * fb(t)) - means
                        tol = Fraction(1, 10 ** 14) * abs(exact) + Fraction(1, 10 ** 16)
                        where = (family, n, k, a, b)
                        t2 = _pair_sum(L, corpus01[a], corpus01[b])
                        assert abs(Fraction(t2) - exact) <= tol, where
                        # L(fg) - L(f)L(g) cancels against L(f)L(g), so its
                        # error also holds one rounding of that product
                        t1 = ops.chebyshev_T(L, corpus01[a], corpus01[b])
                        assert abs(Fraction(t1) - exact) <= tol + eps * abs(means), where

    @pytest.mark.parametrize("family,domain", [
        ("bernstein", (0.0, 1.0)), ("lagrange_cheb", (-1.0, 1.0)),
    ])
    def test_matches_row_loop(self, family, domain):
        from grusslab.lagrange import lagrange_basis
        build = ops.bernstein_at if family == "bernstein" else lagrange_basis
        corpus = standard_corpus(domain)
        eps = np.finfo(float).eps
        for x in np.linspace(*domain, 5):
            L = build(64, float(x))
            scale = {nm: 1.0 + np.max(np.abs(f.values(L.nodes)))
                     for nm, f in corpus.items()}
            form = ops.PairForm(L, corpus.values())
            for f in corpus.values():
                for g in corpus.values():
                    new = ops.pairwise_identity(form, f, g)
                    ref = _row_loop_pair_sum(L, f, g)
                    floor = 256.0 * eps * scale[f.name] * scale[g.name]
                    assert abs(new - ref) <= 1e-12 * abs(ref) + floor, \
                        (family, x, f.name, g.name)

    def test_pair_indices_cached_read_only(self):
        k, l = ops._pair_indices(5)
        assert ops._pair_indices(5)[0] is k
        assert k.size == 10 and np.all(k < l)
        with pytest.raises(ValueError):
            k[0] = 1


class TestPointFunctionalInvariants:
    @given(st.sampled_from(sorted(FAMILY_BUILDERS)), st.integers(1, 32),
           st.floats(0.0, 0.999))
    def test_partition_and_positivity(self, family, n, x):
        L = FAMILY_BUILDERS[family](n, x)
        assert abs(L.weights.sum() - 1.0) <= L.tail_mass_bound + 1e-10
        assert L.positive and L.weights.min() >= -1e-12
        assert np.unique(L.nodes).size == L.nodes.size

    def test_sign_flip_breaks_partition(self):
        L = ops.bernstein_at(6, 0.37)
        w = L.weights.copy()
        k = int(np.argmax(w))
        w[k] = -w[k]
        with pytest.raises(ValueError):
            ops.PointFunctional(L.nodes, w, positive=False)

    def test_positive_flag_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            ops.PointFunctional(np.array([0.0, 0.5, 1.0]),
                                np.array([0.5, 1.0, -0.5]), positive=True)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            ops.PointFunctional(np.array([0.2, 0.2]), np.array([0.5, 0.5]),
                                positive=True)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError, match="matching nonempty"):
            ops.PointFunctional(np.array([0.0, 1.0]), np.array([1.0]), positive=True)


class TestInputChecks:
    @pytest.mark.parametrize("p", [-0.1, 1.1, math.nan])
    def test_binomial_parameter_outside_unit(self, p):
        with pytest.raises(ValueError, match="binomial parameter"):
            ops._binomial_weights(4, p)

    @pytest.mark.parametrize("x", [-0.1, 1.1, math.nan])
    def test_r_star_outside_unit(self, x):
        with pytest.raises(ValueError, match="r_star requires x"):
            ops.r_star(4, x)

    def test_truncation_hard_cap(self, monkeypatch):
        # masses 0.01 * 0.99^k leave out less than 1e-12 only after about
        # 2,750 terms; the pass that would reach past the cap is never built
        monkeypatch.setattr(ops, "_KCAP", 100)
        ends = []

        def up_ratio(lo, hi):
            ends.append(hi)
            return np.full(hi - lo, 0.99)
        with pytest.raises(ArithmeticError, match="hard cap"):
            ops._ratio_window(math.log(0.01), 0, 4, up_ratio, None, 1e-12)
        assert 0 < max(ends) <= 100

    def test_truncation_hard_cap_before_any_array(self, monkeypatch):
        # a mode past the cap is refused before a ratio is taken
        monkeypatch.setattr(ops, "_KCAP", 100)

        def never(*_):
            raise AssertionError("built a ratio array past the cap")
        with pytest.raises(ArithmeticError, match="hard cap"):
            ops._ratio_window(0.0, 101, 200, never, never, 1e-12)

    def test_truncation_still_extends_a_real_tail(self, monkeypatch):
        # baskakov:1 at x = 25 has a geometric tail of ratio 25/26; past its
        # first reach it still leaves out about 1e-8, so a second pass runs
        w, tail, _, passes = _passes(monkeypatch, "baskakov", 1, 25.0, 1e-12)
        assert len(passes) == 2 and passes[1][0] == passes[0][1]
        assert passes[0][1] < w.size - 1 <= passes[1][1]
        _check_tail_contract("baskakov", 1, 25.0, w, tail, 1e-12)


class TestOperatorSpec:
    def test_roundtrip(self):
        spec = ops.parse_operator_spec("two_point:1:0.25")
        assert spec == ops.OperatorSpec("two_point", 1, 0.25)
        assert spec.spec_string() == "two_point:1:0.25"
        assert ops.parse_operator_spec("bernstein:8") == ops.OperatorSpec("bernstein", 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            ops.parse_operator_spec("durrmeyer:4")
        with pytest.raises(ValueError):
            ops.OperatorSpec("two_point", 1, 1.5)
        with pytest.raises(ValueError):
            ops.OperatorSpec("bernstein", 0)

    @pytest.mark.parametrize("text", ["bernstein:8:0.3", "szasz:4:2", "lagrange_cheb:4:0"])
    def test_parameter_only_where_taken(self, text):
        with pytest.raises(ValueError, match="takes no parameter"):
            ops.parse_operator_spec(text)


def test_chebyshev_monotone_signs(corpus01):
    e1, e2 = corpus01["e1"], corpus01["e2"]
    one_minus = standard_corpus((0.0, 1.0))["e1"]
    L = ops.bernstein_at(8, 0.4)
    assert ops.chebyshev_T(L, e1, e2) > 0.0
    for a in (0.2, 0.5, 0.9):
        t = ops.chebyshev_T(ops.two_point(a), e1, e1)
        assert t >= 0.0
    # antimonotone pair through the pairwise route
    import grusslab.funcspace as fs
    anti = fs.RealFunction("one_minus_e1", (0.0, 1.0),
                           lambda v: 1.0 - np.asarray(v, float))
    for a in (0.2, 0.5, 0.9):
        assert ops.chebyshev_T(ops.two_point(a), e1, anti) == \
            pytest.approx(-a * (1 - a), abs=1e-15)


#: the families with fixed nodes, whose weights take an array of points
FIXED_NODE = [name for name, fam in ops.FAMILY.items()
              if fam.nodes is not None and fam.weights is not None]


def _assert_rows_are_point_calls(family, n, xs):
    """One array call of the family's weights against a point call per x:
    each row holds the point's weights bit for bit at its span, zero off it."""
    fam = ops.FAMILY[family]
    xs = np.asarray(xs, dtype=float)
    w, tail, spans = fam.weights(n, xs, ops.TAIL_EPS)
    size = fam.nodes(n).size
    assert w.shape == (xs.size, size) and tail == 0.0
    for b, x in enumerate(xs.tolist()):
        wx, tx, span = fam.weights(n, x, ops.TAIL_EPS)
        assert wx.ndim == 1 and tx == 0.0, (family, n, x)
        lo, hi = (0, size) if span is None else span
        assert (spans is None) == (span is None), (family, n, x)
        if spans is not None:
            assert tuple(spans[b].tolist()) == (lo, hi), (family, n, x)
        assert w[b, lo:hi].tobytes() == wx.tobytes(), (family, n, x)
        assert not w[b, :lo].any() and not w[b, hi:].any(), (family, n, x)


def _sweep_points(family):
    from grusslab.verify import SuiteConfig, _x_grid
    cfg = SuiteConfig()
    corpus = standard_corpus(ops.FAMILY[family].domain, cfg.seed, cfg.x_max)
    return _x_grid(next(iter(corpus.values())), cfg), cfg


@pytest.mark.parametrize("family", FIXED_NODE)
def test_array_weights_are_point_calls_on_the_sweep(family):
    """Every default degree over the sweep's 257 points."""
    xs, cfg = _sweep_points(family)
    for n in (1,) if ops.FAMILY[family].one_point else cfg.degrees:
        _assert_rows_are_point_calls(family, n, xs)


def test_point_helpers_take_arrays_on_the_sweep():
    """r_star, the sdelta cell and every closed-form second moment: an array
    call gives each point's value bit for bit; a point call of r_star gives a
    float, and of the cell an (int, float) pair."""
    xs, cfg = _sweep_points("bernstein")
    moments = {name: (fam.second_moment, _sweep_points(name)[0])
               for name, fam in ops.FAMILY.items() if fam.second_moment is not None}
    for n in cfg.degrees:
        want = np.array([ops.r_star(n, float(x)) for x in xs])
        assert ops.r_star(n, xs).tobytes() == want.tobytes(), n
        assert type(ops.r_star(n, 0.3)) is float
        k, u = ops._sdelta_cell(n, xs)
        cells = [ops._sdelta_cell(n, float(x)) for x in xs]
        assert k.tolist() == [c[0] for c in cells], n
        assert u.tobytes() == np.array([c[1] for c in cells]).tobytes(), n
        assert all(type(c[0]) is int and type(c[1]) is float for c in cells)
        for family, (moment, pts) in moments.items():
            want = np.array([moment(n, float(x)) for x in pts])
            assert moment(n, pts).tobytes() == want.tobytes(), (family, n)


def _cell_reference(n, x):
    m = n * x
    k = math.floor(m)
    u = m - k
    snap = 32.0 * np.finfo(float).eps * max(1.0, abs(m))
    if u <= snap and k >= 0:
        return k, 0.0
    if 1.0 - u <= snap:
        return k + 1, 0.0
    return k, u


def test_point_helpers_keep_float_arithmetic():
    """The helpers' numpy body gives a point the bits of plain float
    arithmetic: the binomial end mass is the Python power q^n, r_star the
    correctly rounded root, the sdelta cell floor(n x) with its snap, at the
    sweep's points and at knots moved by 1 to 40 ulps."""
    xs, cfg = _sweep_points("bernstein")
    for n in cfg.degrees:
        knots = [_unit_point(("knot", k, j), n)
                 for k in range(n + 1) for j in (-40, -24, -8, -1, 1, 8, 24, 40)]
        for x in xs.tolist() + knots:
            s = min(x, 1.0 - x)
            w = ops._binomial_weights(n, x)
            assert w[0 if x <= 0.5 else n] == (1.0 - s) ** n, (n, x)
            c = 1.0 / (2.0 * (n - 1.0)) if n > 1 else 0.0
            r = x * x if n == 1 else -c + math.sqrt((n / (n - 1.0)) * x * x + c * c)
            assert ops.r_star(n, x) == min(max(r, 0.0), 1.0), (n, x)
            assert ops._sdelta_cell(n, x) == _cell_reference(n, x), (n, x)


def _unit_point(pick, n):
    """A point of [0, 1]: a float as is, ('knot', k, j) the knot k/n moved by
    j ulps, ('cheb', i) a Chebyshev node of degree n mapped from [-1, 1]."""
    if isinstance(pick, float):
        return pick
    if pick[0] == "knot":
        x = min(pick[1], n) / n
        for _ in range(abs(pick[2])):
            x = math.nextafter(x, math.copysign(math.inf, pick[2]))
        return min(max(x, 0.0), 1.0)
    return 0.5 * (1.0 + float(lag.chebyshev_grid(n).nodes[pick[1] % n]))


@given(st.integers(1, 64), st.lists(st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(0.0, 1.0),
    st.tuples(st.just("knot"), st.integers(0, 64), st.integers(-48, 48)),
    st.tuples(st.just("cheb"), st.integers(0, 63))), min_size=1, max_size=12))
def test_array_weights_are_point_calls(n, picks):
    """x = 0, 1/2 and 1, sdelta knots moved by up to 48 ulps, in and past
    the snap, and Chebyshev node hits (in [-1, 1] for lagrange_cheb); bbh
    reads 50 x, so most of its points have p = x/(1 + x) above 1/2, and
    x = 1, where p is 1/2."""
    unit = np.array([_unit_point(p, n) for p in picks])
    nodes = lag.chebyshev_grid(n).nodes
    cheb = np.array([float(nodes[p[1] % n]) if isinstance(p, tuple) and p[0] == "cheb"
                     else 2.0 * x - 1.0 for p, x in zip(picks, unit)])
    points = {"bbh": np.append(50.0 * unit, 1.0), "lagrange_cheb": cheb}
    for family in FIXED_NODE:
        degree = 1 if ops.FAMILY[family].one_point else n
        _assert_rows_are_point_calls(family, degree, points.get(family, unit))
    assert ops.r_star(n, unit).tobytes() == np.array(
        [ops.r_star(n, float(x)) for x in unit]).tobytes()
    k, u = ops._sdelta_cell(n, unit)
    assert list(zip(k.tolist(), u.tolist())) == [ops._sdelta_cell(n, float(x))
                                                for x in unit]

