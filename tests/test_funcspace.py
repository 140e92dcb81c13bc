import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grusslab.funcspace import (CORPUS_NAMES, NodeSet, RealFunction,
                                concave_majorant, envelope_of, modulus,
                                modulus_profile, oscillation, range_on_grid,
                                standard_corpus, uniform_grid)


def brute_oscillation(f, nodes):
    vals = [float(f(x)) for x in nodes]
    return max(abs(a - b) for a in vals for b in vals)


def brute_hull(ts, omega, t):
    """Least concave majorant at t: the best chord over all sample pairs."""
    best = np.interp(t, ts, omega)
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            if ts[i] <= t <= ts[j]:
                lam = (t - ts[i]) / (ts[j] - ts[i])
                best = max(best, (1 - lam) * omega[i] + lam * omega[j])
    return best


class TestOscillation:
    def test_identity_three_nodes(self, corpus01):
        assert oscillation(corpus01["e1"], NodeSet([0.0, 0.5, 1.0])) == 1.0

    def test_dirichlet_rational_nodes_vanishes(self, corpus01):
        nodes = NodeSet(np.arange(8) / 7.0)
        assert oscillation(corpus01["dirichlet"], nodes) == 0.0

    def test_square_brute_force(self, corpus01):
        nodes = [0.0, 0.25, 0.5, 0.75, 1.0]
        expect = brute_oscillation(corpus01["e2"], nodes)
        assert expect == 1.0
        assert oscillation(corpus01["e2"], NodeSet(nodes)) == pytest.approx(expect, abs=0)

    def test_empty_rejected(self, corpus01):
        with pytest.raises(ValueError):
            NodeSet([])
        with pytest.raises(ValueError):
            NodeSet([0.3, 0.3])

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_bounded_by_superset_range(self, corpus01, name):
        f = corpus01[name]
        sub = NodeSet(np.linspace(0.1, 0.9, 7))
        sup = uniform_grid(0.0, 1.0, 101)
        m, big = range_on_grid(f, sup)
        assert oscillation(f, sub) <= big - m + 1e-12


class TestRange:
    def test_identity_unit_grid(self, corpus01):
        assert range_on_grid(corpus01["e1"], uniform_grid(0, 1, 1001)) == (0.0, 1.0)

    def test_hat_vertex_on_grid(self, corpus01):
        m, M = range_on_grid(corpus01["hat"], uniform_grid(0, 1, 1001))
        assert (m, M) == (0.0, 0.25)

    def test_sin_five_points(self, corpus01):
        m, M = range_on_grid(corpus01["sinpi"], uniform_grid(0, 1, 5))
        assert m == pytest.approx(0.0, abs=1e-15)
        assert M == 1.0


class TestModulus:
    def test_identity_largest_gap(self, corpus01):
        grid = uniform_grid(0, 1, 101)
        for t in (0.01, 0.35, 1.0):
            expect = math.floor(t / 0.01 + 1e-9) * 0.01
            assert modulus(corpus01["e1"], t, grid) == pytest.approx(expect, abs=1e-12)

    def test_zero_at_zero(self, corpus01):
        grid = uniform_grid(0, 1, 101)
        for name in CORPUS_NAMES:
            assert modulus(corpus01[name], 0.0, grid) == 0.0

    def test_negative_t_rejected(self, corpus01):
        with pytest.raises(ValueError):
            modulus(corpus01["e1"], -0.1, uniform_grid(0, 1, 11))

    def test_absmid_full_width_brute(self, corpus01):
        f = corpus01["absmid"]
        grid = uniform_grid(0, 1, 101)
        xs = grid.nodes
        expect = max(
            abs(float(f(a)) - float(f(b)))
            for a in xs for b in xs if abs(a - b) <= 1.0
        )
        assert expect == 0.5
        assert modulus(f, 1.0, grid) == pytest.approx(expect, abs=0)

    @pytest.mark.parametrize("name", ["e2", "sinpi", "halfstep", "randlip"])
    def test_monotone_in_t(self, corpus01, name):
        grid = uniform_grid(0, 1, 201)
        vals = [modulus(corpus01[name], t, grid) for t in np.linspace(0, 1, 9)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    @given(k1=st.integers(1, 40), k2=st.integers(1, 40))
    def test_subadditive_on_aligned_lags(self, k1, k2):
        corpus = standard_corpus((0.0, 1.0))
        f = corpus["randlip"]
        grid = uniform_grid(0, 1, 101)
        h = 0.01
        if (k1 + k2) * h > 1.0:
            return
        w = lambda k: modulus(f, k * h + 1e-12, grid)
        assert w(k1 + k2) <= w(k1) + w(k2) + 1e-12


class TestConcaveMajorant:
    def test_linear_modulus_is_fixed_point(self, corpus01):
        env = envelope_of(corpus01["e1"], uniform_grid(0, 1, 101))
        for t in np.linspace(0, 1, 23):
            assert env.hull_value(t) == pytest.approx(t, abs=1e-14)

    def test_already_concave_kept(self):
        env = concave_majorant([0.0, 0.5, 1.0], [0.0, 0.3, 0.4])
        assert env.hull_t.tolist() == [0.0, 0.5, 1.0]
        assert env.hull_y.tolist() == [0.0, 0.3, 0.4]

    def test_chord_dominates_dent(self):
        env = concave_majorant([0.0, 0.5, 1.0], [0.0, 0.1, 0.4])
        assert env.hull_value(0.5) == pytest.approx(0.2, abs=1e-15)
        assert env.hull_t.tolist() == [0.0, 1.0]

    def test_matches_brute_chord_oracle(self):
        ts = np.linspace(0.0, 1.0, 21)
        rng = np.random.default_rng(7)
        omega = np.maximum.accumulate(np.concatenate([[0.0], rng.uniform(0, 1, 20)]))
        env = concave_majorant(ts, omega)
        for t in np.linspace(0, 1, 41):
            assert env.hull_value(t) == pytest.approx(brute_hull(ts, omega, t), abs=1e-12)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            concave_majorant([0.0, 0.6, 0.5], [0.0, 0.1, 0.2])
        with pytest.raises(ValueError):
            concave_majorant([0.1, 0.2], [0.0, 0.1])

    def test_constant_beyond_diameter(self, corpus01):
        env = envelope_of(corpus01["sinpi"], uniform_grid(0, 1, 201))
        assert env.hull_value(5.0) == env.hull_value(1.0)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_envelope_invariants(self, corpus01, name):
        env = envelope_of(corpus01[name], uniform_grid(0, 1, 301))
        # dominates samples
        assert np.all(env.hull_value(env.ts) >= env.omega - 1e-12)
        # concave: hull slopes nonincreasing
        if len(env.hull_t) > 2:
            slopes = np.diff(env.hull_y) / np.diff(env.hull_t)
            assert np.all(np.diff(slopes) <= 1e-12)
        # agrees with the modulus at the full diameter
        assert env.hull_value(env.diameter) == pytest.approx(env.omega[-1], abs=1e-13)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_random_samples_dominated(self, seed):
        rng = np.random.default_rng(seed)
        ts = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 1.0, 6))])
        ts = np.unique(ts)
        om = np.maximum.accumulate(np.concatenate([[0.0], rng.uniform(0, 1, len(ts) - 1)]))
        env = concave_majorant(ts, om)
        assert np.all(env.hull_value(ts) >= om - 1e-12)
        assert env.hull_value(ts[-1]) == pytest.approx(om[-1], abs=1e-13)


class TestProfile:
    def test_profile_matches_pointwise_modulus(self, corpus01):
        f = corpus01["randlip"]
        grid = uniform_grid(0, 1, 51)
        ts, om = modulus_profile(f, grid)
        for k in (1, 7, 25, 50):
            assert om[k] == pytest.approx(modulus(f, ts[k] + 1e-12, grid), abs=1e-12)

    def test_needs_uniform_grid(self, corpus01):
        with pytest.raises(ValueError):
            modulus_profile(corpus01["e1"], NodeSet([0.0, 0.1, 0.5]))

    def test_needs_two_points(self, corpus01):
        with pytest.raises(ValueError, match="at least 2 grid points"):
            modulus_profile(corpus01["e1"], NodeSet([0.5]))


class TestInputChecks:
    def test_empty_domain(self):
        with pytest.raises(ValueError, match="empty domain"):
            RealFunction("flat", (1.0, 1.0), lambda x: x)

    def test_grid_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            uniform_grid(0.0, 1.0, 1)

    @pytest.mark.parametrize("ts,omega", [
        (np.zeros((2, 2)), np.zeros((2, 2))),
        (np.array([0.0, 1.0]), np.array([0.0])),
        (np.array([]), np.array([])),
    ])
    def test_majorant_needs_matching_1d_samples(self, ts, omega):
        with pytest.raises(ValueError, match="matching nonempty 1-d"):
            concave_majorant(ts, omega)


def test_randlip_is_lipschitz_and_seeded():
    a = standard_corpus((0.0, 1.0), seed=123)["randlip"]
    b = standard_corpus((0.0, 1.0), seed=123)["randlip"]
    c = standard_corpus((0.0, 1.0), seed=124)["randlip"]
    xs = np.linspace(0, 1, 400)
    assert np.array_equal(a.values(xs), b.values(xs))
    assert not np.array_equal(a.values(xs), c.values(xs))
    d = np.abs(np.diff(a.values(xs))) / np.diff(xs)
    assert d.max() <= 1.0 + 1e-9
