import numpy as np
import pytest

from grusslab import bounds as bnd
from grusslab import lagrange as lag
from grusslab import operators as ops
from grusslab import special as sp
from grusslab.funcspace import (NodeSet, oscillation, range_on_grid,
                                standard_corpus, uniform_grid)
from grusslab.verify import FAMILY_DOMAINS, build_point_functional, one_shot_bounds


class TestGrussQuarter:
    def test_unit_ranges(self):
        assert bnd.gruss_quarter(0, 1, 0, 1) == 0.25

    def test_scaled(self):
        assert bnd.gruss_quarter(0, 2, 0, 3) == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            bnd.gruss_quarter(1, 0, 0, 1)

    def test_dominates_T_for_positive_functionals(self, corpus01):
        e1 = corpus01["e1"]
        grid = uniform_grid(0, 1, 101)
        m, M = range_on_grid(e1, grid)
        for n in (1, 4, 16):
            for x in np.linspace(0, 1, 9):
                t = abs(ops.chebyshev_T(ops.bernstein_at(n, float(x)), e1, e1))
                assert t <= bnd.gruss_quarter(m, M, m, M) + 1e-12


class TestMercer:
    def test_two_point_equality(self, corpus01):
        e1 = corpus01["e1"]
        for a in (0.1, 0.25, 0.5, 0.9):
            L = ops.two_point(a)
            rng = bnd.node_ranges(L, e1, e1)
            got = bnd.mercer_bound(L, e1, e1, rng)
            assert got == pytest.approx(a * (1 - a), abs=1e-15)
            assert got == pytest.approx(abs(ops.chebyshev_T(L, e1, e1)), abs=1e-14)

    def test_constant_gives_zero(self, corpus01):
        L = ops.bernstein_at(5, 0.4)
        rng = bnd.node_ranges(L, corpus01["e0"], corpus01["e2"])
        assert bnd.mercer_bound(L, corpus01["e0"], corpus01["e2"], rng) == 0.0

    def test_dominates_T(self, corpus01):
        f, g = corpus01["e1"], corpus01["e2"]
        L = ops.bernstein_at(4, 0.3)
        rng = bnd.node_ranges(L, f, g)
        assert abs(ops.chebyshev_T(L, f, g)) <= \
            bnd.mercer_bound(L, f, g, rng) + 1e-12

    def test_below_gruss(self, corpus01):
        for f_name, g_name in (("e1", "e2"), ("sinpi", "halfstep"), ("hat", "randlip")):
            f, g = corpus01[f_name], corpus01[g_name]
            for n, x in ((2, 0.3), (8, 0.71)):
                L = ops.bernstein_at(n, x)
                (m, M), (p, P) = bnd.node_ranges(L, f, g)
                assert bnd.mercer_bound(L, f, g, ((m, M), (p, P))) <= \
                    bnd.gruss_quarter(m, M, p, P) + 1e-12

    def test_signed_rejected(self, corpus_pm):
        L = ops.PointFunctional(np.array([0.0, 1.0]), np.array([1.5, -0.5]),
                                positive=False)
        with pytest.raises(ValueError):
            bnd.mercer_bound(L, corpus_pm["e1"], corpus_pm["e1"],
                             ((0, 1), (0, 1)))


class TestClassicalWS:
    def test_bernstein_identity_equality(self, corpus01):
        e1 = corpus01["e1"]
        for n, x in ((1, 0.5), (4, 0.3), (16, 0.9)):
            lhs = abs(ops.chebyshev_T(ops.bernstein_at(n, x), e1, e1))
            rhs = bnd.classical_ws_bound("bernstein", n, x, e1, e1)
            assert abs(lhs - rhs) <= 1e-10

    def test_sdelta_zero_at_knots(self, corpus01):
        f, g = corpus01["sinpi"], corpus01["e2"]
        assert bnd.classical_ws_bound("sdelta", 4, 0.25, f, g) == 0.0

    def test_king_zero_at_one(self, corpus01):
        f, g = corpus01["e1"], corpus01["e2"]
        assert bnd.classical_ws_bound("king", 1, 1.0, f, g) == 0.0
        lhs = abs(ops.chebyshev_T(ops.king_at(1, 1.0), f, g))
        assert lhs <= 1e-12

    def test_unsupported_family(self, corpus01):
        with pytest.raises(ValueError):
            bnd.classical_ws_bound("szasz", 2, 0.5, corpus01["e1"], corpus01["e1"])

    def test_uniform_majorizes_pointwise(self, corpus01):
        f, g = corpus01["sinpi"], corpus01["randlip"]
        for n in (1, 4, 16):
            uni = bnd.classical_ws_uniform("bernstein", n, f, g)
            for x in np.linspace(0, 1, 11):
                assert bnd.classical_ws_bound("bernstein", n, float(x), f, g) <= \
                    uni + 1e-12


class TestNewBounds:
    def test_two_point_equality(self, corpus01):
        e1 = corpus01["e1"]
        for a in (0.1, 0.25, 0.5, 0.9):
            L = ops.two_point(a)
            assert bnd.new_bound_positive(L, e1, e1) == pytest.approx(
                a * (1 - a), abs=1e-15)

    def test_point_mass_zero(self, corpus01):
        L = ops.bernstein_at(6, 0.0)
        assert bnd.new_bound_positive(L, corpus01["sinpi"], corpus01["e2"]) == \
            pytest.approx(0.0, abs=1e-15)

    def test_bernstein_phi_route(self, corpus01):
        f, g = corpus01["sinpi"], corpus01["e2"]
        for n, x in ((2, 0.3), (8, 0.62)):
            L = ops.bernstein_at(n, x)
            nodes = L.node_set
            want = 0.5 * (1 - sp.phi_bernstein(n, x)) * \
                oscillation(f, nodes) * oscillation(g, nodes)
            assert bnd.new_bound_positive(L, f, g) == pytest.approx(want, rel=1e-12)

    def test_positive_required(self, corpus_pm):
        L = ops.PointFunctional(np.array([0.0, 1.0]), np.array([1.5, -0.5]),
                                positive=False)
        with pytest.raises(ValueError):
            bnd.new_bound_positive(L, corpus_pm["e1"], corpus_pm["e1"])

    def test_signed_two_point_equality(self, corpus01):
        e1 = corpus01["e1"]
        L = ops.PointFunctional(np.array([0.0, 1.0]), np.array([1.5, -0.5]),
                                positive=False)
        rhs = bnd.new_bound_signed(L, e1, e1)
        assert rhs == pytest.approx(0.75, abs=1e-15)
        assert abs(ops.chebyshev_T(L, e1, e1)) == pytest.approx(0.75, abs=1e-15)

    def test_signed_equals_positive_for_positive_weights(self, corpus01):
        f, g = corpus01["hat"], corpus01["expneg"]
        for L in (ops.bernstein_at(5, 0.44), ops.two_point(0.3),
                  ops.sdelta_at(7, 0.13)):
            assert bnd.new_bound_signed(L, f, g) == pytest.approx(
                bnd.new_bound_positive(L, f, g), rel=1e-14, abs=1e-300)


class TestSpecializedRhs:
    def test_values(self):
        assert bnd.specialized_rhs("bernstein", 2) == pytest.approx(0.3125, abs=0)
        assert bnd.specialized_rhs("szasz", 17) == 0.5
        assert bnd.specialized_rhs("sdelta", 9) == 0.25
        assert bnd.specialized_rhs("king", 1) == 0.25
        assert bnd.specialized_rhs("king", 4) == 0.4
        assert bnd.specialized_rhs("bbh", 2) == pytest.approx(0.3125, abs=0)

    def test_baskakov_pointwise(self):
        assert bnd.specialized_rhs("baskakov", 3, 0.0) == 0.0
        x = 2.0
        want = 0.5 * (1 - sp.theta_baskakov(3, x))
        assert bnd.specialized_rhs("baskakov", 3, x) == pytest.approx(want, abs=0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            bnd.specialized_rhs("lagrange_cheb", 3)

    def test_majorizes_pointwise_coefficient(self):
        for x in np.linspace(0, 1, 21):
            x = float(x)
            for n in (1, 2, 8, 64):
                assert bnd.specialized_rhs("bernstein", n) >= \
                    0.5 * (1 - sp.phi_bernstein(n, x)) - 1e-12
                assert bnd.specialized_rhs("sdelta", n) >= \
                    0.5 * (1 - sp.tau_hat(n, x)) - 1e-12
                assert bnd.specialized_rhs("king", n) >= \
                    0.5 * (1 - sp.king_sumsq(n, x)) - 1e-12
        for x in np.linspace(0, 50, 21):
            x = float(x)
            for n in (1, 2, 8):
                assert bnd.specialized_rhs("szasz", n) >= \
                    0.5 * (1 - sp.sigma_szasz(n, x)) - 1e-12
                assert bnd.specialized_rhs("bbh", n) >= \
                    0.5 * (1 - sp.psi_bbh(n, x)) - 1e-12


class TestDominanceLattice:
    def test_chain_for_positive_cells(self, corpus01):
        pairs = [("e1", "e2"), ("sinpi", "halfstep"), ("randlip", "hat")]
        for f_name, g_name in pairs:
            f, g = corpus01[f_name], corpus01[g_name]
            for n, x in ((1, 0.5), (4, 0.21), (16, 0.83)):
                L = ops.bernstein_at(n, x)
                lhs = abs(ops.chebyshev_T(L, f, g))
                nodes = L.node_set
                osc_fg = oscillation(f, nodes) * oscillation(g, nodes)
                new = bnd.new_bound_positive(L, f, g)
                fam = bnd.specialized_rhs("bernstein", n) * osc_fg
                assert lhs <= new + 1e-9
                assert new <= fam + 1e-9

    def test_sdelta_remark_quarter_osc_below_gruss(self, corpus01):
        grid = uniform_grid(0, 1, 101)
        names = ("e1", "e2", "hat", "sinpi", "halfstep", "randlip")
        for f_name in names:
            for g_name in names:
                f, g = corpus01[f_name], corpus01[g_name]
                nodes = NodeSet(np.arange(9) / 8.0)
                lhs = 0.25 * oscillation(f, nodes) * oscillation(g, nodes)
                (m, M) = range_on_grid(f, grid)
                (p, P) = range_on_grid(g, grid)
                assert lhs <= bnd.gruss_quarter(m, M, p, P) + 1e-12


class TestBoundResult:
    def test_margins_and_serialization(self):
        rec = bnd.BoundResult(operator="bernstein:4", n=4, x=0.3, f="e1", g="e2",
                              lhs=0.1, rhs={"a": 0.3, "b": 0.2})
        assert rec.margins == pytest.approx({"a": 0.2, "b": 0.1})
        d = rec.to_dict()
        assert list(d["rhs"]) == ["a", "b"]
        assert d["operator"] == "bernstein:4"

    def test_evaluate_cell_bernstein(self, corpus01):
        L = ops.bernstein_at(8, 0.3)
        rec = bnd.evaluate_cell("bernstein:8", 8, 0.3, L,
                                corpus01["e1"], corpus01["e2"], family="bernstein")
        for name in ("new_osc", "new_osc_family", "new_osc_degree",
                     "gruss_quarter", "mercer", "classical_ws",
                     "classical_ws_uniform"):
            assert name in rec.rhs
            assert rec.margins[name] >= -1e-9


def test_margin_allowance_budget():
    base = bnd.allowance(0.5, 1.0)
    assert base == pytest.approx(1e-9, abs=1e-12)
    trunc = bnd.allowance(0.5, 1.0, bnd.truncation_slack(1e-12, 10.0, 10.0))
    assert trunc > base
    quad = bnd.allowance(0.5, 1.0, bnd.quadrature_slack(2048, 1.0, 1.0))
    assert quad == pytest.approx(1e-9 + 16.0 / 2048.0, rel=1e-6)


AGREEMENT_POINTS = {
    "bernstein": ((3, 16), (0.0, 0.37, 0.81)),
    "sdelta": ((3, 16), (0.0, 0.37, 0.81)),
    "king": ((3, 16), (0.0, 0.37, 0.81)),
    "szasz": ((3, 16), (0.0, 2.5, 40.0)),
    "baskakov": ((3, 16), (0.0, 2.5, 40.0)),
    "bbh": ((3, 16), (0.0, 2.5, 40.0)),
    "two_point": ((1,), (0.0, 0.37, 1.0)),
    "measure_example": ((1,), (0.0, 0.37, 1.0)),
    "lagrange_cheb": ((3, 16), (-1.0, 0.23, 0.9)),
}


def _references(family, n, x, L, f, g):
    """Every one-shot rhs from the scalar reference functions."""
    if family == "measure_example":
        return {"measure_support": ops.measure_example_T(x, f, g)[1]}
    if family == "lagrange_cheb":
        out = dict(lag.lagrange_classical_bound(n, f, g))
        out["new_osc"] = bnd.new_bound_signed(L, f, g)
        return out
    nodes = L.node_set
    osc_fg = oscillation(f, nodes) * oscillation(g, nodes)
    rng = bnd.node_ranges(L, f, g)
    out = {"new_osc": bnd.new_bound_positive(L, f, g),
           "gruss_quarter": bnd.gruss_quarter(*rng[0], *rng[1]),
           "mercer": bnd.mercer_bound(L, f, g, rng)}
    if family != "two_point":
        out["new_osc_family"] = bnd.specialized_rhs(family, n, x) * osc_fg
    if family in ("bernstein", "king"):
        out["new_osc_degree"] = n / (2.0 * (n + 1.0)) * osc_fg
    if family in ("bernstein", "sdelta", "king"):
        out["classical_ws"] = bnd.classical_ws_bound(family, n, x, f, g)
    if family in ("bernstein", "sdelta"):
        out["classical_ws_uniform"] = bnd.classical_ws_uniform(family, n, f, g)
    return out


@pytest.mark.parametrize("family", sorted(AGREEMENT_POINTS))
def test_one_shot_agrees_with_scalar_references(family):
    """The table's one-shot rhs against the scalar (L, f, g) references, over
    every corpus pair, to 1e-12 relative plus the declared truncation slack."""
    corpus = standard_corpus(FAMILY_DOMAINS[family])
    degrees, xs = AGREEMENT_POINTS[family]
    for n in degrees:
        for x in xs:
            param = x if family in ("two_point", "measure_example") else None
            spec = ops.OperatorSpec(family, n, param)
            L = None if family == "measure_example" else build_point_functional(spec, x)
            for f in corpus.values():
                for g in corpus.values():
                    got = one_shot_bounds(spec, x, f, g).rhs
                    want = _references(family, n, x, L, f, g)
                    assert set(got) == set(want)
                    slack = 0.0
                    if family in bnd.TRUNCATED_FAMILIES:
                        nodes = L.node_set
                        slack = bnd.truncation_slack(
                            L.tail_mass_bound, oscillation(f, nodes), oscillation(g, nodes))
                    for name, ref in want.items():
                        tol = 1e-12 * max(abs(got[name]), abs(ref)) + slack
                        assert abs(got[name] - ref) <= tol, (family, n, x, f.name,
                                                             g.name, name, got[name], ref)
