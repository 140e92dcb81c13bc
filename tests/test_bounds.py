import math

import numpy as np
import pytest
import scalar_bounds as scalar

from grusslab import bounds as bnd
from grusslab import lagrange as lag
from grusslab import operators as ops
from grusslab import special as sp
from grusslab.funcspace import (NodeSet, oscillation, range_on_grid,
                                standard_corpus, uniform_grid)
from grusslab.verify import one_shot_bounds

#: families whose functionals are cut at a declared tail mass
TRUNCATED = tuple(name for name, fam in ops.FAMILY.items() if fam.truncated)


class TestGrussQuarter:
    def test_unit_ranges(self):
        assert scalar.gruss_quarter(0, 1, 0, 1) == 0.25

    def test_scaled(self):
        assert scalar.gruss_quarter(0, 2, 0, 3) == 1.5

    def test_dominates_T_for_positive_functionals(self, corpus01):
        e1 = corpus01["e1"]
        grid = uniform_grid(0, 1, 101)
        m, M = range_on_grid(e1, grid)
        for n in (1, 4, 16):
            for x in np.linspace(0, 1, 9):
                t = abs(ops.chebyshev_T(ops.bernstein_at(n, float(x)), e1, e1))
                assert t <= scalar.gruss_quarter(m, M, m, M) + 1e-12


class TestMercer:
    def test_two_point_equality(self, corpus01):
        e1 = corpus01["e1"]
        for a in (0.1, 0.25, 0.5, 0.9):
            L = ops.two_point(a)
            rng = scalar.node_ranges(L, e1, e1)
            got = scalar.mercer_bound(L, e1, e1, rng)
            assert got == pytest.approx(a * (1 - a), abs=1e-15)
            assert got == pytest.approx(abs(ops.chebyshev_T(L, e1, e1)), abs=1e-14)

    def test_constant_gives_zero(self, corpus01):
        L = ops.bernstein_at(5, 0.4)
        rng = scalar.node_ranges(L, corpus01["e0"], corpus01["e2"])
        assert scalar.mercer_bound(L, corpus01["e0"], corpus01["e2"], rng) == 0.0

    def test_dominates_T(self, corpus01):
        f, g = corpus01["e1"], corpus01["e2"]
        L = ops.bernstein_at(4, 0.3)
        rng = scalar.node_ranges(L, f, g)
        assert abs(ops.chebyshev_T(L, f, g)) <= \
            scalar.mercer_bound(L, f, g, rng) + 1e-12

    def test_below_gruss(self, corpus01):
        for f_name, g_name in (("e1", "e2"), ("sinpi", "halfstep"), ("hat", "randlip")):
            f, g = corpus01[f_name], corpus01[g_name]
            for n, x in ((2, 0.3), (8, 0.71)):
                L = ops.bernstein_at(n, x)
                (m, M), (p, P) = scalar.node_ranges(L, f, g)
                assert scalar.mercer_bound(L, f, g, ((m, M), (p, P))) <= \
                    scalar.gruss_quarter(m, M, p, P) + 1e-12

    def test_inverted_range_rejected(self, corpus01):
        e1 = corpus01["e1"]
        with pytest.raises(ValueError, match="m <= M"):
            scalar.mercer_bound(ops.bernstein_at(4, 0.3), e1, e1, ((1.0, 0.0), (0.0, 1.0)))


class TestClassicalWS:
    def test_bernstein_identity_equality(self, corpus01):
        e1 = corpus01["e1"]
        for n, x in ((1, 0.5), (4, 0.3), (16, 0.9)):
            lhs = abs(ops.chebyshev_T(ops.bernstein_at(n, x), e1, e1))
            rhs = scalar.classical_ws_bound("bernstein", n, x, e1, e1)
            assert abs(lhs - rhs) <= 1e-10

    def test_sdelta_zero_at_knots(self, corpus01):
        f, g = corpus01["sinpi"], corpus01["e2"]
        assert scalar.classical_ws_bound("sdelta", 4, 0.25, f, g) == 0.0

    def test_king_zero_at_one(self, corpus01):
        f, g = corpus01["e1"], corpus01["e2"]
        assert scalar.classical_ws_bound("king", 1, 1.0, f, g) == 0.0
        lhs = abs(ops.chebyshev_T(ops.king_at(1, 1.0), f, g))
        assert lhs <= 1e-12

    def test_unsupported_family(self, corpus01):
        with pytest.raises(ValueError):
            scalar.classical_ws_bound("szasz", 2, 0.5, corpus01["e1"], corpus01["e1"])

    def test_no_uniform_form_for_king(self, corpus01):
        with pytest.raises(ValueError, match="no x-free classical form"):
            scalar.classical_ws_uniform("king", 4, corpus01["e1"], corpus01["e1"])

    def test_uniform_majorizes_pointwise(self, corpus01):
        f, g = corpus01["sinpi"], corpus01["randlip"]
        for n in (1, 4, 16):
            uni = scalar.classical_ws_uniform("bernstein", n, f, g)
            for x in np.linspace(0, 1, 11):
                assert scalar.classical_ws_bound("bernstein", n, float(x), f, g) <= \
                    uni + 1e-12


class TestNewBounds:
    def test_two_point_equality(self, corpus01):
        e1 = corpus01["e1"]
        for a in (0.1, 0.25, 0.5, 0.9):
            L = ops.two_point(a)
            assert scalar.new_bound_positive(L, e1, e1) == pytest.approx(
                a * (1 - a), abs=1e-15)

    def test_point_mass_zero(self, corpus01):
        L = ops.bernstein_at(6, 0.0)
        assert scalar.new_bound_positive(L, corpus01["sinpi"], corpus01["e2"]) == \
            pytest.approx(0.0, abs=1e-15)

    def test_bernstein_phi_route(self, corpus01):
        f, g = corpus01["sinpi"], corpus01["e2"]
        for n, x in ((2, 0.3), (8, 0.62)):
            L = ops.bernstein_at(n, x)
            nodes = L.node_set
            want = 0.5 * (1 - sp.phi_bernstein(n, x)) * \
                oscillation(f, nodes) * oscillation(g, nodes)
            assert scalar.new_bound_positive(L, f, g) == pytest.approx(want, rel=1e-12)

    def test_positive_required(self, corpus_pm):
        L = ops.PointFunctional(np.array([0.0, 1.0]), np.array([1.5, -0.5]),
                                positive=False)
        with pytest.raises(ValueError):
            scalar.new_bound_positive(L, corpus_pm["e1"], corpus_pm["e1"])

    def test_signed_two_point_equality(self, corpus01):
        e1 = corpus01["e1"]
        L = ops.PointFunctional(np.array([0.0, 1.0]), np.array([1.5, -0.5]),
                                positive=False)
        rhs = scalar.new_bound_signed(L, e1, e1)
        assert rhs == pytest.approx(0.75, abs=1e-15)
        assert abs(ops.chebyshev_T(L, e1, e1)) == pytest.approx(0.75, abs=1e-15)

    def test_signed_equals_positive_for_positive_weights(self, corpus01):
        f, g = corpus01["hat"], corpus01["expneg"]
        for L in (ops.bernstein_at(5, 0.44), ops.two_point(0.3),
                  ops.sdelta_at(7, 0.13)):
            assert scalar.new_bound_signed(L, f, g) == pytest.approx(
                scalar.new_bound_positive(L, f, g), rel=1e-14, abs=1e-300)


class TestSpecializedRhs:
    def test_values(self):
        assert scalar.specialized_rhs("bernstein", 2) == pytest.approx(0.3125, abs=0)
        assert scalar.specialized_rhs("szasz", 17) == 0.5
        assert scalar.specialized_rhs("sdelta", 9) == 0.25
        assert scalar.specialized_rhs("king", 1) == 0.25
        assert scalar.specialized_rhs("king", 4) == 0.4
        assert scalar.specialized_rhs("bbh", 2) == pytest.approx(0.3125, abs=0)

    def test_baskakov_pointwise(self):
        assert scalar.specialized_rhs("baskakov", 3, 0.0) == 0.0
        x = 2.0
        want = 0.5 * (1 - sp.theta_baskakov(3, x))
        assert scalar.specialized_rhs("baskakov", 3, x) == pytest.approx(want, abs=0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            scalar.specialized_rhs("lagrange_cheb", 3)

    def test_majorizes_pointwise_coefficient(self):
        for x in np.linspace(0, 1, 21):
            x = float(x)
            for n in (1, 2, 8, 64):
                assert scalar.specialized_rhs("bernstein", n) >= \
                    0.5 * (1 - sp.phi_bernstein(n, x)) - 1e-12
                assert scalar.specialized_rhs("sdelta", n) >= \
                    0.5 * (1 - sp.tau_hat(n, x)) - 1e-12
                assert scalar.specialized_rhs("king", n) >= \
                    0.5 * (1 - sp.king_sumsq(n, x)) - 1e-12
        for x in np.linspace(0, 50, 21):
            x = float(x)
            for n in (1, 2, 8):
                assert scalar.specialized_rhs("szasz", n) >= \
                    0.5 * (1 - sp.sigma_szasz(n, x)) - 1e-12
                assert scalar.specialized_rhs("bbh", n) >= \
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
                new = scalar.new_bound_positive(L, f, g)
                fam = scalar.specialized_rhs("bernstein", n) * osc_fg
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
                assert lhs <= scalar.gruss_quarter(m, M, p, P) + 1e-12


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
    grid = bnd.allowance(0.5, 1.0, bnd.modulus_slack(1e-3, 1.0, 1.0))
    assert grid == pytest.approx(1e-9 + 2e-3 + 4e-6, rel=1e-6)


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
        return {"measure_support": scalar.measure_example_T(x, f, g)[1]}
    if family == "lagrange_cheb":
        out = dict(scalar.lagrange_classical_bound(n, f, g))
        out["new_osc"] = scalar.new_bound_signed(L, f, g)
        return out
    nodes = L.node_set
    osc_fg = oscillation(f, nodes) * oscillation(g, nodes)
    rng = scalar.node_ranges(L, f, g)
    out = {"new_osc": scalar.new_bound_positive(L, f, g),
           "gruss_quarter": scalar.gruss_quarter(*rng[0], *rng[1]),
           "mercer": scalar.mercer_bound(L, f, g, rng)}
    if family != "two_point":
        out["new_osc_family"] = scalar.specialized_rhs(family, n, x) * osc_fg
    if family in ("bernstein", "king"):
        out["new_osc_degree"] = n / (2.0 * (n + 1.0)) * osc_fg
    if family in ("bernstein", "sdelta", "king"):
        out["classical_ws"] = scalar.classical_ws_bound(family, n, x, f, g)
    if family in ("bernstein", "sdelta"):
        out["classical_ws_uniform"] = scalar.classical_ws_uniform(family, n, f, g)
    return out


@pytest.mark.parametrize("family", sorted(AGREEMENT_POINTS))
def test_one_shot_agrees_with_scalar_references(family):
    """The table's one-shot rhs against the scalar (L, f, g) references, over
    every corpus pair, to 1e-12 relative."""
    corpus = standard_corpus(ops.FAMILY[family].domain)
    degrees, xs = AGREEMENT_POINTS[family]
    for n in degrees:
        for x in xs:
            param = x if family in ("two_point", "measure_example") else None
            spec = ops.OperatorSpec(family, n, param)
            L = None if family == "measure_example" else ops.point_functional(family, n, x)
            for f in corpus.values():
                for g in corpus.values():
                    got = one_shot_bounds(spec, x, f, g).rhs
                    want = _references(family, n, x, L, f, g)
                    assert set(got) == set(want)
                    for name, ref in want.items():
                        tol = 1e-12 * max(abs(got[name]), abs(ref))
                        assert abs(got[name] - ref) <= tol, (family, n, x, f.name,
                                                             g.name, name, got[name], ref)


# ---------------------------------------------------------------------------
# batches against a per-cell reference

REFERENCE_DEGREES = {"two_point": (1,), "measure_example": (1,)}
REFERENCE_XGRID = 17
EPS = np.finfo(float).eps


def _reference_cells(block, lebesgue_oracle):
    """(x, v, w, T, osc) one point at a time, each from the family's own
    functional: no padding, no shared node array.  The mixed measure's
    Lebesgue integrals come from the test oracle."""
    fam, n = block.family, block.n
    funcs = block.funcs
    for x in block.xs:
        x = float(x)
        if fam == "measure_example":
            int_v = np.array([lebesgue_oracle(f.name) for f in funcs])
            int_prod = np.array([[lebesgue_oracle(f.name, g.name) for g in funcs]
                                 for f in funcs])
            mid = np.array([f.values(np.array([0.5]))[0] for f in funcs])
            lf = x * int_v + (1.0 - x) * mid
            lfg = x * int_prod + (1.0 - x) * np.outer(mid, mid)
            yield x, None, None, lfg - np.outer(lf, lf), block.grid_osc
            continue
        if fam == "sdelta":
            k, u = ops._sdelta_cell(n, x)
            nodes = (np.array([min(k, n) / n]) if u == 0.0
                     else np.array([k / n, (k + 1) / n]))
            w = np.array([1.0]) if u == 0.0 else np.array([1.0 - u, u])
        else:
            L = ops.point_functional(fam, n, x, block.tail_eps)
            nodes, w = L.nodes, L.weights
        v = np.stack([f.values(nodes) for f in funcs])
        a = v @ w
        t = (v * w) @ v.T - np.outer(a, a)
        yield x, v, w, t, v.max(axis=1) - v.min(axis=1)


def _reference_rows(block, x, v, w, t, osc):
    """name -> (lower, margin, allowance) at one point, written out per row;
    a truncated family's rows get the base allowance alone."""
    fam, n, h = block.family, block.n, block.envelope_step
    lhs, oo = np.abs(t), np.outer(osc, osc)

    def env(step):
        return np.array([bnd.cached_envelope(f, block.grid_n).hull_value(step)
                         for f in block.funcs])

    def modulus(e):
        return h * np.add.outer(e, e) + 4.0 * h * h

    rhs, slack = {}, {}
    if w is not None:
        ssq = w @ w
        pair = (max(0.0, 0.5 * (np.abs(w).sum() ** 2 - ssq)) if fam == "lagrange_cheb"
                else 0.5 * (1.0 - ssq))
        rhs["new_osc"], slack["new_osc"] = pair * oo, 0.0
        if fam != "lagrange_cheb":
            dev = np.abs(v - (v @ w)[:, None]) @ w
            rhs["mercer"] = 0.5 * np.minimum(np.outer(osc, dev), np.outer(dev, osc))
            slack["mercer"] = 0.0
    if fam in ("bernstein", "sdelta", "szasz", "baskakov", "bbh", "king"):
        rhs["new_osc_family"] = scalar.specialized_rhs(fam, n, x) * oo
        slack["new_osc_family"] = slack["lattice_family_vs_new"] = 0.0
    if fam in ("bernstein", "king"):
        rhs["new_osc_degree"], slack["new_osc_degree"] = n / (2.0 * (n + 1.0)) * oo, 0.0
    if fam in TRUNCATED:
        rhs["new_osc_globalrange"] = pair * np.outer(block.grid_osc, block.grid_osc)
        slack["new_osc_globalrange"] = 0.0
    if fam != "lagrange_cheb":
        rhs["gruss_quarter"], slack["gruss_quarter"] = 0.25 * oo, 0.0
        slack["lattice_gruss_vs_mercer"] = 0.0
    if fam in ("bernstein", "sdelta", "king"):
        e = env(2.0 * np.sqrt(max(sp.second_moment(fam, n, x), 0.0)))
        rhs["classical_ws"], slack["classical_ws"] = 0.25 * np.outer(e, e), modulus(e)
    if fam in ("bernstein", "sdelta"):
        e = env(1.0 / np.sqrt(n) if fam == "bernstein" else 1.0 / n)
        rhs["classical_ws_uniform"] = 0.25 * np.outer(e, e)
        slack["classical_ws_uniform"] = modulus(e)
    if fam == "lagrange_cheb":
        e, lam, ln = env(2.0), lag.lebesgue_constant(n), np.log(n)
        for name, coef in (("classical_norm", 0.25 * lam * (1.0 + lam)),
                           ("classical_log", 0.5 * (1 + 3 / np.pi * ln + 2 / np.pi ** 2 * ln * ln)),
                           ("classical_log_stated", 0.5 * (1 + 3 / np.pi * ln + 2 / np.pi * ln * ln))):
            rhs[name] = coef * np.outer(e, e)
            slack[name] = lam * (1.0 + lam) * modulus(e)
    if fam == "measure_example":
        rhs["measure_support"], slack["measure_support"] = 0.5 * x * (2.0 - x) * oo, 0.0
    out = {}
    for name, upper in rhs.items():
        out[name] = (lhs, upper - lhs, bnd.allowance(lhs, upper, slack[name]))
    for name, (up, low) in (("lattice_family_vs_new", ("new_osc_family", "new_osc")),
                            ("lattice_gruss_vs_mercer", ("gruss_quarter", "mercer"))):
        if up in rhs and low in rhs:
            out[name] = (rhs[low], rhs[up] - rhs[low],
                         bnd.allowance(rhs[low], rhs[up], slack[name]))
    return out


def _batched_rows(block):
    """name -> list over x of (lower, margin, allowance), from the batches."""
    out = {}
    for batch in block.batches():
        for row, lower, upper, extra in block.evaluate(batch):
            margin = upper - lower
            allow = np.broadcast_to(bnd.allowance(lower, upper, extra), lower.shape)
            for b in range(len(batch.xs)):
                out.setdefault(row.name, []).append((lower[b], margin[b], allow[b]))
    return out


@pytest.mark.parametrize("family", sorted(ops.FAMILY))
def test_batches_match_per_cell_reference(family, lebesgue_oracle):
    """Every (row, x, f, g) margin and allowance of the batched table against
    the per-cell reference, to 1e-12 relative plus a rounding floor, with
    the same failure mask."""
    from grusslab.verify import SuiteConfig, _x_grid
    corpus = standard_corpus(ops.FAMILY[family].domain)
    funcs = list(corpus.values())
    xs = _x_grid(funcs[0], SuiteConfig(x_grid=REFERENCE_XGRID))
    for n in REFERENCE_DEGREES.get(family, (2, 16)):
        block = bnd.Block(family, n, xs, funcs)
        got = _batched_rows(block)
        seen = set()
        for ix, cell in enumerate(_reference_cells(block, lebesgue_oracle)):
            x, v = cell[0], cell[1]
            # two routes through the Gram form differ by rounding in sums of
            # size-many terms of the scale of the products of node values
            size = 1 if v is None else v.shape[1]
            scale = 1.0 + (np.abs(cell[3]).max() if v is None else np.abs(v).max(axis=1))
            floor = 64.0 * EPS * size * np.multiply.outer(scale, scale)
            for name, (lower, margin, allow) in _reference_rows(block, *cell).items():
                seen.add(name)
                b_lower, b_margin, b_allow = got[name][ix]
                for label, ref, new in (("lower", lower, b_lower), ("margin", margin, b_margin),
                                        ("allowance", allow, b_allow)):
                    tol = 1e-12 * np.maximum(np.abs(ref), np.abs(new)) + floor
                    assert np.all(np.abs(new - ref) <= tol), (family, n, x, name, label)
                ref_bad = ~((margin + allow >= 0.0) & np.isfinite(margin))
                new_bad = ~((b_margin + b_allow >= 0.0) & np.isfinite(b_margin))
                assert np.array_equal(ref_bad, new_bad), (family, n, x, name)
        assert seen == set(got), family
        assert all(len(v) == len(xs) for v in got.values())


def test_measure_example_T_has_the_sweep_batch_bits(corpus01):
    """measure_example_T on one pair and the sweep's batch over the whole
    corpus give the same T bits for every pair, at a = 0, 0.37 and 1."""
    funcs = list(corpus01.values())
    (batch,) = bnd.Block("measure_example", 1, [0.0, 0.37, 1.0], funcs).batches()
    for b, a in enumerate(batch.xs.tolist()):
        for i, f in enumerate(funcs):
            for j, g in enumerate(funcs):
                t = scalar.measure_example_T(a, f, g)[0]
                assert t == batch.t[b, i, j], (a, f.name, g.name, t, batch.t[b, i, j])


def test_truncated_block_builds_each_window_once(monkeypatch):
    """The window that sizes a szasz block's node values is the last x's
    own: one weights call per x, the last x's first."""
    from dataclasses import replace
    fam, calls = ops.FAMILY["szasz"], []

    def counted(n, x, eps):
        calls.append(x)
        return fam.weights(n, x, eps)
    monkeypatch.setitem(ops.FAMILY, "szasz", replace(fam, weights=counted))
    xs = np.linspace(0.0, 50.0, 65)
    block = bnd.Block("szasz", 16, xs, list(standard_corpus(fam.domain).values()))
    assert len(list(block.batches())) > 1
    assert calls == [xs[-1], *xs[:-1]]


@pytest.mark.parametrize("family", TRUNCATED)
def test_truncated_batches_keep_byte_budget(family):
    """Batches of degree 64 out to x_max: several x share a batch only while
    batch x max(widest window, rows^2) doubles fit BATCH_BYTES; a single x
    wider than that is a batch of its own.  Budgeting (batch, nodes) rather
    than (batch, rows, nodes) arrays keeps the block to a few dozen batches."""
    corpus = standard_corpus(ops.FAMILY[family].domain)
    block = bnd.Block(family, 64, np.linspace(0.0, 50.0, 257), list(corpus.values()))
    rows, sizes, seen = len(corpus), [], []
    for batch in block.batches():
        nbytes = len(batch.xs) * max(batch.w.shape[1], rows * rows) * 8
        assert len(batch.xs) == 1 or nbytes <= bnd.BATCH_BYTES, (batch.xs, nbytes)
        assert batch.w.shape == (len(batch.xs), batch.v.shape[1])
        sizes.append(len(batch.xs))
        seen.extend(batch.xs)
    assert np.array_equal(seen, block.xs)
    assert max(sizes) > 1
    assert len(sizes) <= {"szasz": 26, "baskakov": 61}[family], len(sizes)


def _assert_span_osc(block):
    """Each batch's oscillations equal max - min over each point's span, bit
    for bit; returns the spans seen."""
    spans = []
    for batch in block.batches():
        ref = []
        for x in batch.xs:
            lo, hi = block.fam.weights(block.n, float(x), block.tail_eps)[2]
            spans.append((lo, hi, batch.v.shape[1]))
            ref.append(batch.v[:, lo:hi].max(axis=1) - batch.v[:, lo:hi].min(axis=1))
        assert batch.osc.tobytes() == np.stack(ref).tobytes(), (block.family, batch.xs)
    return spans


@pytest.mark.parametrize("n", [1, 4, 64])
def test_sdelta_span_oscillations_match_per_span(n):
    # x = 1 and the points just below it read spans that end at the last node
    corpus = standard_corpus((0.0, 1.0))
    xs = np.concatenate([np.linspace(0.0, 1.0, 257), [1.0 - 1e-3 / n, 1.0 - 1e-9]])
    spans = _assert_span_osc(bnd.Block("sdelta", n, np.sort(xs), list(corpus.values())))
    assert {(lo, hi) for lo, hi, size in spans if hi == size} == {(n, n + 1), (n - 1, n + 1)}


@pytest.mark.parametrize("family,n", [("szasz", 16), ("baskakov", 8)])
def test_window_oscillations_match_per_span(family, n):
    corpus = standard_corpus((0.0, math.inf))
    _assert_span_osc(bnd.Block(family, n, np.linspace(0.0, 50.0, 65), list(corpus.values())))


def test_span_osc_at_the_last_node():
    v = np.array([[3.0, -1.0, 2.0, 5.0, 4.0], [0.0, 7.0, -2.0, 1.0, -3.0]])
    spans = [(0, 2), (4, 5), (1, 5), (2, 3), (3, 5), (0, 5)]
    ref = np.stack([v[:, lo:hi].max(axis=1) - v[:, lo:hi].min(axis=1) for lo, hi in spans])
    assert bnd._span_osc(v, spans).tobytes() == ref.tobytes()


def _count_fallbacks(monkeypatch) -> list:
    """Route every _span_osc call through a spy; returns its call log."""
    calls, span_osc = [], bnd._span_osc

    def spy(v, spans):
        calls.append(len(spans))
        return span_osc(v, spans)
    monkeypatch.setattr(bnd, "_span_osc", spy)
    return calls


@pytest.mark.parametrize("family", TRUNCATED)
def test_running_ranges_are_span_osc_on_the_default_blocks(monkeypatch, family):
    """On every batch of the default sweep's blocks the running extrema give
    _span_osc's oscillations bit for bit, and no batch falls back: the
    windows never end earlier as x grows."""
    from grusslab.verify import SuiteConfig, _x_grid
    span_osc, cfg = bnd._span_osc, SuiteConfig()
    fallbacks = _count_fallbacks(monkeypatch)
    funcs = list(standard_corpus(ops.FAMILY[family].domain, cfg.seed, cfg.x_max).values())
    batches = 0
    for n in cfg.degrees:
        block = bnd.Block(family, n, _x_grid(funcs[0], cfg), funcs, tail_eps=cfg.tail_eps)
        for batch in block.batches():
            spans = [block.fam.weights(n, float(x), cfg.tail_eps)[2] for x in batch.xs]
            assert batch.osc.tobytes() == span_osc(batch.v, spans).tobytes(), (n, batch.xs)
            batches += 1
    assert batches > len(cfg.degrees) and fallbacks == []


def test_windows_that_end_earlier_take_span_osc(monkeypatch):
    """x falling, then rising: batches whose windows end before the widest so
    far take _span_osc, and every batch still has each span's range."""
    fallbacks = _count_fallbacks(monkeypatch)
    corpus = standard_corpus((0.0, math.inf))
    xs = np.concatenate([np.linspace(50.0, 0.0, 150), np.linspace(0.0, 50.0, 150)])
    _assert_span_osc(bnd.Block("szasz", 4, xs, list(corpus.values())))
    assert fallbacks


def test_running_ranges_step_by_step():
    """One _PrefixRange over batches of spans: growing ends, an end before
    the widest so far, ends out of order within a batch, a span that does
    not start at node 0, and a batch that adds no node."""
    v = np.array([[3.0, -1.0, 2.0, 5.0, 4.0, -6.0, 0.5],
                  [0.0, 7.0, -2.0, 1.0, -3.0, 2.5, 9.0]])
    ranges = bnd._PrefixRange(len(v))
    for spans in ([(0, 1), (0, 3)], [(0, 2)], [(0, 6), (0, 4)], [(1, 3), (0, 7)],
                  [(0, 6)], [(0, 7), (0, 7)]):
        ref = np.stack([v[:, lo:hi].max(axis=1) - v[:, lo:hi].min(axis=1)
                        for lo, hi in spans])
        assert ranges.osc(v, spans).tobytes() == ref.tobytes(), spans
    assert ranges.end == 7 and ranges.top.shape == (len(v), 1)


def test_truncated_cell_above_its_rhs_fails_the_gate():
    """baskakov:1 at x = 50, (e2, sinpi): with new_osc's rhs set to |T| less
    twice the base allowance, the sweep's gate counts one failure there.  A
    tail-scaled slack, 5.8e-6 at this cell, would let it pass."""
    from dataclasses import replace

    from grusslab.verify import _Accum, _RowMargins
    corpus = standard_corpus(ops.FAMILY["baskakov"].domain)
    block = bnd.Block("baskakov", 1, [50.0], (corpus["e2"], corpus["sinpi"]))

    def lowered(c):
        rhs = np.array(np.broadcast_to(c.pair_coef * c.osc_outer, c.lhs.shape))
        rhs[:, 0, 1] = c.lhs[:, 0, 1] - 2.0 * bnd.allowance(c.lhs[:, 0, 1], 0.0)
        return rhs

    block.rows = tuple(replace(row, rhs=lowered) if row.name == "new_osc" else row
                       for row in block.rows)
    acc = _Accum("baskakov", 1)
    batch = next(block.batches())
    for evaluated in block.evaluate(batch):
        acc.update(_RowMargins(*evaluated), 0, 50.0, block.names)
    assert acc.failures_total == 1, acc.failures
    assert [(r["bound"], r["f"], r["g"]) for r in acc.failures] == [("new_osc", "e2", "sinpi")]


@pytest.mark.parametrize("family", TRUNCATED)
def test_truncated_rows_carry_the_base_allowance_only(family):
    """Every gated row of a szasz or baskakov block is allowed exactly the
    base allowance: the window functional is normalized, so no slack is due."""
    funcs = list(standard_corpus(ops.FAMILY[family].domain).values())
    block = bnd.Block(family, 3, np.linspace(0.0, 50.0, 9), funcs)
    gated = set()
    for batch in block.batches():
        rhs = {row.name: row.rhs(batch) for row in block.rows if row.lattice is None}
        for row, lower, upper, extra in block.evaluate(batch):
            if row.gated:
                gated.add(row.name)
                want = rhs[row.name if row.lattice is None else row.lattice[0]]
                assert np.array_equal(bnd.allowance(lower, upper, extra),
                                      bnd.allowance(lower, want)), row.name
    assert gated == {"new_osc", "new_osc_family", "lattice_family_vs_new",
                     "gruss_quarter", "mercer", "lattice_gruss_vs_mercer"}


def test_wide_window_batch_forms_no_rows_by_nodes_array():
    """A one-point baskakov:64 batch at x = 50 reads the family's window,
    6,905 nodes, over 10 rows.  Forming it and reading L|f - Lf| and
    T(f, 1 - f) allocate less than half of one (rows, nodes) array of
    doubles."""
    import tracemalloc
    funcs = list(standard_corpus(ops.FAMILY["baskakov"].domain).values())
    block = bnd.Block("baskakov", 64, [50.0], funcs)
    w, _, _ = ops.FAMILY["baskakov"].weights(64, 50.0, ops.TAIL_EPS)
    v = np.stack([f.values(np.arange(w.size) / 64) for f in funcs])
    assert v.shape == (10, w.size)
    tracemalloc.start()
    try:
        batch = bnd.Batch(block, 0, v, w[None, :])
        batch.mean_dev, batch.anti_t(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < v.nbytes / 2, (peak, v.nbytes)


@pytest.mark.parametrize("family", ["bernstein", "sdelta", "two_point", "measure_example"])
def test_batches_hold_at_most_batch_points(family):
    """Few nodes would let hundreds of x share a batch under BATCH_BYTES; the
    points cap splits them into full batches of BATCH_POINTS in x order."""
    corpus = standard_corpus(ops.FAMILY[family].domain)
    xs = np.linspace(0.0, 1.0, 257)
    block = bnd.Block(family, 1, xs, list(corpus.values()))
    rows = len(corpus)
    assert bnd.BATCH_BYTES // (8 * rows * rows) > bnd.BATCH_POINTS
    sizes, seen = [], []
    for batch in block.batches():
        sizes.append(len(batch.xs))
        seen.extend(batch.xs)
    assert np.array_equal(seen, xs)
    assert sizes == [bnd.BATCH_POINTS] * (len(xs) // bnd.BATCH_POINTS) + [len(xs) % bnd.BATCH_POINTS]


@pytest.mark.parametrize("family", sorted(ops.FAMILY))
def test_one_shot_agrees_with_sweep_batch(family):
    """`bounds` at (x, f, g) against the sweep's batch entry at that x."""
    corpus = standard_corpus(ops.FAMILY[family].domain)
    names = list(corpus)
    funcs = list(corpus.values())
    n = REFERENCE_DEGREES.get(family, (16,))[0]
    lo, hi = ops.FAMILY[family].domain
    xs = np.linspace(lo, min(hi, 50.0), REFERENCE_XGRID)
    block = bnd.Block(family, n, xs, funcs)
    for batch in block.batches():
        shape = batch.lhs.shape
        rhs = {row.name: np.broadcast_to(row.rhs(batch), shape) for row in block.rows
               if row.gated and row.lattice is None
               and not row.sweep_only(ops.FAMILY[family])}
        for b, x in enumerate(batch.xs):
            for i, j in ((0, 1), (3, 7), (9, 5)):
                spec = ops.OperatorSpec(family, n, float(x) if family in
                                        ("two_point", "measure_example") else None)
                rec = one_shot_bounds(spec, float(x), funcs[i], funcs[j])
                assert (rec.f, rec.g) == (names[i], names[j])
                assert set(rec.rhs) == set(rhs)
                pairs = [(rec.lhs, batch.lhs[b, i, j])]
                pairs += [(rec.rhs[k], rhs[k][b, i, j]) for k in rhs]
                for one, swept in pairs:
                    assert abs(one - swept) <= 1e-12 * max(abs(one), abs(swept)) + 1e-13, \
                        (family, x, names[i], names[j], one, swept)


def test_block_rejects_unknown_family(corpus01):
    with pytest.raises(ValueError, match="unknown family 'durrmeyer'"):
        bnd.Block("durrmeyer", 2, [0.5], list(corpus01.values()))


@pytest.mark.parametrize("family,xs", [
    ("bernstein", [0.0, math.nan, 1.0]),
    ("lagrange_cheb", [-1.0, math.nan, 1.0]),
    ("szasz", [1.0, math.nan, 2.0]),
    ("baskakov", [1.0, 2.0, math.inf]),
    ("measure_example", [0.25, math.nan]),
])
def test_block_with_a_non_finite_point_raises_before_any_batch(family, xs, monkeypatch):
    """The admissible-point rule runs over every x when the block is built,
    before a weight builder or a batch sees one."""
    def reached(*_args):
        raise AssertionError("a weight builder ran")
    for name in ("_binomial_weights", "_poisson_weights", "_negbin_weights"):
        monkeypatch.setattr(ops, name, reached)
    monkeypatch.setattr(lag, "basis_weights", reached)
    funcs = list(standard_corpus(ops.FAMILY[family].domain).values())
    lo, hi = ops.FAMILY[family].domain
    with pytest.raises(ValueError, match=rf"^{family} requires x in \[{lo:g}, {hi:g}\]$"):
        bnd.Block(family, 1, xs, funcs)
