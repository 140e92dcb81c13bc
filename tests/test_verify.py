import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grusslab import operators as ops
from grusslab import special, verify
from grusslab.funcspace import uniform_grid
from grusslab.verify import (CONJECTURE_GRID, SuiteConfig, conjecture_scan,
                             run_suite, sharpness_suite)

FAST = dict(degrees=(1, 2, 4), x_grid=17, grid_n=201, conjecture_nmax=6)


@pytest.fixture(scope="module")
def fast_report():
    return run_suite(SuiteConfig(**FAST))


class TestRunSuite:
    def test_reduced_suite_passes(self, fast_report):
        assert fast_report.passed
        assert fast_report.suites["bound_sweep"]["failures"] == 0

    def test_coverage(self, fast_report):
        assert set(fast_report.coverage["families"]) == {
            "bernstein", "sdelta", "szasz", "baskakov", "bbh", "king",
            "two_point", "measure_example", "lagrange_cheb"}
        for name in ("new_osc", "gruss_quarter", "mercer", "classical_ws",
                     "measure_support", "classical_norm"):
            assert name in fast_report.coverage["bounds"]

    def test_worst_margin_witnesses_complete(self, fast_report):
        for name, rec in fast_report.suites["bound_sweep"]["worst_margins"].items():
            for key in ("margin", "operator", "n", "x", "f", "g", "lhs"):
                assert key in rec, (name, key)

    def test_constant_corpus_all_zero(self):
        rep = run_suite(SuiteConfig(functions=("e0",), **FAST))
        assert rep.passed
        for rec in rep.suites["bound_sweep"]["worst_margins"].values():
            assert abs(rec["lhs"]) <= 1e-9

    def test_bernstein_identity_equality_case(self):
        rep = run_suite(SuiteConfig(families=("bernstein",), degrees=(1,),
                                    functions=("e1",), x_grid=17, grid_n=201,
                                    conjecture_nmax=2))
        assert rep.passed
        worst = rep.suites["bound_sweep"]["worst_margins"]["classical_ws"]
        assert abs(worst["margin"]) <= 1e-10

    def test_determinism_byte_identical(self):
        cfg = SuiteConfig(families=("bernstein", "two_point"), degrees=(1, 3),
                          x_grid=9, grid_n=101, conjecture_nmax=3)
        a = run_suite(cfg).to_json()
        b = run_suite(cfg).to_json()
        assert a == b

    def test_report_is_valid_json_schema_one(self, fast_report):
        payload = json.loads(fast_report.to_json())
        assert payload["schema"] == 1
        assert set(payload) == {"schema", "config", "environment", "suites",
                                "coverage", "pass"}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(degrees=())
        with pytest.raises(ValueError):
            SuiteConfig(families=("weird",))
        with pytest.raises(ValueError):
            SuiteConfig(functions=("nope",))

    def test_coverage_missing_fails_the_run(self, monkeypatch):
        from grusslab import verify
        monkeypatch.setitem(verify.FAMILY_BOUNDS, "bernstein",
                            verify.FAMILY_BOUNDS["bernstein"] + ("no_such_bound",))
        rep = run_suite(SuiteConfig(families=("bernstein",), degrees=(1,), x_grid=9,
                                    grid_n=101, conjecture_nmax=2))
        assert rep.coverage["missing"] == {"bernstein": ["no_such_bound"]}
        assert not rep.passed
        assert json.loads(rep.to_json())["pass"] is False

    def test_truncated_weights_renormalised(self):
        # T(e0, g) vanishes for the normalised functional; the raw truncated
        # masses left |T(e0, e2)| = 1.8e-8 at szasz:64, x = 49.21875
        rep = run_suite(SuiteConfig(families=("szasz", "baskakov"), degrees=(64,),
                                    functions=("e0", "e2"), x_grid=65, grid_n=201,
                                    conjecture_nmax=2))
        assert rep.passed
        worst = rep.suites["bound_sweep"]["worst_margins"]
        for name in ("new_osc", "new_osc_family", "gruss_quarter", "mercer"):
            assert worst[name]["margin"] > -1e-10, (name, worst[name])


@pytest.mark.parametrize("family", sorted(ops.FAMILY))
def test_rows_match_the_coverage_spec_exactly(family):
    """The rows each family's block derives from its record are exactly the
    rows the hand-written coverage spec expects: none missing, none extra."""
    from grusslab import bounds as bnd
    from grusslab import verify
    from grusslab.funcspace import standard_corpus
    fam = ops.FAMILY[family]
    block = bnd.Block(family, 1, [fam.domain[0]],
                      list(standard_corpus(fam.domain).values()))
    assert {row.name for row in block.rows} == set(verify.FAMILY_BOUNDS[family])


def _butzer_weights(n, x, _tail_eps):
    """2 B_2n - B_n at x on the nodes k/(2n): B_n's node j/n is node 2j."""
    w = 2.0 * ops._binomial_weights(2 * n, x)
    w[..., ::2] -= ops._binomial_weights(n, x)
    return w, 0.0, None


def test_a_signed_family_needs_its_record_and_its_coverage_entry_only(monkeypatch,
                                                                      capsys):
    """Butzer's signed combination 2 B_2n - B_n, registered through one
    family record and one coverage entry, is swept, cross-checked and
    answered by ``bounds`` with no other edit."""
    from grusslab import verify
    from grusslab.cli import main
    monkeypatch.setitem(ops.FAMILY, "butzer", ops.Family(
        (0.0, 1.0), lambda n: np.arange(2 * n + 1) / (2.0 * n), _butzer_weights,
        signed=True))
    monkeypatch.setitem(verify.FAMILY_BOUNDS, "butzer", ("new_osc",))
    assert float(ops.point_functional("butzer", 1, 0.3).weights.min()) < -0.1
    rep = run_suite(SuiteConfig(families=("butzer",), degrees=(1, 2, 3, 8), x_grid=33,
                                conjecture_nmax=2))
    assert rep.passed, rep.suites["bound_sweep"]["failure_samples"]
    assert rep.coverage == {"families": ["butzer"], "bounds": ["new_osc"],
                            "missing": {}}
    assert rep.suites["bound_sweep"]["cells"] == 4 * 33 * 100
    assert rep.suites["identity_equivalence"]["checks"] > 0
    assert main(["bounds", "--op", "butzer:4", "--x", "0.3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["operator"], set(out["rhs"])) == ("butzer:4", {"new_osc"})
    assert out["margins"]["new_osc"] >= 0.0


SMALL = dict(degrees=(1, 3), x_grid=9, grid_n=101, conjecture_nmax=3)


class TestAcrossCalls:
    def test_envelopes_kept_across_calls(self, monkeypatch):
        from grusslab import funcspace
        a = run_suite(SuiteConfig(**SMALL)).to_json()
        builds = []
        envelope_of = funcspace.envelope_of
        monkeypatch.setattr(funcspace, "envelope_of",
                            lambda *args: builds.append(args) or envelope_of(*args))
        misses = funcspace.cached_envelope.cache_info().misses
        b = run_suite(SuiteConfig(**SMALL)).to_json()
        assert builds == []
        assert funcspace.cached_envelope.cache_info().misses == misses
        assert a == b

    @pytest.mark.parametrize("x_max", [SuiteConfig.x_max, 20.0])
    def test_each_envelope_built_once(self, x_max, monkeypatch):
        # the sweep and the sharpness witnesses read e1 on [0, 1] at the
        # default grid through one cache entry, whatever x_max cuts [0, inf) at
        import collections

        from grusslab import funcspace
        funcspace.cached_envelope.cache_clear()
        builds = collections.Counter()
        envelope_of = funcspace.envelope_of

        def counted(f, grid):
            builds[(f, len(grid))] += 1
            return envelope_of(f, grid)
        monkeypatch.setattr(funcspace, "envelope_of", counted)
        run_suite(SuiteConfig(families=("bernstein",), degrees=(1, 2), x_grid=9,
                              conjecture_nmax=2, x_max=x_max))
        assert len(builds) == 10
        assert set(builds.values()) == {1}

    def test_counts_per_check(self, monkeypatch):
        # one pairwise_identity call per identity check and one _Accum.update
        # call per (bound, x) over the whole F x F pair matrix
        from grusslab import verify
        calls = {"pair": 0, "update": 0}
        pair_sum, update = ops.pairwise_identity, verify._Accum.update

        def counted_pair_sum(*args):
            calls["pair"] += 1
            return pair_sum(*args)

        def counted_update(*args, **kwargs):
            calls["update"] += 1
            return update(*args, **kwargs)

        monkeypatch.setattr(ops, "pairwise_identity", counted_pair_sum)
        monkeypatch.setattr(verify._Accum, "update", counted_update)
        rep = run_suite(SuiteConfig(**SMALL))
        assert calls["pair"] == rep.suites["identity_equivalence"]["checks"] > 0
        assert calls["update"] * 100 == rep.suites["bound_sweep"]["margin_checks"] > 0


def _halved_new_osc():
    """The bound table with new_osc's rhs halved: |T| then exceeds it in
    many cells of the bernstein and sdelta blocks."""
    import dataclasses

    from grusslab import bounds as bnd
    return tuple(dataclasses.replace(b, rhs=lambda c, rhs=b.rhs: 0.5 * rhs(c))
                 if b.name == "new_osc" else b for b in bnd.BOUNDS)


class TestBatchIndependence:
    CFG = dict(families=("bernstein", "sdelta", "szasz", "baskakov", "lagrange_cheb"),
               degrees=(1, 3), x_grid=17, grid_n=101, conjecture_nmax=2)

    def test_report_does_not_depend_on_batch_size(self, monkeypatch):
        # with new_osc's rhs halved, failures exceed FAILURE_SAMPLES and cross
        # batch boundaries.  T is a product over (batch, nodes) arrays whose
        # rounding follows the batch's shape, so the worst margins, which sit
        # at rounding level where rhs = 0, may move to another witness; they
        # agree within the base allowance, and all else is the same
        from grusslab import bounds as bnd
        from grusslab import verify
        monkeypatch.setattr(bnd, "BOUNDS", _halved_new_osc())
        cfg = SuiteConfig(**self.CFG)
        reports = []
        for points in (1, 3, bnd.BATCH_POINTS):
            monkeypatch.setattr(bnd, "BATCH_POINTS", points)
            reports.append(json.loads(run_suite(cfg).to_json()))
        worst = []
        for rep in reports:
            sweep = rep["suites"]["bound_sweep"]
            worst.append({(fam, b): w["margin"] for fam, rows in
                          sweep.pop("per_family_worst").items() for b, w in rows.items()})
            sweep.pop("worst_margins")
        assert reports[0] == reports[1] == reports[2]
        for other in worst[1:]:
            assert other.keys() == worst[0].keys()
            for key, m in worst[0].items():
                assert abs(other[key] - m) <= 1e-9 * max(1.0, abs(m)), key

        sweep = reports[0]["suites"]["bound_sweep"]
        samples = sweep["failure_samples"]
        assert sweep["failures"] > len(samples) == verify.FAILURE_SAMPLES
        blocks = [(fam, n) for fam in cfg.families for n in cfg.degrees]
        table = [b.name for b in bnd.BOUNDS]
        keys = [(blocks.index((s["operator"], s["n"])), s["x"], table.index(s["bound"]))
                for s in samples]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("family", ["bernstein", "sdelta"])
    def test_fold_does_not_depend_on_batch_size(self, family, monkeypatch):
        # the same evaluated margins folded whole and in runs of 1 and 3
        # points give the same worst margins, failures and samples; every
        # failure is kept, so the samples cross the runs' boundaries
        import numpy as np

        from grusslab import bounds as bnd
        from grusslab import funcspace, verify
        monkeypatch.setattr(bnd, "BOUNDS", _halved_new_osc())
        monkeypatch.setattr(verify, "FAILURE_SAMPLES", 10 ** 6)
        funcs = list(funcspace.standard_corpus(ops.FAMILY[family].domain).values())
        xs = np.linspace(*funcs[0].interval, 17)
        block = bnd.Block(family, 3, xs, funcs)
        evaluated = [(batch, list(block.evaluate(batch))) for batch in block.batches()]

        def fold(size):
            acc = verify._Accum(family, 3)
            for batch, rows in evaluated:
                for lo in range(0, len(batch.xs), size):
                    part = slice(lo, lo + size)
                    reduced = [verify._RowMargins(
                        row, lower[part], np.broadcast_to(upper, lower.shape)[part],
                        np.broadcast_to(extra, lower.shape)[part])
                               for row, lower, upper, extra in rows]
                    for b, x in enumerate(batch.xs[part]):
                        for row in reduced:
                            acc.update(row, b, x, block.names)
            return acc.worst, acc.failures, acc.failures_total, acc.checks

        whole = fold(len(xs))
        assert whole[2] == len(whole[1]) > len({s["x"] for s in whole[1]}) > 1
        assert fold(1) == whole
        assert fold(3) == whole
        table = [b.name for b in bnd.BOUNDS]
        keys = [(s["x"], table.index(s["bound"])) for s in whole[1]]
        assert keys == sorted(keys)


class TestIdentityGram:
    def test_witness_keeps_its_orientation_and_value(self, monkeypatch):
        # a pair sum off by 1e-6 for the ordered pair (e2, sinpi) alone fails
        # the suite there: the Gram matrix is read as T(f, g), not T(g, f)
        from grusslab import funcspace
        pair_sum = ops.pairwise_identity

        def perturbed(form, f, g):
            off = 1e-6 if (f.name, g.name) == ("e2", "sinpi") else 0.0
            return pair_sum(form, f, g) + off
        monkeypatch.setattr(ops, "pairwise_identity", perturbed)
        cfg = SuiteConfig(families=("bernstein", "king", "lagrange_cheb"), **SMALL)
        ident = run_suite(cfg).suites["identity_equivalence"]
        assert not ident["pass"]
        worst = ident["worst"]
        assert (worst["f"], worst["g"]) == ("e2", "sinpi")
        corpus = funcspace.standard_corpus(ops.FAMILY[worst["operator"]].domain)
        L = ops.point_functional(worst["operator"], worst["n"], worst["x"])
        expected = ops.chebyshev_T(L, corpus["e2"], corpus["sinpi"])
        assert worst["chebyshev_T"] == pytest.approx(expected, rel=1e-14, abs=0.0)


class TestConjectures:
    def test_degree_one_exactly_convex(self):
        rows = conjecture_scan(1, 101)
        # phi_1 = 2x^2 - 2x + 1: constant positive second difference
        assert rows[0]["min_second_difference"] > 0.0
        assert rows[0]["first_difference_sign_changes"] == 1
        assert rows[0]["min_gap_to_half"] >= -1e-12

    def test_scan_up_to_16(self):
        rows = conjecture_scan(16, 257)
        for row in rows:
            assert row["min_gap_to_half"] >= -1e-12
            assert row["first_difference_sign_changes"] == 1
            assert row["min_second_difference"] > -1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            conjecture_scan(0)

    @pytest.mark.parametrize("xs", [
        uniform_grid(0.0, 1.0, 513).nodes, np.array([0.0, 1.0]),
        np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.25, 0.75, 1.0]),
    ], ids=["513", "2", "3", "4"])
    def test_mirrored_half_has_the_direct_bits(self, xs, monkeypatch):
        """On a grid whose mirror 1 - xs is xs reversed, bit for bit, the scan
        computes phi_n on the first half only, and mirrors it onto the
        second with the bits of the direct computation."""
        assert np.array_equal(1.0 - xs, xs[::-1])
        sizes, direct = [], special.phi_bernstein

        def spy(n, pts):
            sizes.append(pts.size)
            return direct(n, pts)
        monkeypatch.setattr(special, "phi_bernstein", spy)
        for n in range(1, 65):
            assert verify._phi_grid(n, xs).tobytes() == direct(n, xs).tobytes(), n
        assert set(sizes) == {(xs.size + 1) // 2}

    def test_half_point_is_the_kernel_value(self):
        """The scan reads phi_n(1/2) on its grid from the kernel it compares
        against, so the gap to the half point is exactly 0 there."""
        xs = uniform_grid(0.0, 1.0, CONJECTURE_GRID).nodes
        half = xs.size // 2
        assert xs[half] == 0.5
        for n in range(1, 65):
            assert verify._phi_grid(n, xs)[half] == special.phi_bernstein(n, 0.5), n
        assert {row["min_gap_to_half"] for row in conjecture_scan(64)} == {0.0}

    def test_a_grid_that_is_not_its_mirror_is_computed_whole(self, monkeypatch):
        xs = uniform_grid(0.0, 1.0, 4).nodes     # 1 - 1/3 is not 2/3 in floats
        assert not np.array_equal(1.0 - xs, xs[::-1])
        sizes, direct = [], special.phi_bernstein
        monkeypatch.setattr(special, "phi_bernstein",
                            lambda n, pts: sizes.append(pts.size) or direct(n, pts))
        for n in (1, 2, 7):
            verify._phi_grid(n, xs)
        assert sizes == [4, 4, 4]


class TestSharpness:
    def test_all_witnesses_tight(self):
        rows = sharpness_suite()
        kinds = {r["witness"] for r in rows}
        assert kinds == {"bernstein_classical_identity", "two_point_oscillation",
                         "two_point_mercer", "lagrange_pair_product",
                         "signed_two_point"}
        for row in rows:
            assert row["gap"] <= 1e-10, row

    def test_stated_witness_values(self):
        rows = {(r["witness"], r["n"], r["x"]): r for r in sharpness_suite()}
        rec = rows[("bernstein_classical_identity", 4, 0.3)]
        assert rec["lhs"] == pytest.approx(0.0525, abs=1e-12)
        rec = rows[("two_point_oscillation", 1, 0.5)]
        assert rec["lhs"] == 0.25 and rec["rhs"] == 0.25
        rec = rows[("lagrange_pair_product", 2, 0.0)]
        assert rec["lhs"] == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("bound,readers", [
        ("new_osc", {"two_point_oscillation", "lagrange_pair_product", "signed_two_point"}),
        ("classical_ws", {"bernstein_classical_identity"}),
    ])
    def test_witnesses_read_the_table(self, bound, readers, monkeypatch):
        """One table row's rhs scaled by 1 + 1e-9 where the witnesses read it
        (new_osc through Batch.pair_coef) fails exactly the witnesses of that
        row whose rhs is large enough for the 1e-10 gate to see it."""
        import dataclasses

        from grusslab import bounds as bnd
        base = sharpness_suite()
        if bound == "new_osc":
            pair_coef = bnd.Batch.pair_coef.func
            monkeypatch.setattr(bnd.Batch, "pair_coef",
                                property(lambda c: pair_coef(c) * (1.0 + 1e-9)))
        else:
            row = next(b for b in bnd.BOUNDS if b.name == bound)
            scaled = dataclasses.replace(row, rhs=lambda c: row.rhs(c) * (1.0 + 1e-9))
            monkeypatch.setattr(bnd, "BOUNDS",
                                tuple(scaled if b is row else b for b in bnd.BOUNDS))
        failing = [(r["witness"], r["n"], r["x"]) for r in sharpness_suite()
                   if not verify.equality_holds(r)]
        want = [(r["witness"], r["n"], r["x"]) for r in base
                if r["witness"] in readers and r["rhs"] * 1e-9 > 1e-10]
        assert want and failing == want


class TestBuildFunctional:
    @pytest.mark.parametrize("spec_text,x", [
        ("bernstein:4", 0.3), ("sdelta:8", 0.22), ("szasz:2", 3.0),
        ("baskakov:2", 3.0), ("bbh:5", 2.0), ("king:3", 0.7),
        ("two_point:1:0.25", 0.0), ("lagrange_cheb:6", 0.1),
    ])
    def test_families_build(self, spec_text, x):
        spec = ops.parse_operator_spec(spec_text)
        L = ops.point_functional(spec.family, spec.n, x if spec.param is None else spec.param)
        assert abs(L.weights.sum() - 1.0) <= L.tail_mass_bound + 1e-10

    def test_measure_has_no_point_form(self):
        with pytest.raises(ValueError):
            ops.point_functional("measure_example", 1, 0.5)


class TestSweepBlockErrors:
    def test_error_before_first_batch_has_no_x_range(self, monkeypatch):
        from grusslab import bounds as bnd

        batches = bnd.Block.batches

        def broken(self):
            # the sweep's block only: each sharpness witness reads the batch
            # of a one-point block
            if len(self.xs) > 1:
                raise RuntimeError("no batches")
            yield from batches(self)
        monkeypatch.setattr(bnd.Block, "batches", broken)
        rep = run_suite(SuiteConfig(families=("two_point",), degrees=(1,), x_grid=9,
                                    grid_n=101, conjecture_nmax=2))
        assert not rep.passed
        assert rep.suites["bound_sweep"]["block_errors"] == [{
            "operator": "two_point", "n": 1, "x_range": None,
            "error_type": "RuntimeError", "message": "no batches"}]

    def test_error_names_the_x_range_of_its_batch(self, monkeypatch):
        import dataclasses

        from grusslab import bounds as bnd
        spans = []

        def fails_past_40(c):
            spans.append((float(c.xs[0]), float(c.xs[-1])))
            if c.xs[-1] > 40.0:
                raise ArithmeticError("past 40")
            return 0.25 * c.osc_outer
        rows = tuple(dataclasses.replace(b, rhs=fails_past_40)
                     if b.name == "gruss_quarter" else b for b in bnd.BOUNDS)
        monkeypatch.setattr(bnd, "BOUNDS", rows)
        rep = run_suite(SuiteConfig(families=("szasz",), degrees=(64,), x_grid=65,
                                    grid_n=101, conjecture_nmax=2))
        (err,) = rep.suites["bound_sweep"]["block_errors"]
        assert err["error_type"] == "ArithmeticError" and err["message"] == "past 40"
        assert tuple(err["x_range"]) == spans[-1]
        assert spans[-2][1] <= 40.0 < spans[-1][1]

    def test_error_sizing_the_first_window_names_its_point(self):
        # the windows are sized from the last x before any batch is formed;
        # at x = 1e7 that window passes the hard cap
        rep = run_suite(SuiteConfig(families=("szasz", "baskakov"), degrees=(64,),
                                    x_grid=5, x_max=1e7, grid_n=101, conjecture_nmax=2))
        assert rep.suites["bound_sweep"]["block_errors"] == [{
            "operator": family, "n": 64, "x_range": [1e7, 1e7],
            "error_type": "ArithmeticError",
            "message": "truncation window exceeded the hard cap"}
            for family in ("szasz", "baskakov")]


class TestAllowanceGate:
    """A gated row forms its allowance and failure mask only where a margin
    can fail; these cases must fail, or pass, exactly as with an allowance
    formed for every cell."""

    @staticmethod
    def _fold(lower, upper, extra=0.0, per_point=False):
        """A gated one-cell row over two points: a margin of 0 at the first,
        where Python's min would then drop a NaN, the probe at the second.
        The slack is a float for the whole row, or per point 0 and then
        ``extra``."""
        from grusslab import bounds as bnd
        from grusslab.verify import _Accum, _RowMargins
        row = bnd.Bound("probe", ("bernstein",), lambda c: None)
        reduced = _RowMargins(row, np.array([1.0, lower])[:, None, None],
                              np.array([1.0, upper])[:, None, None],
                              np.array([0.0, extra])[:, None, None] if per_point else extra)
        acc = _Accum("bernstein", 2)
        for b, x in enumerate((0.25, 0.5)):
            acc.update(reduced, b, x, ("e1",))
        return reduced, acc

    def test_margin_above_the_floor_forms_no_allowance(self):
        reduced, acc = self._fold(1.0, 1.0 - 2.0 ** -30)   # margin -9.3e-10
        assert reduced.min == [0.0, -2.0 ** -30]
        assert reduced.allow is None and acc.failures_total == 0

    def test_margin_within_a_relative_allowance_passes(self):
        # |T| = 10: the allowance is 1e-8, so a margin of -5e-9 passes
        reduced, acc = self._fold(10.0, 10.0 - 5e-9)
        assert reduced.min[1] < -4e-9
        assert reduced.allow[1, 0, 0] == 1e-8 and acc.failures_total == 0

    @pytest.mark.parametrize("lower,upper,extra,per_point", [
        (math.nan, 0.5, 0.0, False), (0.5, math.nan, 0.0, False),
        (0.5, math.inf, 0.0, False), (0.5, 0.5, math.nan, False),
        (0.5, 0.5, math.nan, True), (0.5, 0.5 + 1e-12, -1.0, False),
        (0.5, 0.5 + 1e-12, -1.0, True)])
    def test_non_finite_or_negative_terms_fail(self, lower, upper, extra, per_point):
        reduced, acc = self._fold(lower, upper, extra, per_point)
        # a float slack spans both points, so both fail with it
        fails = 2 if extra != 0.0 and not per_point else 1
        assert reduced.allow is not None and acc.failures_total == fails, acc.failures

    @pytest.mark.parametrize("per_point", [False, True])
    def test_infinite_slack_forms_the_allowance(self, per_point):
        # an infinite slack is looked at, and forgives any finite margin
        reduced, acc = self._fold(0.5, 0.5, math.inf, per_point)
        assert reduced.allow is not None and acc.failures_total == 0

    def test_lowered_cell_fails_with_its_sample(self):
        """new_osc set 2e-9 below |T| <= 1 at one cell of bernstein:3: that
        cell fails alone, and its sample holds |T|, the margin and the base
        allowance 1e-9, each read off the batch."""
        from dataclasses import replace

        from grusslab import bounds as bnd
        from grusslab import funcspace
        from grusslab.verify import _Accum, _RowMargins
        corpus = funcspace.standard_corpus((0.0, 1.0))
        names = ("e1", "e2", "sinpi")
        block = bnd.Block("bernstein", 3, np.linspace(0.0, 1.0, 9),
                          [corpus[nm] for nm in names])

        def lowered(c):
            rhs = np.array(np.broadcast_to(c.pair_coef * c.osc_outer, c.lhs.shape))
            rhs[3, 0, 2] = c.lhs[3, 0, 2] - 2e-9
            return rhs

        block.rows = tuple(replace(row, rhs=lowered) if row.name == "new_osc" else row
                           for row in block.rows)
        acc = _Accum("bernstein", 3)
        (batch,) = block.batches()
        rows = [_RowMargins(*evaluated) for evaluated in block.evaluate(batch)]
        for b, x in enumerate(batch.xs.tolist()):
            for row in rows:
                acc.update(row, b, x, block.names)
        lhs = float(batch.lhs[3, 0, 2])
        margin = float((batch.lhs[3, 0, 2] - 2e-9) - batch.lhs[3, 0, 2])
        assert 0.0 < lhs <= 1.0 and -2.5e-9 < margin < -1.5e-9
        assert acc.failures_total == 1
        assert acc.failures == [{
            "bound": "new_osc", "operator": "bernstein", "n": 3, "x": 0.375,
            "f": "e1", "g": "sinpi", "lhs": lhs, "margin": margin,
            "allowance": bnd.BASE_REL_TOL}]
        # only the lowered row formed an allowance
        assert [r.bound for r in rows if r.allow is not None] == ["new_osc"]


@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False),
       st.floats(0.0, 1e300))
def test_allowance_has_its_floor(lhs, rhs, extra):
    from grusslab.bounds import BASE_REL_TOL, allowance
    assert allowance(lhs, rhs, extra) >= BASE_REL_TOL
    assert allowance(lhs, rhs) >= BASE_REL_TOL


def test_slack_terms_are_nonnegative_on_the_default_sweep(monkeypatch):
    """Every slack term of every batch of the default sweep is finite and
    at least 0, read with numpy reductions that carry a NaN through."""
    import dataclasses

    from grusslab import bounds as bnd
    seen, wrapped = {}, {}

    def recorded(term):
        def rec(c):
            v = term(c)
            seen.setdefault(term.__name__, []).append((np.min(v), np.max(v)))
            return v
        return wrapped.setdefault(term, rec)

    monkeypatch.setattr(bnd, "BOUNDS", tuple(
        dataclasses.replace(b, slack=tuple(recorded(t) for t in b.slack))
        for b in bnd.BOUNDS))
    assert run_suite(SuiteConfig()).passed
    assert set(seen) == {"<lambda>", "_lagrange_slack"}
    for name, extremes in seen.items():
        lo, hi = np.array(extremes).T
        assert lo.min() >= 0.0 and hi.max() < math.inf, name


class TestSignStatistics:
    def test_nan_stays_with_its_x(self):
        import numpy as np

        from grusslab.verify import _Accum
        names = ("e1", "e2")
        acc = _Accum("bernstein", 2)
        t = np.array([[[0.2, 0.1], [0.1, 0.3]], [[np.nan, 0.1], [0.1, 0.3]]])
        acc.sign_stats(np.array([0.25, 0.5]), t, np.array([-0.1, -0.2]), names)
        # a later, lower finite value does not displace the NaN
        acc.sign_stats(np.array([0.75]), t[:1] - 1.0, np.array([0.5]), names)
        assert np.isnan(acc.com[0]) and acc.com[1] == 0.5
        assert acc.anti == (0.5, 0.75)
