import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grusslab
from grusslab import cli
from grusslab.cli import main
from grusslab.operators import FAMILIES, FAMILY

ONE_POINT_FAMILIES = tuple(name for name, fam in FAMILY.items() if fam.one_point)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _python_env() -> dict:
    """The environment of a fresh interpreter that imports this grusslab."""
    env = dict(os.environ, COLUMNS="80")
    src = str(Path(grusslab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestVerifyCommand:
    def test_small_verify_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, _ = run_cli([
            "verify", "--families", "bernstein,two_point", "--degrees", "1,2",
            "--xgrid", "9", "--grid", "101", "--conjecture-nmax", "3",
            "--out", str(out),
        ], capsys)
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert payload["schema"] == 1

    def test_verify_reruns_byte_identical(self, tmp_path, capsys):
        args = ["verify", "--families", "bernstein,lagrange_cheb", "--degrees",
                "1,3", "--xgrid", "9", "--grid", "101", "--conjecture-nmax", "3"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_functions_subset(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, _, _ = run_cli([
            "verify", "--families", "bernstein", "--degrees", "1",
            "--functions", "e0,e1", "--xgrid", "9", "--grid", "101",
            "--conjecture-nmax", "2", "--out", str(out),
        ], capsys)
        assert code == 0

    def test_non_finite_identity_fails(self, tmp_path, monkeypatch, capsys):
        # a NaN pair sum fails the suite, where `dev > tol` alone let it pass
        from grusslab import operators as ops
        pair_sum = ops.pairwise_identity

        def nan_for_one_pair(form, f, g):
            if (f.name, g.name) == ("sinpi", "hat"):
                return math.nan
            return pair_sum(form, f, g)

        monkeypatch.setattr(ops, "pairwise_identity", nan_for_one_pair)
        out = tmp_path / "r.json"
        code, _, err = run_cli([
            "verify", "--families", "bernstein", "--degrees", "1,2", "--xgrid", "9",
            "--grid", "101", "--conjecture-nmax", "2", "--out", str(out),
        ], capsys)
        assert code == 1
        assert "suite failed: identity_equivalence worst {" in err
        assert '"pair_sum": "nan"' in err

        def no_constants(name):
            raise AssertionError(f"non-JSON constant {name}")

        payload = json.loads(out.read_text(), parse_constant=no_constants)
        suite = payload["suites"]["identity_equivalence"]
        assert suite["pass"] is False
        worst = suite["worst"]
        assert (worst["f"], worst["g"]) == ("sinpi", "hat")
        assert worst["pair_sum"] == worst["deviation"] == worst["tol_ratio"] == "nan"
        assert isinstance(worst["chebyshev_T"], float)


class TestBoundsCommand:
    def test_two_point_example(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--op", "two_point:1:0.5", "--f", "e1", "--g", "e1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["lhs"] == 0.25
        assert payload["rhs"]["new_osc"] == 0.25

    def test_bernstein_cell(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--op", "bernstein:8", "--f", "e1", "--g", "e2",
             "--x", "0.3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload["rhs"]) >= {"new_osc", "gruss_quarter", "mercer",
                                       "classical_ws"}
        assert all(m >= -1e-9 for m in payload["margins"].values())

    def test_measure_example(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--op", "measure_example:1:0.5", "--f", "e1", "--g", "e1"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["rhs"]["measure_support"] == pytest.approx(0.375, abs=1e-12)

    def test_lagrange_cell(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--op", "lagrange_cheb:2", "--f", "e1", "--g", "e1",
             "--x", "0.0"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["lhs"] == pytest.approx(0.5, abs=1e-14)
        assert payload["rhs"]["new_osc"] == pytest.approx(0.5, abs=1e-14)

    def test_unknown_family_fails(self, capsys):
        code, _, err = run_cli(["bounds", "--op", "durrmeyer:3"], capsys)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("args", [
        ["--op", "bernstein:4", "--x", "1.5"],
        ["--op", "szasz:4", "--x", "-1"],
        ["--op", "lagrange_cheb:4", "--x", "2"],
        ["--op", "sdelta:4", "--x", "1.01"],
        ["--op", "king:4", "--x", "-0.5"],
        ["--op", "bbh:4", "--x", "-1"],
        ["--op", "baskakov:4", "--x", "-1"],
        ["--op", "measure_example:1:1.5"],
        ["--op", "bernstein:8:0.3", "--x", "0.7"],
        ["--op", "szasz:4:2"],
        ["--op", "two_point:7:0.5"],
        ["--op", "measure_example:9:0.5"],
        ["--op", "baskakov:4", "--x", "inf"],
        ["--op", "szasz:4", "--x", "inf"],
        ["--op", "bbh:4", "--x", "inf"],
    ])
    def test_out_of_domain_fails(self, args, capsys):
        code, out, err = run_cli(["bounds"] + args, capsys)
        assert code == 1
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("family", ["szasz", "baskakov", "bbh"])
    def test_infinite_x_gets_the_domain_message(self, family, capsys):
        _, _, err = run_cli(["bounds", "--op", f"{family}:4", "--x", "inf"], capsys)
        assert err == f"error: {family} requires x in [0, inf]\n"

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_non_finite_x_gets_the_domain_message(self, family, x, capsys):
        """A one-point family takes its parameter a as x."""
        if family in ONE_POINT_FAMILIES:
            args, want = ["--op", f"{family}:1:{x}"], "a parameter a in [0, 1]"
        else:
            lo, hi = FAMILY[family].domain
            args, want = ["--op", f"{family}:4", f"--x={x}"], f"x in [{lo:g}, {hi:g}]"
        code, out, err = run_cli(["bounds"] + args, capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {family} requires {want}\n"

    @pytest.mark.parametrize("family", ONE_POINT_FAMILIES)
    @pytest.mark.parametrize("x", ["nan", "inf", "1.5"])
    def test_one_point_family_checks_its_x(self, family, x, capsys):
        """The parameter a comes from --op, yet --x must be admissible too."""
        code, out, err = run_cli(["bounds", "--op", f"{family}:1:0.5", "--x", x], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {family} requires x in [0, 1]\n"

    def test_spec_with_four_parts_fails(self, capsys):
        code, out, err = run_cli(["bounds", "--op", "bernstein:1:2:3"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: cannot parse operator spec 'bernstein:1:2:3'\n"

    @pytest.mark.parametrize("op,x,keys", [
        ("bernstein:8", "0.3", {"new_osc", "new_osc_family", "new_osc_degree",
                                "gruss_quarter", "mercer", "classical_ws",
                                "classical_ws_uniform"}),
        ("sdelta:8", "0.3", {"new_osc", "new_osc_family", "gruss_quarter", "mercer",
                             "classical_ws", "classical_ws_uniform"}),
        ("king:8", "0.3", {"new_osc", "new_osc_family", "new_osc_degree",
                           "gruss_quarter", "mercer", "classical_ws"}),
        ("szasz:8", "3.5", {"new_osc", "new_osc_family", "gruss_quarter", "mercer"}),
        ("baskakov:8", "3.5", {"new_osc", "new_osc_family", "gruss_quarter", "mercer"}),
        ("bbh:8", "3.5", {"new_osc", "new_osc_family", "gruss_quarter", "mercer"}),
        ("two_point:1:0.3", "0.5", {"new_osc", "gruss_quarter", "mercer"}),
        ("lagrange_cheb:8", "0.3", {"new_osc", "classical_norm", "classical_log",
                                    "classical_log_stated"}),
        ("measure_example:1:0.3", "0.5", {"measure_support"}),
    ])
    def test_rhs_keys_per_family(self, op, x, keys, capsys):
        code, out, _ = run_cli(["bounds", "--op", op, "--f", "sinpi", "--g", "e2",
                                "--x", x], capsys)
        assert code == 0
        assert set(json.loads(out)["rhs"]) == keys

    @pytest.mark.parametrize("op", ["szasz:64", "baskakov:64"])
    def test_truncated_weights_renormalised(self, op, capsys):
        # the raw truncated masses gave |T(e0, e2)| = 1.8e-8 (szasz), 2.4e-9
        # (baskakov) against an rhs of 0
        code, out, _ = run_cli(["bounds", "--op", op, "--f", "e0", "--g", "e2",
                                "--x", "49.21875"], capsys)
        assert code == 0
        assert json.loads(out)["lhs"] < 1e-10

    def test_envelopes_cached_across_calls(self, capsys):
        from grusslab.funcspace import cached_envelope
        cached_envelope.cache_clear()
        for _ in range(3):
            code, _, _ = run_cli(["bounds", "--op", "bernstein:8", "--f", "e1",
                                  "--g", "e2", "--x", "0.3"], capsys)
            assert code == 0
            assert cached_envelope.cache_info().misses == 2


class TestSpecialCommand:
    def test_central_binom_row(self, capsys):
        code, out, _ = run_cli(["special", "--fn", "central_binom", "--n", "10"],
                               capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        val = float(rows[0]["value"])
        assert 1 / math.sqrt(math.pi * 13) < val < 1 / math.sqrt(math.pi * 9)

    def test_phi_table(self, capsys):
        code, out, _ = run_cli(
            ["special", "--fn", "phi", "--n", "8", "--grid", "17"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 17
        assert float(rows[0]["value"]) == 1.0

    def test_second_moment_needs_family(self, capsys):
        code, _, _ = run_cli(["special", "--fn", "second_moment", "--n", "4"],
                             capsys)
        assert code == 2
        code, out, _ = run_cli(
            ["special", "--fn", "second_moment", "--n", "4", "--family",
             "bernstein", "--grid", "5"], capsys)
        assert code == 0

    # bessel_i0_scaled takes no degree
    @pytest.mark.parametrize("fn", sorted(set(cli._SPECIAL_TABLE) - {"bessel_i0_scaled"})
                             + ["second_moment"])
    def test_degree_zero_fails(self, fn, capsys):
        code, out, err = run_cli(["special", "--fn", fn, "--n", "0", "--grid", "5",
                                  "--family", "bernstein"], capsys)
        assert code == 1
        assert err == "error: degree n must be a positive integer\n"
        assert out == ""

    @pytest.mark.parametrize("fn,xmax", [("psi", "nan"), ("psi", "inf"),
                                         ("sigma", "nan")])
    def test_non_finite_xmax_fails_before_any_work(self, fn, xmax, capsys,
                                                   monkeypatch):
        from grusslab import special

        def reached(*_args):
            raise AssertionError("a special function ran")
        for name in ("psi_bbh", "sigma_szasz"):
            monkeypatch.setattr(special, name, reached)
        code, out, err = run_cli(["special", "--fn", fn, "--xmax", xmax], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: xmax must be finite, got {xmax}\n"

    @pytest.mark.parametrize("xmax,shown", [("0", "0"), ("-1", "-1")])
    def test_non_positive_xmax_fails_before_any_work(self, xmax, shown, capsys,
                                                     monkeypatch):
        # x = 0 alone, --grid times over, is no table of a [0, inf) function
        from grusslab import special

        def reached(*_args):
            raise AssertionError("a special function ran")
        monkeypatch.setattr(special, "sigma_szasz", reached)
        code, out, err = run_cli(["special", "--fn", "sigma", "--xmax", xmax,
                                  "--grid", "3"], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: xmax must be positive, got {shown}\n"

    def test_rerun_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["special", "--fn", "theta", "--n", "3", "--grid", "9"]
        run_cli(args + ["--out", str(a)], capsys)
        run_cli(args + ["--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()


class TestLagrangeCommand:
    def test_table_and_window(self, tmp_path, capsys):
        out = tmp_path / "lag.csv"
        code, stdout, _ = run_cli(
            ["lagrange", "--n", "4", "--grid", "33", "--out", str(out)], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 33
        assert all(float(r["lebesgue_function"]) >= 1.0 - 1e-12 for r in rows)
        window = list(csv.DictReader(io.StringIO(stdout)))
        assert window[0]["in_window"] == "true"

    def test_window_rows_equal_the_report_rows(self, tmp_path, capsys):
        from grusslab.verify import SuiteConfig, run_suite
        code, stdout, _ = run_cli(["lagrange", "--n", "8", "--window", "--grid", "3",
                                   "--out", str(tmp_path / "lag.csv")], capsys)
        assert code == 0
        printed = [{"n": int(r["n"]), "lebesgue_constant": float(r["lebesgue_constant"]),
                    "gap": float(r["gap"]), "in_window": r["in_window"] == "true",
                    "hermann_min_ratio": float(r["hermann_min_ratio"])}
                   for r in csv.DictReader(io.StringIO(stdout))]
        report = run_suite(SuiteConfig(families=("lagrange_cheb",),
                                       degrees=tuple(range(2, 9)), x_grid=3,
                                       grid_n=101, conjecture_nmax=2))
        assert printed == report.suites["lagrange_diagnostics"]["rivlin"]


class TestConjecturesCommand:
    def test_scan(self, capsys):
        code, out, _ = run_cli(["conjectures", "--nmax", "6", "--grid", "129"],
                               capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        assert all(float(r["min_gap_to_half"]) >= -1e-12 for r in rows)


@pytest.mark.parametrize("grid", ["0", "1"])
@pytest.mark.parametrize("argv", [["special", "--fn", "phi"], ["lagrange", "--n", "3"],
                                  ["conjectures"]])
def test_grid_below_two_fails_before_any_work(argv, grid, capsys, monkeypatch):
    from grusslab import lagrange, special, verify

    def reached(*_args):
        raise AssertionError("a table row was computed")
    monkeypatch.setattr(special, "phi_bernstein", reached)
    monkeypatch.setattr(lagrange, "lebesgue_function", reached)
    monkeypatch.setattr(verify, "_phi_grid", reached)
    code, out, err = run_cli(argv + ["--grid", grid], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: grid needs at least 2 points, got {grid}\n"


class TestSharpnessCommand:
    def test_witnesses(self, capsys):
        code, out, _ = run_cli(["sharpness"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(float(r["gap"]) <= 1e-10 for r in rows)


class _Captured(Exception):
    pass


def _verify_config(monkeypatch, flags):
    """The SuiteConfig `verify` builds from ``flags``."""
    import grusslab.cli as cli_mod

    def capture(cfg):
        raise _Captured(cfg)
    monkeypatch.setattr(cli_mod, "run_suite", capture)
    with pytest.raises(_Captured) as exc:
        main(["verify", *flags])
    return exc.value.args[0]


class TestVerifyFlags:
    def test_no_flags_give_the_default_config(self, monkeypatch):
        from grusslab.verify import SuiteConfig
        assert _verify_config(monkeypatch, []) == SuiteConfig()

    def test_every_field_is_settable(self, monkeypatch):
        import dataclasses

        from grusslab.verify import SuiteConfig
        cfg = _verify_config(monkeypatch, [
            "--families", "bernstein,szasz", "--degrees", "3,5", "--xgrid", "9",
            "--functions", "e0,e1", "--grid", "101", "--tail-eps", "1e-11",
            "--xmax", "20", "--seed", "7",
            "--conjecture-nmax", "2"])
        default = SuiteConfig()
        unset = [f.name for f in dataclasses.fields(SuiteConfig)
                 if getattr(cfg, f.name) == getattr(default, f.name)]
        assert unset == []
        assert (cfg.families, cfg.degrees) == (("bernstein", "szasz"), (3, 5))

    @pytest.mark.parametrize("flags", [
        ["--tail-eps", "0"], ["--tail-eps", "-1"], ["--tail-eps", "nan"],
        ["--tail-eps", "inf"], ["--xmax", "nan"], ["--xmax", "0"], ["--xmax", "inf"],
        ["--grid", "1"], ["--families", "bernstein,nosuch"], ["--degrees", "2,0"],
        ["--conjecture-nmax", "0"], ["--xgrid", "2"]])
    def test_bad_value_fails_before_any_work(self, flags, tmp_path, capsys,
                                             monkeypatch):
        import grusslab.cli as cli_mod

        def reached(cfg):
            raise _Captured(cfg)
        monkeypatch.setattr(cli_mod, "run_suite", reached)
        out = tmp_path / "r.json"
        code, _, err = run_cli(["verify", *flags, "--out", str(out)], capsys)
        assert code == 1
        assert err.startswith("error: ")
        assert not out.exists()


GATE_SUITE = dict(families=("two_point",), degrees=(1,), x_grid=9, grid_n=101,
                  conjecture_nmax=3)


class TestGatesAgree:
    """Each command fails exactly when the suite that runs it fails."""

    @pytest.mark.parametrize("gap,holds", [(math.nan, False), (-2e-12, False),
                                           (-0.5e-12, True)])
    def test_half_point(self, gap, holds, monkeypatch, capsys):
        import grusslab.cli as cli_mod
        from grusslab import verify
        scan = verify.conjecture_scan

        def shifted(n_max, grid=verify.CONJECTURE_GRID):
            rows = scan(n_max, grid)
            rows[-1]["min_gap_to_half"] = gap
            return rows
        monkeypatch.setattr(cli_mod, "conjecture_scan", shifted)
        monkeypatch.setattr(verify, "conjecture_scan", shifted)
        code, _, err = run_cli(["conjectures", "--nmax", "3", "--grid", "65"], capsys)
        assert code == (0 if holds else 1)
        assert ("half-point minimum violated at n=3" in err) is not holds
        report = verify.run_suite(verify.SuiteConfig(**GATE_SUITE))
        assert report.suites["conjectures"]["pass"] is holds
        assert report.passed is holds
        json.loads(report.to_json(), parse_constant=_no_constants)

    def test_failed_conjecture_names_its_row(self, tmp_path, monkeypatch, capsys):
        """A failing conjectures suite names its first failing row on stderr,
        and a sweep that passed prints no worst margin."""
        from grusslab import verify
        scan = verify.conjecture_scan

        def nan_gap(n_max, grid=verify.CONJECTURE_GRID):
            rows = scan(n_max, grid)
            rows[1]["min_gap_to_half"] = math.nan
            return rows
        monkeypatch.setattr(verify, "conjecture_scan", nan_gap)
        code, _, err = run_cli(SMALL_VERIFY + ["--out", str(tmp_path / "r.json")], capsys)
        assert code == 1
        row = json.loads(err.split("suite failed: conjectures worst ", 1)[1].splitlines()[0])
        assert row["n"] == 2 and row["min_gap_to_half"] == "nan"
        assert "worst margin:" not in err

    @pytest.mark.parametrize("gap,holds", [(2e-10, False), (0.5e-10, True)])
    def test_equality(self, gap, holds, monkeypatch, capsys):
        import grusslab.cli as cli_mod
        from grusslab import verify
        suite = verify.sharpness_suite

        def off_by_gap():
            rows = suite()
            rows[3]["gap"] = gap
            return rows
        monkeypatch.setattr(cli_mod, "sharpness_suite", off_by_gap)
        monkeypatch.setattr(verify, "sharpness_suite", off_by_gap)
        code, _, err = run_cli(["sharpness"], capsys)
        assert code == (0 if holds else 1)
        assert ("equality witness off by" in err) is not holds
        report = verify.run_suite(verify.SuiteConfig(**GATE_SUITE))
        assert report.suites["sharpness"]["pass"] is holds
        assert report.passed is holds


class TestUsageErrors:
    def test_unknown_subcommand_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--no-such-flag"])
        assert exc.value.code == 2


class TestParserCache:
    def test_parser_built_once(self, capsys):
        cli._build_parser.cache_clear()
        calls = [["bounds", "--op", "bernstein:4", "--x", "0.3"],
                 ["special", "--fn", "phi", "--n", "3", "--grid", "5"],
                 ["lagrange", "--n", "3", "--grid", "5"],
                 ["bounds", "--op", "durrmeyer:3"]] * 5
        for argv in calls:
            main(argv)
        with pytest.raises(SystemExit):
            main(["bounds"])
        capsys.readouterr()
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(calls))

    def test_usage_exits_leave_the_next_call_as_in_a_fresh_process(
            self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        sequence = [["bounds", "--op"], ["--help"],
                    ["bounds", "--op", "szasz:3", "--f", "hat", "--x", "2.5"]]
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "grusslab.cli", *argv],
                                   env=_python_env(), capture_output=True,
                                   text=True, timeout=120)
            assert (code, captured.out, captured.err) == \
                (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_no_process_loads_scipy_special():
    """One bounds call per family and a small verify leave scipy.special
    unloaded: the program reads it nowhere."""
    ops = [f"{fam}:1:0.5" if fam in ONE_POINT_FAMILIES else f"{fam}:3"
           for fam in FAMILIES]
    script = "\n".join([
        "import contextlib, io, sys",
        "from grusslab.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        *[f"    assert main(['bounds', '--op', {op!r}, '--x', '0.5']) == 0"
          for op in ops],
        "    assert main(['verify', '--degrees', '1,2', '--xgrid', '9',"
        " '--conjecture-nmax', '2']) == 0",
        "assert 'scipy.special' not in sys.modules, 'scipy.special was imported'",
    ])
    proc = subprocess.run([sys.executable, "-c", script], env=_python_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv,capped", [
    (["bounds", "--op", "baskakov:64", "--x", "1e7"], True),
    (["bounds", "--op", "szasz:64", "--x", "1e7"], True),
    (["special", "--fn", "theta", "--n", "64", "--xmax", "1e7"], False),
], ids=["baskakov", "szasz", "theta"])
def test_hard_cap_checked_before_allocating(argv, capped):
    """A truncation window past the hard cap is refused before its arrays
    are built.  Under a 3 GiB address-space limit the command prints one
    error line and exits 1; building first would ask for 4.7 GiB
    (baskakov:64) and die of a MemoryError.  theta is a closed form of n
    terms, with no cap to reach: under the same limit it prints every value,
    each in (0, 1]."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
    proc = subprocess.run([sys.executable, "-m", "grusslab.cli", *argv],
                          env=_python_env(), capture_output=True, text=True,
                          timeout=120, preexec_fn=limit)
    if capped:
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and "hard cap" in proc.stderr, \
            proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr
        return
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    values = [float(line.split(",")[2]) for line in proc.stdout.splitlines()[1:]]
    assert len(values) == 257 and all(0.0 < v <= 1.0 for v in values), values


class TestNumericFailurePath:
    def test_nonfinite_rhs_fails_loudly(self, tmp_path, capsys, monkeypatch):
        import dataclasses

        import numpy as np

        from grusslab import bounds as bnd
        rows = tuple(
            dataclasses.replace(b, rhs=lambda c: np.full_like(c.lhs, np.nan))
            if b.name == "mercer" else b for b in bnd.BOUNDS)
        monkeypatch.setattr(bnd, "BOUNDS", rows)
        out = tmp_path / "r.json"
        code = main(["verify", "--families", "bernstein", "--degrees", "2",
                     "--xgrid", "9", "--grid", "101", "--conjecture-nmax", "2",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1

        def no_constants(name):
            raise AssertionError(f"report holds {name}")
        payload = json.loads(out.read_text(), parse_constant=no_constants)
        assert payload["pass"] is False
        sweep = payload["suites"]["bound_sweep"]
        assert sweep["failures"] > 0
        first = sweep["failure_samples"][0]
        assert (first["bound"], first["operator"], first["margin"]) == \
            ("mercer", "bernstein", "nan")
        # no finite margin is left to name a worst one, here or in the lattice
        # row that compares mercer with the quarter bound
        assert payload["coverage"]["missing"] == {
            "bernstein": ["lattice_gruss_vs_mercer", "mercer"]}
        assert "worst failing margin" in captured.err
        assert '"bound": "mercer"' in captured.err
        assert '"operator": "bernstein"' in captured.err

    def test_failing_report_prints_witness_and_exits_one(self, tmp_path, capsys,
                                                         monkeypatch):
        import grusslab.cli as cli_mod
        real = cli_mod.run_suite

        def failing(cfg):
            report = real(cfg)
            sweep = report.suites["bound_sweep"]
            sweep["pass"] = False
            sweep["failures"] = 1
            sweep["failure_samples"] = [{
                "bound": "new_osc", "operator": "bernstein", "n": 2, "x": 0.5,
                "f": "e1", "g": "e1", "lhs": 0.3, "margin": -0.05,
                "allowance": 1e-9,
            }]
            report.passed = False
            return report

        monkeypatch.setattr(cli_mod, "run_suite", failing)
        code = main(["verify", "--families", "bernstein", "--degrees", "1",
                     "--xgrid", "9", "--grid", "101", "--conjecture-nmax", "2",
                     "--out", str(tmp_path / "r.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert "worst failing margin" in captured.err
        assert "bernstein" in captured.err
        assert "suite failed: bound_sweep" in captured.err

    @pytest.mark.parametrize("row", ["measure_support", "gruss_quarter"])
    def test_mixed_measure_rows_see_a_small_error(self, row, tmp_path, capsys,
                                                   monkeypatch):
        """A mixed-measure rhs lowered by 1e-8 at every cell fails the gate:
        its rows carry the base allowance alone, with no quadrature slack to
        cover the change."""
        import dataclasses

        from grusslab import bounds as bnd
        rows = tuple(dataclasses.replace(b, rhs=lambda c, rhs=b.rhs: rhs(c) - 1e-8)
                     if b.name == row else b for b in bnd.BOUNDS)
        monkeypatch.setattr(bnd, "BOUNDS", rows)
        out = tmp_path / "r.json"
        code, _, err = run_cli(["verify", "--families", "measure_example",
                                "--xgrid", "9", "--grid", "101",
                                "--conjecture-nmax", "2", "--out", str(out)], capsys)
        assert code == 1
        sweep = json.loads(out.read_text())["suites"]["bound_sweep"]
        assert sweep["failures"] > 0
        assert {s["bound"] for s in sweep["failure_samples"]} == {row}
        assert f'"bound": "{row}"' in err and '"operator": "measure_example"' in err


SMALL_VERIFY = ["verify", "--families", "bernstein", "--degrees", "2", "--xgrid", "9",
                "--grid", "101", "--conjecture-nmax", "2"]


def _no_constants(name):
    raise AssertionError(f"report holds {name}")


class TestNonFiniteStatistics:
    def test_nan_sign_statistic_fails_monotone_signs(self, tmp_path, capsys,
                                                     monkeypatch):
        import numpy as np

        from grusslab import bounds as bnd
        anti_t = bnd.Batch.anti_t

        def nan_at_half(self, i):
            # a NaN T(e1, 1 - e1) at x = 0.5 only, after finite values
            out = anti_t(self, i).copy()
            out[self.xs == 0.5] = np.nan
            return out

        monkeypatch.setattr(bnd.Batch, "anti_t", nan_at_half)
        out = tmp_path / "r.json"
        code = main(SMALL_VERIFY + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert "suite failed: monotone_signs" in captured.err
        payload = json.loads(out.read_text(), parse_constant=_no_constants)
        signs = payload["suites"]["monotone_signs"]
        assert signs["pass"] is False
        assert signs["max_antimonotone_T"] == "nan"
        assert signs["antimonotone_witness"] == {"operator": "bernstein", "n": 2,
                                                 "x": 0.5}
        assert '"antimonotone_witness": {"n": 2, "operator": "bernstein", "x": 0.5}' \
            in captured.err
        assert payload["suites"]["bound_sweep"]["pass"] is True

    def test_nan_sharpness_gap_fails_sharpness(self, tmp_path, capsys, monkeypatch):
        import dataclasses

        from grusslab import bounds as bnd
        new_osc = next(b for b in bnd.BOUNDS if b.name == "new_osc")

        def nan_on_two_point(c):
            # the two-point witnesses read this row; the sweep here does not
            rhs = new_osc.rhs(c)
            return rhs * math.nan if c.block.family == "two_point" else rhs
        monkeypatch.setattr(bnd, "BOUNDS", tuple(
            dataclasses.replace(b, rhs=nan_on_two_point) if b is new_osc else b
            for b in bnd.BOUNDS))
        out = tmp_path / "r.json"
        code = main(SMALL_VERIFY + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert "suite failed: sharpness" in captured.err
        payload = json.loads(out.read_text(), parse_constant=_no_constants)
        sharp = payload["suites"]["sharpness"]
        assert sharp["pass"] is False
        assert sharp["max_abs_gap"] == "nan"
        first = next(w for w in sharp["witnesses"] if w["gap"] == "nan")
        assert (first["witness"], first["n"], first["x"]) == ("two_point_oscillation", 1, 0.1)
        assert '"witness": "two_point_oscillation"' in captured.err
        # the sharpness command fails on the same NaN
        assert main(["sharpness"]) == 1


class TestBlockErrors:
    def test_raising_row_names_type_message_and_batch(self, tmp_path, capsys,
                                                      monkeypatch):
        import dataclasses

        from grusslab import bounds as bnd

        mercer = next(b for b in bnd.BOUNDS if b.name == "mercer")

        def boom(c):
            # the sweep's blocks only: the two-point witnesses read this row too
            if c.block.family == "bernstein":
                raise ZeroDivisionError("row failed")
            return mercer.rhs(c)
        rows = tuple(dataclasses.replace(b, rhs=boom) if b is mercer else b
                     for b in bnd.BOUNDS)
        monkeypatch.setattr(bnd, "BOUNDS", rows)
        out = tmp_path / "r.json"
        code = main(SMALL_VERIFY + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        payload = json.loads(out.read_text())
        err = {"operator": "bernstein", "n": 2, "x_range": [0.0, 1.0],
               "error_type": "ZeroDivisionError", "message": "row failed"}
        assert payload["suites"]["bound_sweep"]["block_errors"] == [err]
        assert f"block error: {json.dumps(err, sort_keys=True)}" in captured.err
        assert "suite failed: bound_sweep" in captured.err

    @pytest.mark.parametrize("exc", [ZeroDivisionError, RuntimeError])
    def test_raising_row_in_a_witness_is_recorded(self, tmp_path, capsys, monkeypatch,
                                                  exc):
        # the mercer row raises everywhere, in the two-point witnesses too:
        # the run still writes its report, names the error and exits 1
        import dataclasses

        from grusslab import bounds as bnd

        def boom(_c):
            raise exc("row failed")
        rows = tuple(dataclasses.replace(b, rhs=boom) if b.name == "mercer" else b
                     for b in bnd.BOUNDS)
        monkeypatch.setattr(bnd, "BOUNDS", rows)
        out = tmp_path / "r.json"
        code = main(SMALL_VERIFY + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        payload = json.loads(out.read_text())
        err = {"error_type": exc.__name__, "message": "row failed"}
        assert payload["suites"]["sharpness"] == {"pass": False, "error": err}
        assert payload["pass"] is False
        assert [e["error_type"] for e in payload["suites"]["bound_sweep"]["block_errors"]] \
            == [exc.__name__]
        assert f"suite failed: sharpness error {json.dumps(err, sort_keys=True)}" \
            in captured.err
        assert "Traceback" not in captured.err

    def test_block_error_alone_prints_no_passing_margin(self, tmp_path, capsys,
                                                        monkeypatch):
        import dataclasses

        from grusslab import bounds as bnd

        def quarter_failing_at_3(row):
            def rhs(c):
                if c.block.n == 3:
                    raise ZeroDivisionError("row failed")
                return row.rhs(c)
            return rhs
        rows = tuple(dataclasses.replace(b, rhs=quarter_failing_at_3(b))
                     if b.name == "gruss_quarter" else b for b in bnd.BOUNDS)
        monkeypatch.setattr(bnd, "BOUNDS", rows)
        code, _, err = run_cli(["verify", "--families", "bernstein", "--degrees", "2,3",
                                "--xgrid", "9", "--grid", "101", "--conjecture-nmax", "2",
                                "--out", str(tmp_path / "r.json")], capsys)
        assert code == 1
        assert 'block error: {"error_type": "ZeroDivisionError"' in err
        assert "worst margin:" not in err


def test_optimised_python_gives_the_same_report(tmp_path):
    """No gate or budget check lives in an assert: `python -O` writes the
    same report bytes."""
    env = _python_env()
    args = ["-m", "grusslab.cli", "verify", "--families", "bernstein,szasz,measure_example",
            "--degrees", "1,3", "--xgrid", "9", "--grid", "101", "--conjecture-nmax", "3"]
    reports = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"report{len(reports)}.json"
        proc = subprocess.run([sys.executable, *flags, *args, "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["pass"] is True


def test_optimised_python_keeps_the_argument_checks():
    """Under `python -O` a one-point family's bad --x and a --grid below 2
    still exit 1 with their error line."""
    env = _python_env()
    for argv, err in ((["bounds", "--op", "two_point:1:0.5", "--x", "nan"],
                       "error: two_point requires x in [0, 1]\n"),
                      (["conjectures", "--grid", "1"],
                       "error: grid needs at least 2 points, got 1\n")):
        proc = subprocess.run([sys.executable, "-O", "-m", "grusslab.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err)
