"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import math

import numpy as np
import pytest
from scipy.special import comb

from grusslab import lagrange as lag
from grusslab import operators as ops
from grusslab import special as sp
from grusslab.cli import main as cli_main
from grusslab.verify import sharpness_suite


def _say(line):
    print(f"\n[acceptance] {line}")


def test_criterion_1_bound_sweep(default_run):
    """Full sweep: every applicable bound margin >= -(1e-9 + declared slack)."""
    report, elapsed = default_run
    sweep = report.suites["bound_sweep"]
    assert set(report.coverage["families"]) == {
        "bernstein", "sdelta", "szasz", "baskakov", "bbh", "king",
        "two_point", "measure_example", "lagrange_cheb"}
    assert sweep["failures"] == 0, sweep["failure_samples"][:3]
    assert sweep["cells"] >= 9 * 257 * 100  # families x grid x pairs, at least
    assert elapsed < 120.0
    _say(f"criterion 1 PASS: {sweep['cells']} cells, "
         f"{sweep['margin_checks']} margin checks, 0 failures, "
         f"{elapsed:.1f}s")


def test_criterion_2_equality_witnesses():
    rows = sharpness_suite()
    worst = max(r["gap"] for r in rows)
    assert worst <= 1e-10, rows
    # the four stated witness groups are all present
    kinds = {r["witness"] for r in rows}
    assert {"bernstein_classical_identity", "two_point_oscillation",
            "two_point_mercer", "lagrange_pair_product"} <= kinds
    _say(f"criterion 2 PASS: {len(rows)} equality witnesses, worst gap {worst:.2e}")


def test_criterion_3_phi_identities():
    worst_half = worst_sym = worst_leg = worst_dd = 0.0
    xs_leg = np.linspace(0.0, 0.499, 61)
    ts = np.linspace(0.0, 0.5, 41)
    h = 1e-3
    for n in range(1, 65):
        worst_half = max(worst_half, abs(
            sp.phi_bernstein(n, 0.5) - sp.central_binom_scaled(n)))
        for t in ts:
            worst_sym = max(worst_sym, abs(
                sp.phi_bernstein(n, 0.5 - float(t))
                - sp.phi_bernstein(n, 0.5 + float(t))))
        for x in xs_leg:
            a = sp.phi_via_legendre(n, float(x))
            b = sp.phi_bernstein(n, float(x))
            worst_leg = max(worst_leg, abs(a - b) / b)
        dd = (sp.phi_bernstein(n, 0.5 + h) - 2.0 * sp.phi_bernstein(n, 0.5)
              + sp.phi_bernstein(n, 0.5 - h)) / (h * h)
        want = 4.0 ** (2 - n) * comb(2 * n - 2, n - 1, exact=True)
        worst_dd = max(worst_dd, abs(dd - want) / want)
    assert worst_half <= 1e-12
    assert worst_sym <= 1e-12
    assert worst_leg <= 1e-9
    assert worst_dd <= 1e-4
    _say(f"criterion 3 PASS: half-point {worst_half:.1e}, symmetry "
         f"{worst_sym:.1e}, legendre rel {worst_leg:.1e}, second-derivative "
         f"rel {worst_dd:.1e}")


def test_criterion_4_inequality_chains():
    slack = 1e-12
    for n in range(2, 65):
        c = sp.central_binom_scaled(n)
        assert 1.0 / (n + 1) < 1.0 / (2.0 * math.sqrt(n)) - slack
        assert 1.0 / (2.0 * math.sqrt(n)) < c - slack
        assert c < 1.0 / math.sqrt(2.0 * n + 1.0) - slack
        assert 1.0 / math.sqrt(math.pi * (n + 3)) < c - slack
        assert c < 1.0 / math.sqrt(math.pi * (n - 1)) - slack
    _say("criterion 4 PASS: both chains strict for n = 2..64")


def test_criterion_5_rivlin_window():
    assert lag.lebesgue_constant(2) == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert lag.lebesgue_constant(3) == pytest.approx(5.0 / 3.0, abs=1e-6)
    lo = hi = None
    for n in range(2, 101):
        gap = lag.rivlin_gap(n)
        assert lag.RIVLIN_LO - 1e-6 < gap < lag.RIVLIN_HI + 1e-6, (n, gap)
        lo = gap if lo is None else min(lo, gap)
        hi = gap if hi is None else max(hi, gap)
    _say(f"criterion 5 PASS: gaps in [{lo:.6f}, {hi:.6f}] for n = 2..100")


def test_criterion_6_closed_form_specials():
    xs = np.linspace(0.0, 50.0, 101)
    worst_theta = 0.0
    for x in xs:
        x = float(x)
        worst_theta = max(worst_theta, abs(
            sp.theta_baskakov(1, x) - 1.0 / (1.0 + 2.0 * x)))
        want = (2 * x * x + 2 * x + 1) / (2 * x + 1) ** 3
        worst_theta = max(worst_theta, abs(sp.theta_baskakov(2, x) - want))
    assert worst_theta <= 1e-10

    def integral_form(z, m=4000):
        theta = (2.0 * np.arange(1, m + 1) - 1.0) * (math.pi / (2.0 * m))
        return float(np.mean(np.exp(-z * (1.0 + np.cos(theta)))))

    worst_sigma = 0.0
    for n in (1, 2, 4, 8):
        for x in np.linspace(0.0, 50.0, 26):
            z = 2.0 * n * float(x)
            worst_sigma = max(worst_sigma, abs(
                sp.sigma_szasz(n, float(x)) - integral_form(z)))
    assert worst_sigma <= 1e-8

    worst_psi = 0.0
    for n in (1, 2, 4, 8, 16, 32):
        for t in np.linspace(0.0, 50.0, 26):
            t = float(t)
            worst_psi = max(worst_psi, abs(
                sp.psi_bbh(n, t) - sp.phi_bernstein(n, t / (1.0 + t))))
    assert worst_psi <= 1e-10

    worst_tau = 0.0
    for n in (1, 2, 7, 64):
        for k in range(1, n + 1):
            worst_tau = max(worst_tau, abs(
                sp.tau_hat(n, (2 * k - 1) / (2 * n)) - 0.5))
    assert worst_tau <= 1e-12

    king_dev = abs(sp.king_sumsq(1, math.sqrt(2.0) / 2.0) - 0.5)
    assert king_dev <= 1e-12
    _say(f"criterion 6 PASS: theta {worst_theta:.1e}, sigma-integral "
         f"{worst_sigma:.1e}, psi {worst_psi:.1e}, tau {worst_tau:.1e}, "
         f"king {king_dev:.1e}")


def test_criterion_7_identity_equivalence(default_run, corpus01, corpus_pm,
                                          corpus_ray):
    report, _ = default_run
    suite = report.suites["identity_equivalence"]
    assert suite["pass"], suite["worst"]
    assert suite["checks"] >= 6 * 100  # all exact families x all pairs

    # spot check the two formulas on every exact family at full pair coverage
    corpora = {"bernstein": corpus01, "sdelta": corpus01, "king": corpus01,
               "two_point": corpus01, "bbh": corpus_ray, "lagrange_cheb": corpus_pm}
    builders = {
        "bernstein": lambda: ops.bernstein_at(8, 0.37),
        "sdelta": lambda: ops.sdelta_at(8, 0.37),
        "king": lambda: ops.king_at(8, 0.37),
        "two_point": lambda: ops.two_point(0.37),
        "bbh": lambda: ops.bbh_at(8, 1.7),
        "lagrange_cheb": lambda: __import__("grusslab.lagrange",
                                            fromlist=["lagrange_basis"]
                                            ).lagrange_basis(8, 0.37),
    }
    for family, corpus in corpora.items():
        L = builders[family]()
        fv = np.stack([corpus[nm].values(L.nodes) for nm in corpus])
        scale = 1.0 + np.max(np.abs(fv), axis=1)
        form = ops.PairForm(L, corpus.values())
        for i, f in enumerate(corpus.values()):
            for j, g in enumerate(corpus.values()):
                t1 = ops.chebyshev_T(L, f, g)
                t2 = ops.pairwise_identity(form, f, g)
                floor = 256.0 * np.finfo(float).eps * scale[i] * scale[j]
                assert abs(t1 - t2) <= 1e-10 * max(abs(t1), abs(t2)) + floor
    _say(f"criterion 7 PASS: {suite['checks']} suite checks plus "
         "full-pair spot checks on all exact families")


def test_criterion_8_monotone_signs(default_run):
    report, _ = default_run
    suite = report.suites["monotone_signs"]
    assert suite["pass"]
    assert suite["min_comonotone_T"] >= -1e-12
    assert suite["max_antimonotone_T"] <= 1e-12
    _say(f"criterion 8 PASS: comonotone T >= {suite['min_comonotone_T']:.2e}, "
         f"antimonotone T <= {suite['max_antimonotone_T']:.2e}")


def test_criterion_9_baskakov_kernel_chain():
    xs = np.linspace(0.0, 50.0, 101)
    prev = None
    worst = math.inf
    for n in range(2, 65):
        cur = np.array([sp.theta_baskakov(n, float(x)) for x in xs])
        assert np.all(cur >= -1e-12)
        if prev is not None:
            gap = float(np.min(prev - cur))
            worst = min(worst, gap)
            assert gap >= -1e-12, n
        prev = cur
    _say(f"criterion 9 PASS: theta chain decreasing for n = 2..64, "
         f"worst step {worst:.2e}")


def test_criterion_10_determinism(default_run, tmp_path, capsys):
    # the CLI defaults must build SuiteConfig(), and two full default runs
    # (this one and the session's) must agree byte for byte
    report, _ = default_run
    a = tmp_path / "run_a.json"
    assert cli_main(["verify", "--out", str(a)]) == 0
    capsys.readouterr()
    assert a.read_text() == report.to_json() + "\n"
    payload = json.loads(a.read_text())
    assert payload["pass"] is True
    _say(f"criterion 10 PASS: byte-identical reports "
         f"({len(a.read_bytes())} bytes)")
