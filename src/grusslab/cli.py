"""Command-line front end: verification runs, tabulation, one-shot bounds.

All numeric output is printed with 17 significant digits so reruns with the
same flags are byte-identical and round-trip through float parsing.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import math
import sys

import numpy as np

from . import lagrange as lag
from . import operators as ops
from . import special
from .funcspace import CORPUS_NAMES, check_grid, standard_corpus
from .verify import (CONJECTURE_GRID, SuiteConfig,
                     conjecture_scan, equality_holds, half_point_holds,
                     one_shot_bounds, run_suite, sharpness_suite)

__all__ = ["main"]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(row.get(c)) for c in columns) + "\n")
    return buf.getvalue()


def _split_list(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in _split_list(text))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify(args) -> int:
    # every SuiteConfig field has a flag whose dest is the field name
    cfg = SuiteConfig(**{f.name: getattr(args, f.name)
                         for f in dataclasses.fields(SuiteConfig)})
    report = run_suite(cfg)
    _write_out(report.to_json() + "\n", args.out)
    if not report.passed:
        sweep = report.suites["bound_sweep"]
        samples = sweep.get("failure_samples") or []
        if samples:
            # a non-finite margin is carried by name and counts as the worst
            worst = min(samples, key=lambda r: r["margin"]
                        if isinstance(r["margin"], float) else -math.inf)
            print(f"worst failing margin: {json.dumps(worst, sort_keys=True)}",
                  file=sys.stderr)
        for err in sweep["block_errors"]:
            print(f"block error: {json.dumps(err, sort_keys=True)}", file=sys.stderr)
        for suite, body in report.suites.items():
            if not body.get("pass", True):
                worst = _suite_witness(suite, body)
                witness = (f" worst {json.dumps(worst, sort_keys=True)}"
                           if worst is not None else "")
                print(f"suite failed: {suite}{witness}", file=sys.stderr)
        if report.coverage["missing"]:
            print(f"coverage missing: {json.dumps(report.coverage['missing'], sort_keys=True)}",
                  file=sys.stderr)
        return 1
    return 0


def _suite_witness(suite: str, body: dict) -> dict | None:
    """The record a failed suite names on stderr."""
    if "worst" in body:
        return body["worst"]
    if suite == "monotone_signs":
        return {k: body[k] for k in ("min_comonotone_T", "comonotone_witness",
                                     "max_antimonotone_T", "antimonotone_witness")}
    if suite == "sharpness":
        return next(w for w in body["witnesses"] if w["gap"] == body["max_abs_gap"])
    if suite == "conjectures":
        return next(row for row in body["findings"] if not half_point_holds(row))
    return None


_SPECIAL_TABLE = {
    "phi": ("unit", lambda n, x: special.phi_bernstein(n, x)),
    "phi_legendre": ("legendre", lambda n, x: special.phi_via_legendre(n, x)),
    "central_binom": ("scalar", lambda n, _x: special.central_binom_scaled(n)),
    "bessel_i0_scaled": ("ray_z", lambda _n, z: special.scaled_bessel_i0(z)),
    "sigma": ("ray", lambda n, x: special.sigma_szasz(n, x)),
    "theta": ("ray", lambda n, x: special.theta_baskakov(n, x)),
    "psi": ("ray", lambda n, t: special.psi_bbh(n, t)),
    "tau": ("unit", lambda n, x: special.tau_hat(n, x)),
    "king_sumsq": ("unit", lambda n, x: special.king_sumsq(n, x)),
}


def _cmd_special(args) -> int:
    if not math.isfinite(args.xmax):
        raise ValueError(f"xmax must be finite, got {args.xmax}")
    if args.xmax <= 0.0:
        raise ValueError(f"xmax must be positive, got {args.xmax:g}")
    check_grid(args.grid)
    if args.fn == "second_moment":
        if not args.family:
            print("second_moment needs --family", file=sys.stderr)
            return 2
        xs = np.linspace(0.0, 1.0, args.grid)
        rows = [{"n": args.n, "x": float(x),
                 "value": special.second_moment(args.family, args.n, float(x))}
                for x in xs]
    else:
        kind, fn = _SPECIAL_TABLE[args.fn]
        if kind == "scalar":
            rows = [{"n": args.n, "x": None, "value": fn(args.n, 0.0)}]
        else:
            if kind == "unit":
                xs = np.linspace(0.0, 1.0, args.grid)
            elif kind == "legendre":
                xs = np.linspace(0.0, 0.5 - special.LEGENDRE_EXCLUSION, args.grid)
            else:
                xs = np.linspace(0.0, args.xmax, args.grid)
            rows = [{"n": args.n, "x": float(x), "value": fn(args.n, float(x))}
                    for x in xs]
    _write_out(_csv(rows, ["n", "x", "value"]), args.out)
    return 0


def _cmd_lagrange(args) -> int:
    n = args.n
    check_grid(args.grid)
    xs = np.linspace(-1.0, 1.0, args.grid)
    rows = [{"x": float(x),
             "lebesgue_function": lag.lebesgue_function(n, float(x)),
             "pair_product_sum": lag.pair_product_sum(n, float(x))}
            for x in xs]
    _write_out(_csv(rows, ["x", "lebesgue_function", "pair_product_sum"]), args.out)
    degrees = range(2, max(n, 2) + 1) if args.window else [n]
    window = [lag.rivlin_row(m) for m in degrees if m >= 2]
    sys.stdout.write(_csv(window, ["n", "lebesgue_constant", "gap", "in_window",
                                   "hermann_min_ratio"]))
    return 0


def _cmd_bounds(args) -> int:
    spec = ops.parse_operator_spec(args.op)
    corpus = standard_corpus(ops.FAMILY[spec.family].domain)
    rec = one_shot_bounds(spec, args.x, corpus[args.f], corpus[args.g])
    _write_out(json.dumps(rec.to_dict(), sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _cmd_conjectures(args) -> int:
    rows = conjecture_scan(args.nmax, args.grid)
    _write_out(_csv(rows, ["n", "min_second_difference",
                           "first_difference_sign_changes", "min_gap_to_half"]),
               args.out)
    bad = [r for r in rows if not half_point_holds(r)]
    if bad:
        print(f"half-point minimum violated at n={bad[0]['n']}", file=sys.stderr)
        return 1
    return 0


def _cmd_sharpness(args) -> int:
    rows = sharpness_suite()
    _write_out(_csv(rows, ["witness", "n", "x", "lhs", "rhs", "gap"]), args.out)
    bad = [r["gap"] for r in rows if not equality_holds(r)]
    if bad:
        print(f"equality witness off by {bad[0]:.3e}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="grusslab",
        description="Oscillation-based bound verification for positive and "
                    "signed linear operators.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    cfg = SuiteConfig()
    v = sub.add_parser("verify", help="run the full verification suite")
    v.add_argument("--families", type=_split_list, default=cfg.families,
                   help="comma list, default all")
    v.add_argument("--degrees", type=_int_list, default=cfg.degrees,
                   help=f"comma list, default {','.join(map(str, cfg.degrees))}")
    v.add_argument("--xgrid", dest="x_grid", type=int, default=cfg.x_grid,
                   help="x grid per domain")
    v.add_argument("--functions", type=_split_list, default=cfg.functions,
                   help="corpus subset, comma list")
    v.add_argument("--grid", dest="grid_n", type=int, default=cfg.grid_n,
                   help="global function grid")
    v.add_argument("--tail-eps", type=float, default=cfg.tail_eps)
    v.add_argument("--xmax", dest="x_max", type=float, default=cfg.x_max)
    v.add_argument("--seed", type=int, default=cfg.seed)
    v.add_argument("--conjecture-nmax", type=int, default=cfg.conjecture_nmax)
    v.add_argument("--out", help="report JSON path (default stdout)")
    v.set_defaults(handler=_cmd_verify)

    s = sub.add_parser("special", help="tabulate a special function to CSV")
    s.add_argument("--fn", required=True,
                   choices=sorted(_SPECIAL_TABLE) + ["second_moment"])
    s.add_argument("--n", type=int, default=8)
    s.add_argument("--grid", type=int, default=cfg.x_grid)
    s.add_argument("--xmax", type=float, default=cfg.x_max)
    s.add_argument("--family", help="family for second_moment")
    s.add_argument("--out")
    s.set_defaults(handler=_cmd_special)

    g = sub.add_parser("lagrange", help="Lebesgue function table and window")
    g.add_argument("--n", type=int, default=16)
    g.add_argument("--grid", type=int, default=cfg.x_grid)
    g.add_argument("--window", action="store_true",
                   help="tabulate the window for all 2..n")
    g.add_argument("--out")
    g.set_defaults(handler=_cmd_lagrange)

    b = sub.add_parser("bounds", help="one BoundResult for an operator and pair")
    b.add_argument("--op", required=True, help="family:n[:param]")
    b.add_argument("--f", default="e1", choices=CORPUS_NAMES)
    b.add_argument("--g", default="e1", choices=CORPUS_NAMES)
    b.add_argument("--x", type=float, default=0.5)
    b.add_argument("--out")
    b.set_defaults(handler=_cmd_bounds)

    c = sub.add_parser("conjectures", help="shape-conjecture scan table")
    c.add_argument("--nmax", type=int, default=cfg.conjecture_nmax)
    c.add_argument("--grid", type=int, default=CONJECTURE_GRID)
    c.add_argument("--out")
    c.set_defaults(handler=_cmd_conjectures)

    h = sub.add_parser("sharpness", help="equality witness table")
    h.add_argument("--out")
    h.set_defaults(handler=_cmd_sharpness)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
