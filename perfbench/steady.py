"""Steadiness command: repeat each workload and print every metric's median
and quartiles; `--quick` is the benchmark's own smoke test.

    python3 perfbench/steady.py                   # seeds 1..10, every workload
    python3 perfbench/steady.py --first-seed 11   # a second set, seeds 11..20
    python3 perfbench/steady.py --quick           # about a minute

Each run is a fresh `run.py` process of `run_seconds` (from BENCHMARK.json),
one after another: ten untraced runs per workload, then three traced ones.
The spread of a metric is (q3 - q1) / median over its runs, with the quartiles
of `statistics.quantiles(values, n=4)`.  The traced runs give the per-layer
medians and the tracing overhead: the traced runs' median `op_p50_ms` minus
the untraced runs' median.  The summary is also written to
`perfbench/out/steady.json`.

`--quick` makes one tiny untraced and one tiny traced run per workload, then
feeds tampered copies of real reports and query results to every output check
and fails unless each check catches the tampering meant for it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, VerifyCall  # noqa: E402

SEEDS = 10            # untraced runs per workload
TRACED = 3            # traced runs per workload, on the first seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed:\n"
                         f"{proc.stderr}")
    if trace:
        doc = json.loads((OUT_DIR / f"trace-{workload}.json").read_text())
        result["traced_op_p50_ms"] = doc["op_p50_ms"]
        for name, flag in (("envelope", True), ("plain", False)):
            ms = [t for t, env in zip(doc["op_ms"], doc["op_builds_envelopes"])
                  if env == flag]
            result[f"traced_{name}_p50_ms"] = statistics.median(ms) if ms else None
    return result


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def steady(seeds: list[int], seconds: float) -> dict:
    out = {}
    for w in WORKLOADS:
        runs = []
        for s in seeds:
            r = run_once(w, s, seconds, 0)
            runs.append(r)
            print(f"  {w} seed {s}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
                + f" ({r['attempted']} ops, {r['failed']} failed)", flush=True)
        traces = [run_once(w, s, seconds, 1) for s in seeds[:TRACED]]
        entry = {
            "seeds": seeds,
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "attempted": summary([r["attempted"] for r in runs]),
            "end_to_end": {m: dict(summary([r["metrics"][m]["value"] for r in runs]),
                                   unit=runs[0]["metrics"][m]["unit"])
                           for m in runs[0]["metrics"]},
        }
        entry["per_layer"] = {
            m: dict(summary([r["metrics"][m]["value"] for r in traces]),
                    unit=traces[0]["metrics"][m]["unit"])
            for m in traces[0]["metrics"]}
        with_trace = statistics.median(r["traced_op_p50_ms"] for r in traces)
        plain = entry["end_to_end"]["op_p50_ms"]["median"]
        entry["trace_overhead"] = {"traced_op_p50_ms": with_trace,
                                   "op_p50_ms": plain,
                                   "overhead_ms": with_trace - plain,
                                   "overhead_share": (with_trace - plain) / plain}
        if traces[0]["traced_envelope_p50_ms"] is not None:
            entry["clusters_ms"] = {
                name: statistics.median(r[f"traced_{name}_p50_ms"] for r in traces)
                for name in ("envelope", "plain")}
        out[w] = entry
        print_workload(w, entry)
    return out


def print_workload(w: str, entry: dict) -> None:
    print(f"{w}: failed share {entry['failed_share']}, attempted median "
          f"{entry['attempted']['median']:g}")
    for m, s in entry["end_to_end"].items():
        print(f"  {m:<14} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    for m, s in entry["per_layer"].items():
        print(f"  {m:<30} median {s['median']:.6g} {s['unit']}")
    o = entry["trace_overhead"]
    print(f"  tracing overhead: {o['overhead_ms']:.3f} ms on op_p50_ms "
          f"({100 * o['overhead_share']:.1f} %)")
    if "clusters_ms" in entry:
        c = entry["clusters_ms"]
        print(f"  traced medians: {c['envelope']:.3f} ms for queries that build "
              f"envelopes, {c['plain']:.3f} ms for the others")


# ---------------------------------------------------------------------------
# quick mode: tiny runs plus tampered outputs


SMALL_VERIFY = ["verify", "--families",
                "bernstein,szasz,baskakov,lagrange_cheb,measure_example,two_point",
                "--degrees", "1,3,8", "--xgrid", "9", "--conjecture-nmax", "2"]


def tamper_cases(corpus, cli_main, call, check_outputs):
    """(check name expected, problems found) for each tampered output."""
    import checks
    from workloads import Query

    rc, text = call(cli_main, SMALL_VERIFY)
    if rc != 0 or checks.check_verify(corpus, SMALL_VERIFY, text, None):
        raise SystemExit("the untampered small report must pass every check")
    base = json.loads(text)
    worst = base["suites"]["bound_sweep"]["per_family_worst"]

    def tampered_text(edit):
        rep = json.loads(text)
        edit(rep)
        return json.dumps(rep, sort_keys=True, indent=2)

    def tampered(edit):
        return checks.check_verify(corpus, SMALL_VERIFY, tampered_text(edit), None)

    def set_witness(family, bound, lhs):
        def edit(rep):
            rep["suites"]["bound_sweep"]["per_family_worst"][family][bound]["lhs"] = lhs
        return edit

    def nested(path, value):
        def edit(rep):
            node = rep
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value(node[path[-1]])
        return edit

    # a report that does not pass comes with exit code 1, as from the CLI,
    # and goes through the run's own output handling
    failing = tampered_text(nested(["pass"], lambda v: False))
    verify_op = VerifyCall(tuple(SMALL_VERIFY))
    lhs = worst["bernstein"]["new_osc"]["lhs"]
    cases = [
        ("pass", check_outputs("verify_default", [(verify_op, 1, failing)])[0]),
        ("coverage", tampered(nested(["coverage", "families"], lambda v: v[1:]))),
        ("coverage", tampered(nested(["coverage", "bounds"], lambda v: v + ["extra"]))),
        ("cells", tampered(nested(["suites", "bound_sweep", "cells"],
                                  lambda v: v + 100))),
        # a one-in-a-million change of a witness of an exact family and of
        # both truncated families; the szasz witness (e0, e2) has |T| = 0, so
        # it is moved by 1e-5 against values of e2 up to 2500
        ("witness_lhs", tampered(set_witness("bernstein", "new_osc",
                                             lhs * (1 + 1e-6) + 1e-6))),
        ("witness_lhs", tampered(set_witness(
            "szasz", "new_osc", worst["szasz"]["new_osc"]["lhs"] + 1e-5))),
        ("witness_lhs", tampered(set_witness(
            "baskakov", "new_osc_globalrange",
            worst["baskakov"]["new_osc_globalrange"]["lhs"] * (1 + 1e-6)))),
        ("witness_gruss", tampered(set_witness("bernstein", "new_osc", lhs + 1.0))),
        ("lattice", tampered(set_witness(
            "bernstein", "lattice_gruss_vs_mercer",
            worst["bernstein"]["lattice_gruss_vs_mercer"]["rhs"] + 1e-3))),
        ("repeat", checks.check_verify(corpus, SMALL_VERIFY,
                                       text.replace('"pass": true', '"pass":  true', 1),
                                       text)),
    ]

    queries = [Query("bernstein", 8, 0.3, "e1", "e1"),
               Query("szasz", 16, 7.25, "sinpi", "randlip"),
               Query("lagrange_cheb", 12, 0.37, "absmid", "expneg")]
    qtexts = []
    for q in queries:
        rc, qtext = call(cli_main, q.argv())
        if rc != 0 or checks.check_query(corpus, q, qtext):
            raise SystemExit(f"the untampered query {q} must pass every check")
        qtexts.append(qtext)

    def q_tampered(i, edit):
        rec = json.loads(qtexts[i])
        edit(rec)
        return checks.check_query(corpus, queries[i], json.dumps(rec))

    def set_rhs(rec):
        rec["rhs"]["new_osc"] = 0.5 * rec["lhs"]

    bad = Query("bernstein", 0, 0.3, "e1", "e2")
    rc, qtext = call(cli_main, bad.argv())
    cases += [
        ("lhs", q_tampered(0, lambda rec: rec.update(lhs=rec["lhs"] * 1.001))),
        ("lhs", q_tampered(1, lambda rec: rec.update(lhs=rec["lhs"] * (1 + 1e-6)))),
        ("rhs", q_tampered(0, set_rhs)),
        ("closed_form", q_tampered(0, lambda rec: rec.update(lhs=rec["lhs"] + 1e-10))),
        ("keys", q_tampered(0, lambda rec: rec["rhs"].pop("mercer"))),
        ("echo", q_tampered(0, lambda rec: rec.update(x=0.31))),
        ("exit", check_outputs("bounds_queries", [(bad, rc, qtext)])[0]),
    ]
    return cases


def quick() -> int:
    for w in WORKLOADS:
        for trace in (0, 1):
            r = run_once(w, 1, 1, trace)
            if r["failed"]:
                raise SystemExit(f"{w}: {r['failed']} operations failed")
            print(f"quick run {w} trace {trace}: {r['attempted']} ops, correct")
    sys.path.insert(0, str(HERE.parent / "src"))
    import checks
    from grusslab.cli import main as cli_main
    from grusslab.funcspace import standard_corpus
    from run import call, check_outputs

    corpus = checks.Corpus({d: standard_corpus(d)["randlip"]
                            for d in (checks.UNIT, checks.RAY, checks.SYM)})
    missed = 0
    for name, problems in tamper_cases(corpus, cli_main, call, check_outputs):
        hits = [p for p in problems if p.startswith(name + ":")]
        missed += not hits
        print(f"tampered {name:<13} {'caught' if hits else 'MISSED'}"
              + (f"  ({hits[0][:90]})" if hits else ""))
    return 1 if missed else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--quick", action="store_true")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    if args.quick:
        return quick()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    result = steady(list(range(args.first_seed, args.first_seed + SEEDS)), seconds)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "steady.json").write_text(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
