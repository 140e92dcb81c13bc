"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload verify_default --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program is imported from `src/`.  The
run times set-up in fresh interpreters, warms up once, then drives operations
(in-process calls of `grusslab.cli.main`) from one client in a closed loop for
`--seconds`, checks every output, and prints

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1` the
program's layers are wrapped from outside, the metrics are the per-layer ones,
and every span is written to `perfbench/out/trace-<workload>.json`.
"""

import os

# One client thread and one BLAS thread: the process never runs more compute
# threads than the machine has cores.  This must precede any numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GRUSS_LAB_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import (CORPUS, TAIL_WINDOW, WARMUP, WORKLOADS,  # noqa: E402
                       build_inputs)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
SETUP_PROBES = 9
TAIL_BEYOND = 10      # the tail percentile keeps this many operations above it


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median wall time of fresh interpreters that import grusslab.cli and
    build the inputs, and the median time their `import scipy.special` took."""
    walls, scipy_s = [], []
    for _ in range(SETUP_PROBES):
        t = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        scipy_s.append(json.loads(proc.stdout.splitlines()[-1])["scipy_import_s"])
    return statistics.median(walls), statistics.median(scipy_s)


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    Read from /proc: getrusage's ru_maxrss also counts the parent's resident
    set at the time it started this process, so it depends on the caller."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def call(main, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except Exception:  # an operation that raises counts as failed
        traceback.print_exc()
        rc = -1
    return rc, buf.getvalue()


def tail(times: list[float], window: int) -> float:
    """Median over whole windows of `window` operations of the highest
    percentile with TAIL_BEYOND operations beyond it in that window.

    Fixed windows keep the percentile the same however many operations a run
    manages, and the median over windows keeps one burst of load on the
    machine from setting the run's tail.  Fewer than 40 operations in a window
    leave no tail worth the name, so the run reports its median instead."""
    if window < 4 * TAIL_BEYOND or len(times) < window:
        return statistics.median(times)
    return statistics.median(
        sorted(times[i:i + window])[window - TAIL_BEYOND - 1]
        for i in range(0, len(times) - window + 1, window))


def check_outputs(workload: str, results) -> tuple[list[str], int, dict]:
    """Independent output checks; returns problems, checks completed and
    totals the trace reconciles against.  Every failed operation is a
    problem: no workload has an operation that is expected to fail."""
    import checks
    from grusslab.funcspace import standard_corpus

    corpus = checks.Corpus({d: standard_corpus(d)["randlip"]
                            for d in (checks.UNIT, checks.RAY, checks.SYM)})
    problems, work = [], 0
    totals = {"margin_checks": 0, "identity_checks": 0, "blocks": 0, "queries": {}}
    first = None
    for op, rc, text in results:
        argv = op.argv()
        if rc != 0:
            problems.append(f"exit: {' '.join(argv)} returned {rc}")
        if workload == "bounds_queries":
            if rc == 0:
                problems += checks.check_query(corpus, op, text)
                work += len(json.loads(text)["rhs"])
                totals["queries"][op.family] = totals["queries"].get(op.family, 0) + 1
            continue
        # verify prints its report and returns 1 when the report does not
        # pass, so a report is checked whatever the exit code
        try:
            report = json.loads(text)
        except ValueError:
            continue
        problems += checks.check_verify(corpus, argv, text, first)
        first = first or text
        sweep = report["suites"]["bound_sweep"]
        ident = report["suites"]["identity_equivalence"]
        if rc == 0:
            work += sweep["margin_checks"] + ident["checks"]
        totals["margin_checks"] += sweep["margin_checks"]
        totals["identity_checks"] += ident["checks"]
        totals["blocks"] += checks.block_count(checks.verify_config(argv))
    return problems, work, totals


def reconcile(tracer, totals: dict) -> dict:
    """Trace counts that must equal counts taken from the outputs."""
    q = totals["queries"]
    cell_families = ("bernstein", "sdelta", "szasz", "baskakov", "bbh", "king",
                     "two_point")
    cache = tracer.cache_deltas()
    pairs = {
        "accum_updates x 100 = margin_checks": (
            tracer.layer("verify.accum_update")[0] * len(CORPUS) ** 2,
            totals["margin_checks"]),
        "pair_sum_calls = identity checks": (
            tracer.layer("operators.pair_sum")[0], totals["identity_checks"]),
        "sweep_blocks = blocks": (tracer.layer("verify.sweep")[0], totals["blocks"]),
        "envelope_builds = cache misses": (
            tracer.layer("funcspace.envelope_build")[0], cache["envelope_misses"]),
        "bounds cells = point-functional queries": (
            tracer.layer("bounds.cell")[0], sum(q.get(f, 0) for f in cell_families)),
    }
    return {name: {"trace": a, "outputs": b, "ok": a == b}
            for name, (a, b) in pairs.items()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (SRC / "grusslab" / "cli.py").is_file():
        fail(f"no program source at {SRC}; run from the root of a checkout")
    setup_s, scipy_import_s = measure_setup(args.workload, args.seed)

    sys.path.insert(0, str(SRC))
    import grusslab
    import grusslab.cli
    if Path(grusslab.__file__).resolve().parent != (SRC / "grusslab").resolve():
        fail(f"grusslab imported from {grusslab.__file__}, not from {SRC}")
    rounds = build_inputs(args.workload, args.seed)

    # untimed warm-up with fixed arguments: lazy imports and first-call set-up
    # inside numpy and scipy are done before timing
    for argv in WARMUP[args.workload]:
        call(grusslab.cli.main, argv)

    tracer = None
    run_op = grusslab.cli.main
    if args.trace:
        from layers import OP, Tracer
        tracer = Tracer()
        tracer.install()

        def run_op(argv, _main=grusslab.cli.main):
            return tracer.span(OP, _main, argv)
        tracer.reset()

    results, times = [], []
    t0 = time.perf_counter()
    r = 0
    while time.perf_counter() - t0 < args.seconds:
        for op in rounds[r % len(rounds)]:
            t = time.perf_counter()
            rc, text = call(run_op, op.argv())
            times.append(time.perf_counter() - t)
            results.append((op, rc, text))
        r += 1
    timed_s = time.perf_counter() - t0
    peak_mb = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    failed = sum(1 for _, rc, _ in results if rc != 0)
    problems, work, totals = check_outputs(args.workload, results)
    op_p50_ms = statistics.median(times) * 1e3

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_ms": {"value": op_p50_ms, "unit": "ms"},
            "op_tail_ms": {"value": tail(times, len(rounds[0]) * TAIL_WINDOW) * 1e3,
                           "unit": "ms"},
            "work_per_s": {"value": work / timed_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    else:
        metrics = tracer.per_layer(len(results), scipy_import_s)
        rec = reconcile(tracer, totals)
        problems += [f"reconcile: {k} trace {v['trace']} != outputs {v['outputs']}"
                     for k, v in rec.items() if not v["ok"]]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}.json", {
            "workload": args.workload, "seed": args.seed, "ops": len(results),
            "timed_s": timed_s, "op_ms": [t * 1e3 for t in times],
            "op_builds_envelopes": [getattr(op, "builds_envelopes", False)
                                    for op, _, _ in results],
            "op_p50_ms": op_p50_ms, "reconcile": rec})

    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(results)} operations in "
          f"{timed_s:.2f} s, median {op_p50_ms:.3f} ms, "
          f"{len(problems)} check problems")
    print(json.dumps({"correct": not problems, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
