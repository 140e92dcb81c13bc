"""Golden outputs: what the program printed for fixed inputs, checked in under
``tests/golden/`` so that a change that means to move no byte can show it.

Three fixtures, each with the environment stamp it was written under:

- ``default.json``: the report of ``verify`` with its defaults;
- ``ray.json``: the report of ``verify --families szasz,baskakov``;
- ``bounds_mix.json``: a sha256 of every output of the benchmark's seed-1
  mix of ``bounds`` queries (``perfbench/workloads.py``), each query's exit
  code, stdout and stderr, plus a short digest per query.

Regenerate them all, after a change that means to move output, with

    PYTHONPATH=src python tests/golden_outputs.py

and name in CHANGES.md which keys moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
WORKLOADS_PY = HERE.parent / "perfbench" / "workloads.py"
REGENERATE = "PYTHONPATH=src python tests/golden_outputs.py"

#: the fixtures' report configs, as SuiteConfig fields
REPORTS = {"default": {}, "ray": {"families": ("szasz", "baskakov")}}
MIX_SEED = 1


def environment() -> dict:
    from grusslab.verify import _environment_stamp
    return _environment_stamp()


def report_text(name: str) -> str:
    from grusslab.verify import SuiteConfig, run_suite
    return run_suite(SuiteConfig(**REPORTS[name])).to_json()


def query_mix() -> list:
    """The benchmark's seed-1 ``bounds`` queries, in its order."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads     # its dataclasses look themselves up
    spec.loader.exec_module(workloads)
    return [q for block in workloads.query_mix(MIX_SEED) for q in block]


def run_query(argv: list[str]) -> tuple[int, str, str]:
    from grusslab.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def query_digest(rc: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([rc, out, err]).encode()).hexdigest()


def mix_record(digests: list[str]) -> dict:
    """The fixture body: a sha256 over every query's digest, and the digests
    cut to 16 hex digits, which name the first query that moved."""
    whole = hashlib.sha256("".join(digests).encode()).hexdigest()
    return {"sha256": whole, "queries": [d[:16] for d in digests]}


def first_difference(want, got, path: str = "$"):
    """(path, want, got) at the first place, in key order, where two parsed
    JSON values differ, or None."""
    if type(want) is not type(got):
        return path, want, got
    if isinstance(want, dict):
        for key in sorted(set(want) | set(got)):
            if key not in want or key not in got:
                return f"{path}.{key}", want.get(key, "<absent>"), got.get(key, "<absent>")
            diff = first_difference(want[key], got[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        for i, (a, b) in enumerate(zip(want, got)):
            diff = first_difference(a, b, f"{path}[{i}]")
            if diff:
                return diff
        if len(want) != len(got):
            return f"{path}.length", len(want), len(got)
        return None
    return None if want == got else (path, want, got)


def fixture(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in REPORTS:
        (GOLDEN / f"{name}.json").write_text(report_text(name) + "\n")
    digests = [query_digest(*run_query(q.argv())) for q in query_mix()]
    record = {"environment": environment(), "seed": MIX_SEED, **mix_record(digests)}
    (GOLDEN / "bounds_mix.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {', '.join(sorted(p.name for p in GOLDEN.glob('*.json')))}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
