"""Golden outputs: what the program printed for fixed inputs, checked in under
``tests/golden/`` so that a change that means to move no byte can show it.

The fixtures, each with the environment stamp it was written under:

- ``default.json``: the report of ``verify`` with its defaults;
- ``ray.json``: the report of ``verify --families szasz,baskakov``;
- one fixture per ``verify`` run in ``CLI_REPORTS`` (``small_grid.json``,
  ``five_families.json``, ``hard_cap.json``): its flags, exit code, stderr
  and report;
- ``bounds_mix.json``: a sha256 of every output of the benchmark's seed-1
  mix of ``bounds`` queries (``perfbench/workloads.py``), each query's exit
  code, stdout and stderr, plus a short digest per query;
- ``cli_tables.json``: for each command in ``tables()`` (every ``special``
  table, ``conjectures``, ``sharpness`` and a ``lagrange`` window), its exit
  code, stderr and a short digest of each stdout line.

Regenerate them all, after a change that means to move output, with

    PYTHONPATH=src python tests/golden_outputs.py

It prints every JSON path, query and table line that moved; name those in
CHANGES.md and say why.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
WORKLOADS_PY = HERE.parent / "perfbench" / "workloads.py"
REGENERATE = "PYTHONPATH=src python tests/golden_outputs.py"

#: the fixtures' report configs, as SuiteConfig fields
REPORTS = {"default": {}, "ray": {"families": ("szasz", "baskakov")}}
#: further ``verify`` runs, as flags; hard_cap exits 1 with a block error for
#: each family, whose windows would pass the node cap
CLI_REPORTS = {
    "small_grid": ["--degrees", "1,2,3,5", "--xgrid", "33", "--tail-eps", "1e-9",
                   "--xmax", "20", "--grid", "301"],
    "five_families": ["--families", "bernstein,sdelta,szasz,baskakov,lagrange_cheb",
                      "--degrees", "1,3", "--xgrid", "17", "--grid", "101",
                      "--conjecture-nmax", "2"],
    "hard_cap": ["--families", "szasz,baskakov", "--degrees", "64", "--xgrid", "5",
                 "--xmax", "1e7"],
}
MIX_SEED = 1


def tables() -> list[list[str]]:
    """The table commands of ``cli_tables.json``, with their default flags."""
    from grusslab.cli import _SPECIAL_TABLE
    return ([["special", "--fn", fn] for fn in sorted(_SPECIAL_TABLE)]
            + [["special", "--fn", "second_moment", "--family", family]
               for family in ("bernstein", "sdelta", "king")]
            + [["conjectures"], ["sharpness"], ["lagrange", "--n", "16", "--window"]])


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


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    from grusslab.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def query_digest(rc: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([rc, out, err]).encode()).hexdigest()


def cli_report_record(name: str) -> dict:
    """A ``CLI_REPORTS`` fixture: the run's flags, exit code, stderr and report."""
    argv = CLI_REPORTS[name]
    rc, out, err = run_cli(["verify", *argv])
    return {"argv": argv, "exit_code": rc, "stderr": err, "report": json.loads(out)}


def table_outputs() -> dict:
    """Each ``tables()`` command, spaced, -> its (exit code, stdout, stderr)."""
    return {" ".join(argv): run_cli(argv) for argv in tables()}


def tables_record(outputs: dict) -> dict:
    """``cli_tables.json``: per command its exit code, stderr and a 16-hex
    digest of each stdout line, which names the lines that moved."""
    return {"environment": environment(),
            "commands": {cmd: {"exit_code": rc, "stderr": err,
                               "lines": [hashlib.sha256(line.encode()).hexdigest()[:16]
                                         for line in out.splitlines()]}
                         for cmd, (rc, out, err) in outputs.items()}}


def table_line(outputs: dict, path: str) -> str | None:
    """The new stdout line a ``cli_tables.json`` path names, quoted, or None."""
    m = re.fullmatch(r"\$\.commands\.(.+)\.lines\[(\d+)\]", path)
    return m and repr(outputs[m[1]][1].splitlines()[int(m[2])])


def mix_record(digests: list[str]) -> dict:
    """The fixture body: a sha256 over every query's digest, and the digests
    cut to 16 hex digits, which name the first query that moved."""
    whole = hashlib.sha256("".join(digests).encode()).hexdigest()
    return {"sha256": whole, "queries": [d[:16] for d in digests]}


def differences(want, got, path: str = "$"):
    """Each (path, want, got), in key order, where two parsed JSON values
    differ; a list of another length differs at ``.length`` too."""
    if type(want) is not type(got):
        yield path, want, got
    elif isinstance(want, dict):
        for key in sorted(set(want) | set(got)):
            if key not in want or key not in got:
                yield f"{path}.{key}", want.get(key, "<absent>"), got.get(key, "<absent>")
            else:
                yield from differences(want[key], got[key], f"{path}.{key}")
    elif isinstance(want, list):
        for i, (a, b) in enumerate(zip(want, got)):
            yield from differences(a, b, f"{path}[{i}]")
        if len(want) != len(got):
            yield f"{path}.length", len(want), len(got)
    elif want != got:
        yield path, want, got


def first_difference(want, got):
    """(path, want, got) at the first place where two parsed JSON values
    differ, or None."""
    return next(differences(want, got), None)


def fixture(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


def moves(want, got, item=lambda _path: None) -> list[str]:
    """One line per place where ``got`` moved from ``want``: the path and both
    values, and where the value is a digest, ``item(path)``, what it now
    digests."""
    return [f"{path}: {a!r} -> {b!r}" + (f", now {note}" if (note := item(path)) else "")
            for path, a, b in differences(want, got)]


def _write(name: str, text: str, item=lambda _path: None) -> None:
    """Write a fixture, first printing each place where it moved against the
    one it replaces."""
    path = GOLDEN / f"{name}.json"
    if path.exists():
        for line in moves(json.loads(path.read_text()), json.loads(text), item):
            print(f"{name}: {line}")
    path.write_text(text + "\n")


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in REPORTS:
        _write(name, report_text(name))
    for name in CLI_REPORTS:
        _write(name, json.dumps(cli_report_record(name), indent=1))

    queries = query_mix()
    digests = [query_digest(*run_cli(q.argv())) for q in queries]
    record = {"environment": environment(), "seed": MIX_SEED, **mix_record(digests)}

    def query(path):
        m = re.fullmatch(r"\$\.queries\[(\d+)\]", path)
        return m and " ".join(queries[int(m[1])].argv())
    _write("bounds_mix", json.dumps(record, indent=1), query)

    outputs = table_outputs()
    _write("cli_tables", json.dumps(tables_record(outputs), indent=1),
           lambda path: table_line(outputs, path))
    print(f"wrote {', '.join(sorted(p.name for p in GOLDEN.glob('*.json')))}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
