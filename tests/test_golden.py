"""The program's outputs for fixed inputs are the checked-in golden fixtures,
byte for byte (``golden_outputs.py`` says what they hold and how to
regenerate them).  A fixture written under another environment stamp fails
and says so: numpy, scipy or the platform may round differently."""

import json

import pytest

import golden_outputs as golden


def _check_environment(want: dict) -> None:
    got = golden.environment()
    if want != got:
        pytest.fail(f"the golden fixtures were written under {want}, this run is {got}; "
                    f"outputs may round differently here: compare them, then "
                    f"regenerate with `{golden.REGENERATE}`")


def _fail_on_moves(name: str, want, got, item=lambda _path: None) -> None:
    """Fail naming every place where ``got`` moved from the fixture."""
    moved = golden.moves(want, got, item)
    if moved:
        pytest.fail(f"{name} moved at {len(moved)} places (fixture -> now):\n"
                    + "\n".join(moved))


def _check_report(name: str, text: str) -> None:
    want_text = (golden.GOLDEN / f"{name}.json").read_text().rstrip("\n")
    want, got = json.loads(want_text), json.loads(text)
    _check_environment(want["environment"])
    _fail_on_moves(f"{name} report", want, got)
    assert text == want_text, f"{name} report: same values, different bytes"


def test_default_report(default_run):
    _check_report("default", default_run[0].to_json())


def test_ray_report():
    _check_report("ray", golden.report_text("ray"))


@pytest.mark.parametrize("name", list(golden.CLI_REPORTS))
def test_cli_report(name):
    """Each further ``verify`` run keeps its exit code, stderr and report."""
    want = golden.fixture(name)
    _check_environment(want["report"]["environment"])
    _fail_on_moves(name, want, golden.cli_report_record(name))


def test_hard_cap_run_fails_with_both_block_errors():
    record = golden.fixture("hard_cap")
    errors = record["report"]["suites"]["bound_sweep"]["block_errors"]
    assert record["exit_code"] == 1
    assert [(e["operator"], e["n"]) for e in errors] == [("szasz", 64), ("baskakov", 64)]
    assert record["stderr"].count("block error: ") == 2


def test_cli_tables():
    """Every table command keeps its exit code, stderr and each stdout line."""
    want = golden.fixture("cli_tables")
    _check_environment(want["environment"])
    outputs = golden.table_outputs()
    _fail_on_moves("cli_tables", want, golden.tables_record(outputs),
                   lambda path: golden.table_line(outputs, path))


def test_bounds_mix():
    want = golden.fixture("bounds_mix")
    _check_environment(want["environment"])
    queries = golden.query_mix()
    digests = []
    for q in queries:
        outputs = golden.run_cli(q.argv())
        digests.append(golden.query_digest(*outputs))
        i = len(digests) - 1
        if i < len(want["queries"]) and digests[i][:16] != want["queries"][i]:
            pytest.fail(f"bounds query {i} moved: {' '.join(q.argv())} now gives "
                        f"rc {outputs[0]}, stdout {outputs[1]!r}, stderr {outputs[2]!r}")
    assert golden.mix_record(digests)["sha256"] == want["sha256"], \
        (len(digests), len(want["queries"]))


def test_a_moved_value_is_named():
    want = {"suites": {"sweep": {"worst": [1.0, {"margin": -3.0e-12}]}}, "pass": True}
    got = json.loads(json.dumps(want))
    got["suites"]["sweep"]["worst"][1]["margin"] = -3.5e-12
    assert golden.first_difference(want, got) == (
        "$.suites.sweep.worst[1].margin", -3.0e-12, -3.5e-12)
    del got["pass"]
    assert golden.first_difference(want, got) == ("$.pass", True, "<absent>")
    got["suites"]["sweep"]["worst"].append(2.0)
    assert list(golden.differences(want, got)) == [
        ("$.pass", True, "<absent>"),
        ("$.suites.sweep.worst[1].margin", -3.0e-12, -3.5e-12),
        ("$.suites.sweep.worst.length", 2, 3)]
    assert golden.first_difference(want, want) is None


def test_another_environment_fails_and_says_so(monkeypatch):
    stamp = dict(golden.fixture("ray")["environment"], numpy="0.0.0")
    monkeypatch.setattr(golden, "environment", lambda: stamp)
    with pytest.raises(pytest.fail.Exception, match="written under .* this run is .*0.0.0"):
        _check_report("ray", (golden.GOLDEN / "ray.json").read_text().rstrip("\n"))
