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


def _check_report(name: str, text: str) -> None:
    want_text = (golden.GOLDEN / f"{name}.json").read_text().rstrip("\n")
    want, got = json.loads(want_text), json.loads(text)
    _check_environment(want["environment"])
    if text == want_text:
        return
    diff = golden.first_difference(want, got)
    if diff is None:
        pytest.fail(f"{name} report: same values, different bytes")
    path, a, b = diff
    pytest.fail(f"{name} report moved at {path}: fixture {a!r}, now {b!r}")


def test_default_report(default_run):
    _check_report("default", default_run[0].to_json())


def test_ray_report():
    _check_report("ray", golden.report_text("ray"))


def test_bounds_mix():
    want = golden.fixture("bounds_mix")
    _check_environment(want["environment"])
    queries = golden.query_mix()
    digests = []
    for q in queries:
        outputs = golden.run_query(q.argv())
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
    assert golden.first_difference(want, want) is None


def test_another_environment_fails_and_says_so(monkeypatch):
    stamp = dict(golden.fixture("ray")["environment"], numpy="0.0.0")
    monkeypatch.setattr(golden, "environment", lambda: stamp)
    with pytest.raises(pytest.fail.Exception, match="written under .* this run is .*0.0.0"):
        _check_report("ray", (golden.GOLDEN / "ray.json").read_text().rstrip("\n"))
