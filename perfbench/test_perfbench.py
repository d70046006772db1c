"""Self-tests of the benchmark; run from the checkout root with

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from resilat import core  # noqa: E402
from resilat.core import AlgebraParams  # noqa: E402


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_same_seed_same_inputs():
    for name in ("sampled", "pointwise"):
        make = workloads.WORKLOADS[name].make_inputs
        assert make(7) == make(7)
    assert workloads.pointwise_inputs(7) != workloads.pointwise_inputs(8)


def test_pointwise_elements_are_valid_including_n1():
    import random
    rng = random.Random(0)
    middle_at_n1 = 0
    for p in (1, 2, 3, 20):
        params = AlgebraParams(1, p)
        for _ in range(500):
            a = workloads.random_element(rng, params)
            assert core.ap_validate(core.LexPair(a.m, a.r), a.alpha, params) == a
            if 0 < a.alpha < p:
                middle_at_n1 += 1
                assert (a.m, a.r) == (0, 0)
    assert middle_at_n1 > 0
    for instances in workloads.pointwise_inputs(3)["laws"].values():
        for args in instances:
            for a in args:
                assert core.ap_validate(core.LexPair(a.m, a.r), a.alpha, a.params) == a
                assert abs(a.r) <= workloads.MAX_R and 1 <= a.n <= 20 and 1 <= a.p <= 20


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_declared(trace):
    declared = _declared()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pointwise", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    want = declared["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in want}


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "verify"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_child_environment_drops_the_budget(monkeypatch):
    monkeypatch.setenv("RESILAT_BUDGET", "10")
    env = run.child_env(ROOT)
    assert "RESILAT_BUDGET" not in env
    assert env["PYTHONPATH"] == str(ROOT / "src")
    assert os.environ["RESILAT_BUDGET"] == "10"


def _expected_with(**changes):
    expected = workloads.load_expected()
    for path, value in changes.items():
        section, key = path.split("__")
        expected[section][key] = value
    return expected


def test_wrong_pinned_digest_is_a_failure():
    expected = workloads.load_expected()
    exp = expected["verify"]
    stdout = "\n".join(exp["grid_lines"]) + "\n"
    out = {"grid": {"stdout": stdout, "rc": exp["grid_rc"], "error": None},
           "mutations": exp["mutations"], "mutation_error": None}
    good = workloads.verify_check({}, out, expected)
    assert good.failed == 0 and good.attempted == len(exp["grid_lines"]) + 1 + 5
    bad = workloads.verify_check({}, out, _expected_with(verify__grid_sha256="0" * 64))
    assert bad.failed == 1

    lines = [f"S{i} x n=1 p=1 R=4 pass checks=1" for i in range(1, 145)]
    out = {"lines": lines, "verdicts": ["pass"] * 144, "checks": 144, "error": None}
    inp = {"seed": 0}
    pinned = {"reports": 144, "digests": {"0": workloads.text_digest("\n".join(lines) + "\n")}}
    assert workloads.sampled_check(inp, out, {"sampled": pinned}).failed == 0
    pinned["digests"]["0"] = "f" * 64
    assert workloads.sampled_check(inp, out, {"sampled": pinned}).failed == 1


def test_wrong_equation_line_is_a_failure():
    expected = workloads.load_expected()
    calls = [{"stdout": e["stdout"], "rc": e["rc"], "error": None}
             for e in expected["equations"]]
    assert workloads.equations_check({}, {"calls": calls}, expected).failed == 0
    calls[4] = dict(calls[4], rc=0)
    assert workloads.equations_check({}, {"calls": calls}, expected).failed == 1


def test_probe_rescaling_keeps_relative_cost():
    import speed
    samples = [speed.REFERENCE_S * 2] * 5
    assert speed.factor(samples) == 0.5
    probes = speed.samples()
    assert len(probes) == speed.SAMPLES and all(s > 0 for s in probes)


def test_trace_overhead_is_small_and_positive():
    import layers
    tracer = layers.Tracer()
    for _ in range(100):
        with tracer.span("x"):
            pass
    frac = layers.overhead_frac(tracer, 1.0)
    assert 0 < frac < 0.01
