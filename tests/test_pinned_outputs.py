"""The benchmark's pinned outputs, checked against the program.

perfbench/expected.json holds the S1-S16 grid text lines and their
digest, the mutation_check() map, the digests of the sampled runs and the
five `check --eq` lines, all as the seed commit printed them.  Each
workload's own check compares a fresh run with them byte for byte, so a
change that alters any of these outputs fails here.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["verify", "sampled", "equations"])
def test_benchmark_outputs_match_their_pins(name):
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(0)
    outputs = workload.run(inputs, workloads.NullTracer())
    outcome = workload.check(inputs, outputs, workloads.load_expected())
    assert outcome.attempted > 0
    assert outcome.failed == 0, outcome.problems
