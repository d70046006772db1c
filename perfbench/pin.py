"""Regenerate expected.json from the program as it is now.

    PYTHONPATH=src python3 perfbench/pin.py

Run it only at a commit whose outputs are known good: every later run of
the benchmark is checked against what this writes.  The sampled digests
are pinned for seeds 0..PINNED_SEEDS-1; other seeds are checked
for all-pass verdicts only.
"""

import json
import sys

import workloads

PINNED_SEEDS = 32


def main() -> int:
    verify = workloads.verify_run(workloads.verify_inputs(0), workloads.NullTracer())
    grid = verify["grid"]
    expected = {
        "verify": {
            "grid_lines": grid["stdout"].splitlines(),
            "grid_sha256": workloads.text_digest(grid["stdout"]),
            "grid_rc": grid["rc"],
            "mutations": verify["mutations"],
        },
        "equations": [
            {"eq": eq, "stdout": call["stdout"], "rc": call["rc"]}
            for (_, _, _, eq), call in zip(
                workloads.EQUATIONS,
                workloads.equations_run(workloads.equations_inputs(0),
                                        workloads.NullTracer())["calls"])
        ],
        "sampled": {"reports": 0, "digests": {}},
    }
    for seed in range(PINNED_SEEDS):
        out = workloads.sampled_run(workloads.sampled_inputs(seed), workloads.NullTracer())
        expected["sampled"]["reports"] = len(out["lines"])
        expected["sampled"]["digests"][str(seed)] = workloads.text_digest(
            "\n".join(out["lines"]) + "\n")
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
