"""Benchmark for resilat: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds ``src/resilat``; nothing needs
to be installed.  Every workload run happens in a fresh single-threaded
interpreter (so resilat's ``lru_cache``d windows and tables start cold, as
on every CLI call), one after another, with ``RESILAT_BUDGET`` removed from
its environment.

``--trace 0`` repeats the workload for about ``--seconds`` seconds and
prints the end-to-end metrics, each a median over the runs.  Times are in
reference-speed seconds: every raw time is rescaled by a machine-speed
probe taken just before and just after it was measured (speed.py),
because neighbours on a shared host move raw times by 20-50% between
runs.  ``--trace 1`` makes one run with spans around every call into a
layer followed by per-call probes, and one run under cProfile, prints the
per-layer metrics and writes the spans to ``perfbench/out/``.  The metric
names and units are the ones declared in ``BENCHMARK.json``.

The last line of stdout is always ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it carries provenance, every sample and a
summary with units that adds ``failed_frac`` and the raw, unscaled times.
Exit code 2 means the benchmark could not run at all (no program, or a
child process crashed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
WORKLOADS = tuple(w["name"] for w in DECLARED["workloads"])


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def git_commit(root: Path) -> str | None:
    """HEAD's hash read from .git without running git, or None outside a
    repository (git would search the parent directories)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def provenance(root: Path) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": git_commit(root)}


def child_env(root: Path) -> dict:
    """The caller's environment, with resilat on the path and without a
    user budget that could turn a workload into a BudgetError."""
    env = dict(os.environ)
    env.pop("RESILAT_BUDGET", None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn(root: Path, mode: str, workload: str, seed: int) -> dict:
    spawned_at = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(CHILD), mode, workload, str(seed), repr(spawned_at)],
        cwd=root, env=child_env(root), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} run of {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def measure(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced runs for about `seconds`: set-up alone a few times, then
    whole workload runs while the next one is expected to fit."""
    start = time.perf_counter()
    setup_runs = [spawn(root, "setup", workload, seed) for _ in range(SETUP_SAMPLES)]
    setups = [r["setup_s"] for r in setup_runs]
    runs, longest = [], 0.0
    while True:
        began = time.perf_counter()
        runs.append(spawn(root, "plain", workload, seed))
        longest = max(longest, time.perf_counter() - began)
        if time.perf_counter() - start + longest > seconds:
            break
    walls = [r["wall_s"] for r in runs]
    setups += [r["setup_s"] for r in runs]
    wall = statistics.median(walls)
    raw_wall = statistics.median(r["raw_wall_s"] for r in runs)
    checks = runs[0]["checks"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {
        "wall_s": wall,
        "checks_per_s": checks / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r["peak_rss_kib"] for r in runs) / 1024,
    }
    summary = {
        **{name: (metrics[name], unit) for name, unit in END_TO_END.items()},
        "failed_frac": (failed / attempted, "ratio"),
        "raw_wall_s": (raw_wall, "s"),
        "raw_checks_per_s": (checks / raw_wall, "1/s"),
        "raw_setup_s": (statistics.median(r["raw_setup_s"] for r in setup_runs + runs), "s"),
    }
    detail = {
        "summary": {name: {"value": v, "unit": u} for name, (v, u) in summary.items()},
        "runs": len(runs), "checks": checks,
        "checks_agree": len({r["checks"] for r in runs}) == 1,
        "attempted": attempted, "failed": failed,
        "wall_s_samples": walls, "setup_s_samples": setups,
        "raw_wall_s_samples": [r["raw_wall_s"] for r in runs],
        "problems": [p for r in runs for p in r["problems"]][:10],
    }
    return metrics, detail


def traced(root: Path, workload: str, seed: int) -> tuple[dict, dict]:
    spans = spawn(root, "spans", workload, seed)
    prof = spawn(root, "profile", workload, seed)
    metrics = {**spans["layers"], **prof["profile"]}
    detail = {
        "summary": {"failed_frac": {"value": spans["failed"] / spans["attempted"],
                                    "unit": "ratio"}},
        "traced_wall_s": spans["wall_s"],
        "attempted": spans["attempted"], "failed": spans["failed"],
        "problems": spans["problems"][:10],
    }
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload}-{seed}.json"
    trace_path.write_text(json.dumps(
        {"workload": workload, "seed": seed, "provenance": provenance(root),
         "metrics": metrics, "detail": detail, "spans": spans["spans"]}, indent=1))
    detail["trace_file"] = str(trace_path)
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "resilat" / "__init__.py").is_file():
        print(f"error: no src/resilat under {root}; run from the checkout root",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, detail = traced(root, args.workload, args.seed)
            units = PER_LAYER
        else:
            metrics, detail = measure(root, args.workload, args.seed, args.seconds)
            units = END_TO_END
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "provenance": provenance(root), **detail}))
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
