"""One workload run in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py MODE WORKLOAD SEED SPAWNED_AT

MODE is ``setup`` (import and build inputs only), ``plain`` (the timed,
untraced run), ``spans`` (spans around layer calls, then the per-call
probes) or ``profile`` (the workload under cProfile).  SPAWNED_AT is the
parent's ``time.perf_counter()`` just before it started this process;
both read CLOCK_MONOTONIC, so set-up time includes interpreter start.
The interpreter stays single-threaded: the speed probes (speed.py) run
after set-up and, in ``plain`` mode, during the workload from a SIGALRM
handler on the main thread whose time is left out of ``raw_wall_s``; in
``spans`` mode they run after the workload instead, so no span holds one.  Times are reported raw
and rescaled to reference speed; per-layer times are rescaled too, span
timestamps stay raw.
Run from the checkout root with ``PYTHONPATH=src``.
"""

import json
import resource
import sys
import time

import speed
import workloads


def main(argv) -> int:
    mode, name, seed, spawned_at = argv[0], argv[1], int(argv[2]), float(argv[3])
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(seed)
    raw_setup = time.perf_counter() - spawned_at
    before = speed.samples()
    result = {"raw_setup_s": raw_setup, "setup_s": raw_setup * speed.factor(before)}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    if mode == "plain":
        tracer = workloads.NullTracer()
    elif mode == "spans":
        import layers
        tracer = layers.Tracer()
        inst = layers.Instrumented(tracer)
        inst.install()
    elif mode == "profile":
        import layers
        body = lambda: workload.run(inputs, workloads.NullTracer())  # noqa: E731
        result["profile"] = layers.profile(body)
        print(json.dumps(result))
        return 0
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    with speed.Sampler(periodic=mode == "plain") as sampler:
        start = time.perf_counter()
        with tracer.span("workload", workload=name, seed=seed):
            outputs = workload.run(inputs, tracer)
        raw_wall = time.perf_counter() - start - sampler.spent
    rescale = speed.factor(sampler.samples or before + speed.samples())
    result["raw_wall_s"] = raw_wall
    result["wall_s"] = raw_wall * rescale
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if mode == "spans":
        inst.uninstall()
        per_layer = {**layers.span_metrics(tracer, inst),
                     **layers.probe_metrics(name, inputs, seed),
                     "trace.overhead_frac": layers.overhead_frac(tracer, raw_wall)}
        result["layers"] = {k: v * rescale if k.endswith(("_s", "_us")) else v
                            for k, v in per_layer.items()}
        result["spans"] = tracer.spans

    outcome = workload.check(inputs, outputs, workloads.load_expected())
    result.update(attempted=outcome.attempted, failed=outcome.failed,
                  checks=outcome.checks, problems=outcome.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
