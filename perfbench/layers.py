"""Per-layer measurement from outside the program: spans, probes, profile.

Spans are recorded by wrapping the public functions of resilat's modules
(replacing the module attributes, so callers inside resilat that look the
name up at call time go through the wrapper too).  Nothing under ``src/``
is edited.  The layers are the five modules ``core``, ``structure``,
``terms``, ``harness`` and ``cli``.
"""

from __future__ import annotations

import contextlib
import cProfile
import pstats
import random
import statistics
import time

from resilat import cli, core, harness, structure, terms
from resilat.structure import Window

import workloads

# Module functions wrapped in spans: (module, attribute, span name).
WRAPPED = (
    (cli, "main", "cli.main"),
    (harness, "run_grid", "harness.run_grid"),
    (harness, "mutation_check", "harness.mutation_check"),
    (harness, "run_suite", "harness.run_suite"),
    (terms, "check_equation", "terms.check_equation"),
    (structure, "quotient_classes", "structure.quotient_classes"),
    (structure, "quotient_induced_mul_report", "structure.induced_mul"),
    (structure, "generated_filter", "structure.generated_filter"),
    (structure, "boolean_elements", "structure.boolean_elements"),
    (structure, "max_nonradical", "structure.max_nonradical"),
)
SUITE_IDS = tuple(harness.SUITES)
STRUCTURE_SPANS = {
    "structure.window_s": "structure.window",
    "structure.quotient_classes_s": "structure.quotient_classes",
    "structure.induced_mul_s": "structure.induced_mul",
    "structure.generated_filter_s": "structure.generated_filter",
    "structure.boolean_elements_s": "structure.boolean_elements",
    "structure.max_nonradical_s": "structure.max_nonradical",
}
PROFILE_LAYERS = ("core", "harness", "structure", "terms", "cli")
PROBE_PAIRS = 400
PROBE_ROUNDS = 7
OVERHEAD_CALLS = 2000


class Tracer:
    """Spans kept in memory: id, parent id, name, start, end, tags."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **tags):
        record = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                  "name": name, "tags": tags, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def duration(self, record: dict) -> float:
        return record["end"] - record["start"]

    def total(self, name: str) -> float:
        """Summed duration of spans called name, skipping ones nested in
        a span of the same name so no interval counts twice."""
        return sum(self.duration(s) for s in self.spans
                   if s["name"] == name and not self._inside(s, name))

    def _inside(self, record: dict, name: str) -> bool:
        parent = record["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == name:
                return True
            parent = self.spans[parent]["parent"]
        return False


class Instrumented:
    """Installs span wrappers and remembers the first cold suite per key.

    The first run_suite at each (params, R, bundle) pays the cached table
    build; the window it enumerates is built first in a span of its own,
    so the run_suite span holds table build plus checks.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.originals = {}
        self.first_suite: dict = {}  # key -> (span record, args, kwargs)
        self.windows_seen: set = set()

    def _window(self, params, R) -> None:
        if (params, R) not in self.windows_seen:
            self.windows_seen.add((params, R))
            with self.tracer.span("structure.window", n=params.n, p=params.p, R=R):
                Window(params, R).elements()

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self.originals[(module, attr)] = original
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for (module, attr), original in self.originals.items():
            setattr(module, attr, original)

    def _wrap(self, fn, name):
        tracer = self.tracer

        if name == "harness.run_suite":
            def wrapper(sid, params, R=2, ops=None, **kw):
                self._window(params, R)
                bundle = harness.REFERENCE if ops is None else ops
                with tracer.span(name, suite=sid, n=params.n, p=params.p, R=R,
                                 bundle=bundle.name) as record:
                    out = fn(sid, params, R, ops=ops, **kw)
                key = (params, R, bundle)
                if key not in self.first_suite:
                    self.first_suite[key] = (record, (sid, params, R), dict(kw, ops=ops))
                return out
        elif name == "terms.check_equation":
            def wrapper(eq, params, radius, *args, **kw):
                self._window(params, radius)
                with tracer.span(name, n=params.n, p=params.p, R=radius):
                    return fn(eq, params, radius, *args, **kw)
        else:
            def wrapper(*args, **kw):
                with tracer.span(name):
                    return fn(*args, **kw)
        return wrapper

    def table_attribution(self) -> tuple[float, dict]:
        """harness.tables_s as cold minus warm run_suite time, for the first
        suite at each (params, R, bundle); the tables are cached by now, so
        re-running that suite costs its checks alone."""
        run_suite = self.originals[(harness, "run_suite")]
        tables_s = 0.0
        warm_by_span = {}
        for record, args, kw in self.first_suite.values():
            warm = []
            for _ in range(3):
                start = time.perf_counter()
                run_suite(*args, **kw)
                warm.append(time.perf_counter() - start)
            warm_s = statistics.median(warm)
            warm_by_span[record["id"]] = warm_s
            tables_s += self.tracer.duration(record) - warm_s
        return tables_s, warm_by_span


def span_metrics(tracer: Tracer, inst: Instrumented) -> dict:
    tables_s, warm_by_span = inst.table_attribution()
    suites = {sid: 0.0 for sid in SUITE_IDS}
    for s in tracer.spans:
        if s["name"] == "harness.run_suite":
            suites[s["tags"]["suite"]] += warm_by_span.get(s["id"], tracer.duration(s))
    out = {f"harness.suite.{sid}_s": suites[sid] for sid in SUITE_IDS}
    out["harness.checks_s"] = sum(suites.values())
    out["harness.tables_s"] = tables_s
    out["harness.run_grid_s"] = tracer.total("harness.run_grid")
    out["harness.mutation_check_s"] = tracer.total("harness.mutation_check")
    for metric, name in STRUCTURE_SPANS.items():
        out[metric] = tracer.total(name)
    out["terms.check_equation_s"] = tracer.total("terms.check_equation")
    out["cli.main_s"] = tracer.total("cli.main")
    return out


def overhead_frac(tracer: Tracer, traced_wall: float) -> float:
    """The traced run's own cost as a share of the untraced time: spans
    recorded times what one span wrapper adds to a no-op call.  Measured in
    one process, so run-to-run drift (larger than the overhead) cancels."""
    noop = lambda: None  # noqa: E731
    wrapped = Instrumented(Tracer())._wrap(noop, "overhead")
    added = []
    for _ in range(PROBE_ROUNDS):
        start = time.perf_counter()
        for _ in range(OVERHEAD_CALLS):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(OVERHEAD_CALLS):
            wrapped()
        added.append((time.perf_counter() - start - bare) / OVERHEAD_CALLS)
    cost = len(tracer.spans) * statistics.median(added)
    return cost / (traced_wall - cost)


# ---------------------------------------------------------------------------
# Per-call timings on the workload's own elements.

def _per_call_us(fn, args_list) -> float:
    rounds = []
    for _ in range(PROBE_ROUNDS):
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        rounds.append((time.perf_counter() - start) / len(args_list))
    return statistics.median(rounds) * 1e6


def probe_metrics(name: str, inp: dict, seed: int) -> dict:
    rng = random.Random(f"probe:{name}:{seed}")
    pairs = workloads.probe_pairs(name, inp, rng, PROBE_PAIRS)
    singles = [(a,) for a, _ in pairs]
    powers = [(a, max(a.n + 1, a.p)) for a, _ in pairs]
    out = {
        "core.mul_us": _per_call_us(core.ap_mul, pairs),
        "core.div_us": _per_call_us(core.ap_div, pairs),
        "core.inv_us": _per_call_us(core.ap_inv, singles),
        "core.leq_us": _per_call_us(core.ap_leq, pairs),
        "core.meet_us": _per_call_us(core.ap_meet, pairs),
        "core.join_us": _per_call_us(core.ap_join, pairs),
        "core.pow_us": _per_call_us(core.ap_pow, powers),
        "core.bterm_us": _per_call_us(core.boolean_term, singles),
        "harness.bundle_mul_us": _per_call_us(harness.REFERENCE.mul, pairs),
        "harness.bundle_div_us": _per_call_us(harness.REFERENCE.div, pairs),
    }
    out["harness.guard_ratio"] = out["harness.bundle_mul_us"] / out["core.mul_us"]

    cases = workloads.probe_cases(name, inp)
    texts = [(text,) for text, _ in cases]
    out["terms.parse_us"] = _per_call_us(terms.parse_equation, texts)
    evals = []
    for text, pool in cases:
        eq = terms.parse_equation(text)
        params = pool[0].params
        names = sorted(terms.free_vars(eq.lhs) | terms.free_vars(eq.rhs))
        for side in (eq.lhs, eq.rhs):
            for _ in range(PROBE_PAIRS // (2 * len(cases)) + 1):
                env = {v: rng.choice(pool) for v in names}
                evals.append((side, env, params))
    out["terms.eval_us"] = _per_call_us(terms.eval_term, evals)
    return out


# ---------------------------------------------------------------------------
# cProfile pass, aggregated by source file.

def layer_of(filename: str) -> str:
    if filename == "<string>":
        return "dataclass"  # generated dataclass methods, counted as core
    for layer in PROFILE_LAYERS:
        if filename.endswith(f"resilat/{layer}.py"):
            return layer
    return "other"


def profile(fn) -> dict:
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats
    calls = {layer: 0 for layer in PROFILE_LAYERS + ("dataclass", "other")}
    self_s = dict.fromkeys(calls, 0.0)
    for (filename, _, _), (_, ncalls, tottime, _, _) in stats.items():
        layer = layer_of(filename)
        calls[layer] += ncalls
        self_s[layer] += tottime
    total = sum(self_s.values()) or 1.0
    calls["core"] += calls["dataclass"]
    self_s["core"] += self_s["dataclass"]
    out = {"core.dataclass_calls": calls["dataclass"]}
    for layer in PROFILE_LAYERS:
        if layer != "cli":
            out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_share"] = self_s[layer] / total
    return out
