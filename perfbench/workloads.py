"""The four benchmark workloads: seeded inputs, bodies, and output checks.

Each workload is three functions over plain data:

* ``make_inputs(seed)`` builds everything the body needs (this is set-up);
* ``run(inputs, tracer)`` calls into resilat and returns its raw outputs;
* ``check(inputs, outputs)`` compares them with the pinned seed-commit
  outputs in ``expected.json`` or with an independent oracle, and returns
  an ``Outcome``.

An item is one suite report, one mutation entry, one equation line or one
law instance; an item whose output differs or whose call raised counts as
failed.  Nothing here reads ``SuiteReport.elapsed``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from resilat import cli, core, harness, structure, terms
from resilat.core import AlgebraParams

EXPECTED_PATH = Path(__file__).with_name("expected.json")
SUITE_ARG = ",".join(harness.SUITES)
GRID_ARGV = ("check", "--suite", SUITE_ARG)
MUTATION_POINT = (2, 3)
SAMPLED_R = 4
SAMPLED_SIZE = 2000
# (n, p, R, equation) as given to `resilat check --n --p --R --eq`
EQUATIONS = (
    (2, 3, 3, "x*(y*z) = (x*y)*z"),
    (2, 3, 3, "(x*y) -> z = x -> (y -> z)"),
    (3, 3, 6, "(x*y)^4 = x^4 * y^4"),
    (3, 3, 6, "4.(x /\\ y) = 4.x /\\ 4.y"),
    (2, 3, 2, "x \\/ !(x^2) = top"),
)
# pointwise: law kind -> instances per run, sized so one run takes ~1.5 s
LAW_SIZES = {
    "residuation": 6000,
    "closed_form": 8000,
    "assoc": 8000,
    "comm": 8000,
    "involution": 8000,
    "absorption": 8000,
    "bterm": 2500,
}
LAW_BATCH = 1000
LAW_ARITY = {"residuation": 3, "closed_form": 2, "assoc": 3, "comm": 2,
             "involution": 1, "absorption": 2, "bterm": 1}
MAX_NP = 20
MAX_R = 10**15
_CHECKS_RE = re.compile(r"checks=(\d+)")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """Checked result of one workload run."""

    attempted: int = 0
    failed: int = 0
    checks: int = 0
    problems: list[str] = field(default_factory=list)

    def item(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)


class NullTracer:
    """Span recorder used when tracing is off: does nothing."""

    @contextlib.contextmanager
    def span(self, name: str, **tags):
        yield


def _call_cli(argv) -> dict:
    """resilat's CLI in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception as exc:  # an item that raised counts as failed
        return {"stdout": out.getvalue(), "rc": None, "error": repr(exc)}
    return {"stdout": out.getvalue(), "rc": rc, "error": None}


# ---------------------------------------------------------------------------
# verify: the S1-S16 grid through the CLI, then the mutation check.

def verify_inputs(seed: int) -> dict:
    return {"argv": GRID_ARGV, "mutation_point": MUTATION_POINT, "R": 2}


def verify_run(inp: dict, tracer) -> dict:
    grid = _call_cli(inp["argv"])
    try:
        mutations = harness.mutation_check(AlgebraParams(*inp["mutation_point"]),
                                           R=inp["R"])
        error = None
    except Exception as exc:
        mutations, error = None, repr(exc)
    return {"grid": grid, "mutations": mutations, "mutation_error": error}


def verify_check(inp: dict, out: dict, expected: dict) -> Outcome:
    exp = expected["verify"]
    res = Outcome()
    grid = out["grid"]
    got_lines = grid["stdout"].splitlines()
    want_lines = exp["grid_lines"]
    digest_ok = text_digest(grid["stdout"]) == exp["grid_sha256"]
    for i in range(max(len(got_lines), len(want_lines))):
        got = got_lines[i] if i < len(got_lines) else None
        want = want_lines[i] if i < len(want_lines) else None
        res.item(got == want, f"grid line {i + 1}: got {got!r}, want {want!r}")
    res.item(grid["rc"] == exp["grid_rc"] and digest_ok and grid["error"] is None,
             f"grid exit {grid['rc']} error {grid['error']} digest_ok={digest_ok}")
    res.checks = sum(int(m) for m in _CHECKS_RE.findall(grid["stdout"]))
    mutations = out["mutations"] or {}
    for name, caught in exp["mutations"].items():
        res.item(mutations.get(name) == caught,
                 f"mutation {name}: got {mutations.get(name)}, want {caught} "
                 f"({out['mutation_error']})")
    return res


# ---------------------------------------------------------------------------
# sampled: the documented large-window mode.

def sampled_inputs(seed: int) -> dict:
    return {"R": SAMPLED_R, "sample": SAMPLED_SIZE, "seed": seed}


def sampled_run(inp: dict, tracer) -> dict:
    try:
        reports = harness.run_grid(R=inp["R"], sample=inp["sample"], seed=inp["seed"])
    except Exception as exc:
        return {"lines": None, "verdicts": None, "checks": 0, "error": repr(exc)}
    return {
        "lines": [r.text_line() for r in reports],
        "verdicts": [r.verdict for r in reports],
        "checks": sum(r.checks_run for r in reports),
        "error": None,
    }


def sampled_check(inp: dict, out: dict, expected: dict) -> Outcome:
    exp = expected["sampled"]
    res = Outcome()
    if out["error"] is not None:
        for _ in range(exp["reports"]):
            res.item(False, f"run_grid raised {out['error']}")
        return res
    res.item(len(out["lines"]) == exp["reports"],
             f"{len(out['lines'])} reports, want {exp['reports']}")
    for line, verdict in zip(out["lines"], out["verdicts"]):
        res.item(verdict == "pass", f"not a pass: {line}")
    want = exp["digests"].get(str(inp["seed"]))
    if want is not None:
        got = text_digest("\n".join(out["lines"]) + "\n")
        res.item(got == want, f"text digest {got} != pinned {want} (seed {inp['seed']})")
    res.checks = out["checks"]
    return res


# ---------------------------------------------------------------------------
# equations: five `resilat check --eq` lines.

def equations_inputs(seed: int) -> dict:
    return {"argvs": [("check", "--n", str(n), "--p", str(p), "--R", str(R),
                       "--eq", eq) for n, p, R, eq in EQUATIONS]}


def equations_run(inp: dict, tracer) -> dict:
    return {"calls": [_call_cli(argv) for argv in inp["argvs"]]}


def equations_check(inp: dict, out: dict, expected: dict) -> Outcome:
    res = Outcome()
    for call, want in zip(out["calls"], expected["equations"]):
        ok = call["stdout"] == want["stdout"] and call["rc"] == want["rc"]
        res.item(ok, f"eq {want['eq']!r}: got {call['stdout']!r} rc={call['rc']} "
                     f"({call['error']}), want {want['stdout']!r} rc={want['rc']}")
        res.checks += sum(int(m) for m in _CHECKS_RE.findall(call["stdout"]))
    return res


# ---------------------------------------------------------------------------
# pointwise: core laws on random valid elements, no window.

def random_element(rng: random.Random, params: AlgebraParams) -> core.ApElem:
    """A uniformly shaped valid element; |r| is either tiny or up to 10^15.

    Level 0 and level p allow pairs up to (n,0), the middle levels only up
    to (n-1,0); at m=0 the offset must be >= 0 and at the cap <= 0, so at
    n=1 a middle level admits the pair (0,0) alone.
    """
    n, p = params.n, params.p
    alpha = rng.randrange(p + 1)
    cap = n if alpha in (0, p) else n - 1
    m = rng.randrange(cap + 1)
    span = 3 if rng.random() < 0.5 else MAX_R
    lo = 0 if m == 0 else -span
    hi = 0 if m == cap else span
    return core.ap_validate(core.LexPair(m, rng.randint(lo, hi)), alpha, params)


def pointwise_inputs(seed: int) -> dict:
    rng = random.Random(f"pointwise:{seed}")
    laws = {}
    for law, size in LAW_SIZES.items():
        instances = []
        for _ in range(size):
            params = AlgebraParams(rng.randint(1, MAX_NP), rng.randint(1, MAX_NP))
            instances.append(tuple(random_element(rng, params)
                                   for _ in range(LAW_ARITY[law])))
        laws[law] = instances
    return {"laws": laws}


def _residuation(a, b, c):
    return (core.ap_leq(core.ap_mul(a, b), c) == core.ap_leq(b, core.ap_div(a, c))
            and core.ap_leq(b, core.ap_div(a, core.ap_mul(a, b)))
            and core.ap_leq(core.ap_mul(a, core.ap_div(a, c)), c))


def _closed_form(a, b):
    return harness.closed_form_div(a, b) == core.ap_div(a, b)


def _assoc(a, b, c):
    mul = core.ap_mul
    return mul(mul(a, b), c) == mul(a, mul(b, c))


def _comm(a, b):
    return core.ap_mul(a, b) == core.ap_mul(b, a)


def _involution(a):
    return core.ap_inv(core.ap_inv(a)) == a


def _absorption(a, b):
    return (core.ap_meet(a, core.ap_join(a, b)) == a
            and core.ap_join(a, core.ap_meet(a, b)) == a)


def _bterm(a):
    t = core.boolean_term(a)
    top = core.ap_top(a.params)
    return ((t == top or t == core.ap_bot(a.params))
            and (t == top) == structure.filter_member("Radical", a))


LAWS = {"residuation": _residuation, "closed_form": _closed_form, "assoc": _assoc,
        "comm": _comm, "involution": _involution, "absorption": _absorption,
        "bterm": _bterm}


def pointwise_run(inp: dict, tracer) -> dict:
    verdicts = {}
    for law, instances in inp["laws"].items():
        fn = LAWS[law]
        got = []
        with tracer.span("law", law=law, instances=len(instances)):
            for first in range(0, len(instances), LAW_BATCH):
                with tracer.span("batch", law=law, first=first):
                    for args in instances[first:first + LAW_BATCH]:
                        try:
                            got.append(fn(*args))
                        except Exception as exc:
                            got.append(repr(exc))
        verdicts[law] = got
    return {"verdicts": verdicts}


def pointwise_check(inp: dict, out: dict, expected: dict) -> Outcome:
    res = Outcome()
    for law, instances in inp["laws"].items():
        for args, verdict in zip(instances, out["verdicts"][law]):
            res.item(verdict is True, f"{law} {args}: {verdict}")
        res.checks += len(instances)
    return res


# ---------------------------------------------------------------------------
# Registry, plus the elements and terms each workload's layer probes use.

@dataclass(frozen=True)
class Workload:
    make_inputs: object
    run: object
    check: object


WORKLOADS = {
    "verify": Workload(verify_inputs, verify_run, verify_check),
    "sampled": Workload(sampled_inputs, sampled_run, sampled_check),
    "equations": Workload(equations_inputs, equations_run, equations_check),
    "pointwise": Workload(pointwise_inputs, pointwise_run, pointwise_check),
}


def _wl_texts(points):
    """S16's two preset equations at each grid point, as text."""
    out = []
    for n, p in points:
        params = AlgebraParams(n, p)
        for eq in (terms.preset("WL", max(n + 1, p)),
                   terms.preset("WLwitness", params=params)):
            out.append((terms.render_equation(eq), params))
    return out


def probe_cases(name: str, inp: dict) -> list[tuple[str, list]]:
    """(equation text, element pool) pairs the per-layer probes draw from.

    Every pool holds elements of one algebra: the windows a workload
    enumerates, or the instances it checks.
    """
    if name in ("verify", "sampled"):
        R = 2 if name == "verify" else inp["R"]
        return [(text, list(structure.Window(params, R).elements()))
                for text, params in _wl_texts(harness.DEFAULT_GRID)]
    if name == "equations":
        return [(eq, list(structure.Window(AlgebraParams(n, p), R).elements()))
                for n, p, R, eq in EQUATIONS]
    law_text = {"residuation": "x * (x -> y) /\\ y = x * (x -> y)",
                "closed_form": "x -> y = ~(x * ~y)", "assoc": "x*(y*z) = (x*y)*z",
                "comm": "x*y = y*x", "involution": "~~x = x",
                "absorption": "x /\\ (x \\/ y) = x"}
    cases = []
    for law, instances in inp["laws"].items():
        by_params: dict = {}
        for args in instances:
            by_params.setdefault(args[0].params, []).extend(args)
        params, pool = max(by_params.items(), key=lambda kv: len(kv[1]))
        text = law_text.get(law) or (
            f"{params.n + 1}.x^{max(params.n + 1, params.p)} = top")
        cases.append((text, pool))
    return cases


def probe_pairs(name: str, inp: dict, rng: random.Random, count: int) -> list:
    """Same-algebra element pairs for the per-call timings of core and harness."""
    if name == "pointwise":
        pairs = [args[:2] for law in ("comm", "closed_form", "absorption")
                 for args in inp["laws"][law]]
        return rng.sample(pairs, count)
    pools = [pool for _, pool in probe_cases(name, inp)]
    out = []
    for _ in range(count):
        pool = rng.choice(pools)
        out.append((rng.choice(pool), rng.choice(pool)))
    return out
