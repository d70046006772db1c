"""Suite registry, budgets, determinism, dual-route oracles, mutations."""

import copy
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from resilat import core, harness, structure, terms
from resilat.core import AlgebraParams, ApElem
from resilat.harness import (
    DEFAULT_GRID,
    MUTATIONS,
    REFERENCE,
    SUITES,
    OpsBundle,
    closed_form_div,
    mutation_check,
    run_grid,
    run_suite,
)
from resilat.structure import (
    BUDGET_ENV,
    DEFAULT_BUDGET,
    BudgetError,
    Window,
    effective_budget,
)

from bundles import NONCOMMUTATIVE

P23 = AlgebraParams(2, 3)
P11 = AlgebraParams(1, 1)


def el(text, params=P23):
    return core.parse_element(text, params)


def with_fields(record, **changes):
    """record rebuilt with the named fields changed."""
    values = dict(zip(record.fields, record._values()))
    assert changes.keys() <= values.keys()
    return type(record)(*{**values, **changes}.values())


def stripped(report):
    return with_fields(report, elapsed=0.0, tables_s=0.0)


# ---------------------------------------------------------------------------
# Registry.

def test_registry_shape():
    assert list(SUITES) == [f"S{i}" for i in range(1, 17)]
    titles = [e.title for e in SUITES.values()]
    assert len(set(titles)) == 16
    assert {sid: e.title for sid, e in SUITES.items()} == {
        "S1": "residuation",
        "S2": "associativity",
        "S3": "monotonicity",
        "S4": "involution",
        "S5": "annihilation",
        "S6": "unit-absorb",
        "S7": "lattice-glb-lub-distributivity",
        "S8": "local-nilpotency",
        "S9": "power-thresholds",
        "S10": "boolean-radical-term",
        "S11": "filters",
        "S12": "boolean-elements",
        "S13": "subalgebra-closure",
        "S14": "residual-closed-form",
        "S15": "residuation-generic",
        "S16": "wl-membership",
    }


def test_default_grid():
    assert DEFAULT_GRID == tuple((n, p) for n in (1, 2, 3) for p in (1, 2, 3))


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("S99", P23)
    with pytest.raises(ValueError):
        run_suite("s1", P23)


# ---------------------------------------------------------------------------
# Reference runs.

def test_every_suite_passes_at_23():
    for sid in SUITES:
        report = run_suite(sid, P23)
        assert report.verdict == "pass", report.text_line()
        assert report.first_counterexample is None
        assert report.checks_run > 0


def test_every_suite_passes_at_the_smallest_point():
    for sid in SUITES:
        assert run_suite(sid, AlgebraParams(1, 1)).verdict == "pass"


def test_text_line_frozen():
    report = run_suite("S1", P23)
    assert report.text_line() == "S1 residuation n=2 p=3 R=2 pass checks=39304"
    assert run_suite("S2", P23).checks_run == 34**3 + 34**2


def test_json_line_round_trips():
    payload = json.loads(run_suite("S6", P23).json_line())
    assert list(payload) == [
        "suite", "title", "n", "p", "R", "checks_run", "estimate", "verdict",
        "first_counterexample", "details", "elapsed", "tables_s", "checks_per_s",
    ]
    assert payload == {
        "suite": "S6",
        "title": "unit-absorb",
        "n": 2,
        "p": 3,
        "R": 2,
        "checks_run": payload["checks_run"],
        "estimate": 2 * 34,
        "verdict": "pass",
        "first_counterexample": None,
        "details": {},
        "elapsed": payload["elapsed"],
        "tables_s": payload["tables_s"],
        "checks_per_s": payload["checks_per_s"],
    }
    assert isinstance(payload["elapsed"], float)
    assert isinstance(payload["tables_s"], float)
    assert isinstance(payload["checks_per_s"], float)


def test_table_build_is_timed_apart_from_the_checks():
    harness._tables.cache_clear()
    cold = run_suite("S6", P23, R=3)
    warm = run_suite("S6", P23, R=3)
    # the cold run builds 46x46 product and residual tables; the warm one
    # only fetches them, and neither folds that into elapsed
    assert cold.tables_s > 10 * warm.tables_s
    assert cold.tables_s > cold.elapsed


def test_a_mutant_structure_suite_times_the_reference_tables_as_a_build():
    # S12's complements read the REFERENCE tables under every bundle; on a
    # cold cache both builds land in tables_s, not in the checks
    harness._tables.cache_clear()
    report = run_suite("S12", P23, R=3, ops=MUTATIONS["inv-reflect-sign"])
    assert harness._tables.cache_info().currsize == 2
    assert report.tables_s > report.elapsed


def test_a_mutant_s10_builds_the_reference_tables_before_its_checks(monkeypatch):
    # S10's radical routes compute with REFERENCE, read from its tables;
    # under a mutant run_suite builds those with the mutant's, before the
    # checks start, and the report is the one the routes gave from core
    entry, built, bundles = SUITES["S10"], [], set()

    def runner(ctx):
        built.append(harness._tables.cache_info().currsize)
        return entry.runner(ctx)

    monkeypatch.setitem(SUITES, "S10", with_fields(entry, runner=runner))
    for route in ("radical_member_via_term", "radical_member_via_powers"):
        real = getattr(structure, route)
        monkeypatch.setattr(structure, route,
                            lambda a, ops, real=real: bundles.add(ops.ops) or real(a, ops))
    harness._tables.cache_clear()
    report = run_suite("S10", P23, 2, ops=MUTATIONS["mul-case2-sign"])
    assert built == [2] and bundles == {REFERENCE}
    misses = harness._tables.cache_info().misses
    harness._tables(P23, 2, REFERENCE)
    assert harness._tables.cache_info().misses == misses
    assert report.text_line() == ("S10 boolean-radical-term n=2 p=3 R=2 fail checks=127 "
                                  "counterexample a=((1,-2),1) t=((2,-6),0)")


def test_reports_are_deterministic_modulo_elapsed():
    first = run_suite("S7", P23, R=1)
    second = run_suite("S7", P23, R=1)
    assert stripped(first) == stripped(second)


def test_details_surface_the_structure_reports():
    d = run_suite("S11", P23).details
    assert d["fomega_classes"] == 10
    assert d["fomega_induced_mul"]["well_defined"]
    assert d["fomega_induced_mul"]["unique_r0_transversal"]
    assert d["rad_quotient"]["classes"] == 4
    assert d["generated_filter_counts"]["Top"] == 1

    assert "p1_note" in run_suite("S9", AlgebraParams(2, 1)).details
    assert "p1_note" not in run_suite("S9", P23).details

    d16 = run_suite("S16", P23).details
    assert d16["k"] == 3
    assert d16["witness"] == "((0,0),0)"


@pytest.mark.parametrize("f, wrong", [
    ("Radical", lambda a: max(a.alpha, 1)),  # levels 0 and 1 merged
    ("FOmega", lambda a: a.alpha),  # m dropped
], ids=["Radical", "FOmega"])
@pytest.mark.parametrize("params, R", [(P23, 2), (AlgebraParams(4, 4), 4)],  # past 256 ids
                         ids=["23-R2", "44-R4"])
def test_s11_fails_under_a_wrong_quotient_key(monkeypatch, f, wrong, params, R):
    passing = run_suite("S11", params, R)
    assert passing.verdict == "pass"
    real = structure.quotient_key
    monkeypatch.setattr(structure, "quotient_key",
                        lambda g, a: wrong(a) if g == f else real(g, a))
    report = run_suite("S11", params, R)
    assert report.verdict == "fail"
    assert report.first_counterexample[0] == f"filter={f}"
    assert report.details == {"law": "quotient key"}
    # the quotient steps are the last four
    assert passing.checks_run - 4 < report.checks_run <= passing.checks_run


def test_s11_fails_where_a_product_leaves_the_radical():
    # two radical elements below top multiply to bottom, which the
    # closure test under * reads as the product id's Radical bit
    leak = OpsBundle(harness._mul_override(
        lambda a, b: a.alpha == a.p == b.alpha and a.m < a.n and b.m < b.n,
        lambda a, b: (0, 0)), core.ap_inv, "radical-leak")
    report = run_suite("S11", P23, 1, ops=leak)
    assert report.verdict == "fail" and report.details == {}
    assert report.first_counterexample == ("filter=Radical", "a=((0,0),3)", "b=((0,0),3)")


@pytest.mark.parametrize("params, R", [(P23, 2), (AlgebraParams(4, 4), 4)],  # past 256 ids
                         ids=["23-R2", "44-R4"])
def test_quotient_break_counts_the_classes_it_grouped(params, R):
    w = Window(params, R)
    for f in structure.FILTER_IDS:
        assert harness._quotient_break(w, f) == (None, len(structure.quotient_classes(w, f)))


def test_warm_s11_makes_no_filter_member_call(monkeypatch):
    # the filter bits of every table value are read from the tables
    params, runs = AlgebraParams(3, 3), [{"R": 4, "sample": 2000, "seed": 11}, {"R": 2}]
    for kw in runs:
        run_suite("S11", params, **kw)
    real, calls = structure.filter_member, []
    monkeypatch.setattr(structure, "filter_member",
                        lambda f, a: calls.append(f) or real(f, a))
    for kw in runs:
        assert run_suite("S11", params, **kw).verdict == "pass"
    assert calls == []


def test_monid_invo_entry_point():
    report = run_suite("S15", P23, 1)
    assert (report.suite, report.R, report.verdict) == ("S15", 1, "pass")


def test_run_grid_order_and_empty():
    assert run_grid([]) == []
    reports = run_grid(["S6", "S5"], grid=[(1, 1), (1, 2)])
    assert [(r.suite, r.n, r.p) for r in reports] == [
        ("S6", 1, 1), ("S5", 1, 1), ("S6", 1, 2), ("S5", 1, 2),
    ]
    assert all(r.verdict == "pass" for r in reports)


# ---------------------------------------------------------------------------
# Budgets.

def test_effective_budget(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    assert effective_budget() == DEFAULT_BUDGET
    assert effective_budget(99) == 99
    monkeypatch.setenv(BUDGET_ENV, "1234")
    assert effective_budget() == 1234
    assert effective_budget(99) == 99  # explicit override beats the env
    monkeypatch.setenv(BUDGET_ENV, "   ")
    assert effective_budget() == DEFAULT_BUDGET
    monkeypatch.setenv(BUDGET_ENV, "many")
    with pytest.raises(ValueError):
        effective_budget()


def test_budget_gate():
    with pytest.raises(BudgetError) as exc:
        run_suite("S1", P23, budget=1)
    assert str(exc.value) == (
        "S1 at n=2 p=3 R=2 needs about 39304 checks, over the budget of 1"
    )
    assert run_suite("S1", P23, budget=1, force=True).verdict == "pass"
    assert run_suite("S6", P23, budget=100).verdict == "pass"  # under the line


def test_budget_env_reaches_run_suite(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "1")
    with pytest.raises(BudgetError):
        run_suite("S6", P23)
    monkeypatch.delenv(BUDGET_ENV)
    assert run_suite("S6", P23).verdict == "pass"


# ---------------------------------------------------------------------------
# Sampled mode.

def test_sampled_mode_requires_a_wide_window():
    with pytest.raises(ValueError):
        run_suite("S1", P23, R=2, sample=100)
    with pytest.raises(ValueError):
        run_suite("S1", P23, R=4, sample=0)


def test_sampled_runs_are_seeded():
    one = run_suite("S1", P23, R=4, sample=300, seed=7)
    two = run_suite("S1", P23, R=4, sample=300, seed=7)
    assert one.verdict == "pass"
    assert one.checks_run == 300
    assert stripped(one) == stripped(two)


def test_sampled_mutant_still_caught():
    report = run_suite(
        "S5", P23, R=4, sample=2000, ops=MUTATIONS["mul-case2-sign"]
    )
    assert report.verdict == "fail"


def test_estimate_bounds_the_checks_run():
    runs = [run_grid(R=1), run_grid(R=2), run_grid(R=4, sample=300),
            run_grid(grid=[(2, 3)], R=8, sample=10)]
    for report in itertools.chain(*runs):
        assert report.checks_run <= report.estimate, report.text_line()


def test_sampled_budget_counts_the_unsampled_loops():
    # only the drawn tuples shrink: S7's N^2 order checks and S13's member
    # pairs run in full whatever the sample
    with pytest.raises(BudgetError) as exc:
        run_suite("S7", P23, R=8, sample=10, budget=100)
    assert str(exc.value) == (
        "S7 at n=2 p=3 R=8 needs about 11352 checks, over the budget of 100"
    )
    with pytest.raises(BudgetError):
        run_suite("S13", P23, R=8, sample=10, budget=100)
    assert run_suite("S1", P23, R=8, sample=10, budget=100).estimate == 10


# ---------------------------------------------------------------------------
# Dual-route residual oracle.

def test_closed_form_div_matches_the_composite_route():
    points = [(n, p, 3) for n, p in DEFAULT_GRID] + [(4, 4, 2)]
    for n, p, R in points:
        elems = Window(AlgebraParams(n, p), R).elements()
        for a, b in itertools.product(elems, elems):
            composite = core.ap_inv(core.ap_mul(a, core.ap_inv(b)))
            assert closed_form_div(a, b) == core.ap_div(a, b) == composite, (a, b)


def test_closed_form_div_makes_no_product_or_residual_call(monkeypatch):
    pairs = [(a, b) for n, p in DEFAULT_GRID
             for a, b in itertools.product(Window(AlgebraParams(n, p), 2).elements(),
                                           repeat=2)]
    want = [closed_form_div(a, b) for a, b in pairs]

    def refuse(*args):
        raise AssertionError("the oracle called the composite route")

    for op in ("ap_mul", "ap_inv", "ap_div"):
        monkeypatch.setattr(core, op, refuse)
    assert [closed_form_div(a, b) for a, b in pairs] == want


def test_closed_form_div_params_mismatch():
    with pytest.raises(core.ParamsMismatchError):
        closed_form_div(core.ap_top(P23), core.ap_top(AlgebraParams(1, 1)))


# ---------------------------------------------------------------------------
# Bundles and mutations.

# Each mutation's case, read off the ap_mul and ap_inv docstrings rather
# than taken from harness, which would make the check below circular.
def _case2(a, b):  # both levels nonzero, level product 0
    return a.alpha != 0 and b.alpha != 0 and a.alpha + b.alpha <= a.p


def _case4(a, b):  # both levels 0
    return a.alpha == 0 and b.alpha == 0


def _middle(a):  # the levels where the involution reflects the pair
    return 0 < a.alpha < a.p


MUTANT_CASES = {
    "mul-case2-const": ("mul", _case2),
    "mul-case2-sign": ("mul", _case2),
    "mul-case4-const": ("mul", _case4),
    "inv-reflect-const": ("inv", _middle),
    "inv-reflect-sign": ("inv", _middle),
}


def test_each_mutant_is_the_reference_off_its_case():
    for name, (op, case) in MUTANT_CASES.items():
        bundle = MUTATIONS[name]
        differs = set()
        for n, p in DEFAULT_GRID:
            elems = Window(AlgebraParams(n, p), 3).elements()
            for which, args, got, want in (
                ("inv", [(a,) for a in elems], bundle.inv, core.ap_inv),
                ("mul", itertools.product(elems, repeat=2), bundle.mul, core.ap_mul),
            ):
                for xs in args:
                    out, ref = got(*xs), want(*xs)
                    if which == op and case(*xs):
                        if out != ref:
                            differs.add((n, p))
                    else:  # off the case: the reference, never the marker
                        assert isinstance(out, ApElem) and out == ref, (name, xs)
        # not at every point: case 2 and the middle levels are empty at p=1,
        # and at n=1 the middle levels hold only the pair (0, 0)
        assert differs, name
    # mixed parameters are in no case: they raise, as for the reference
    with pytest.raises(core.ParamsMismatchError):
        MUTATIONS["mul-case4-const"].mul(core.ap_bot(P23), core.ap_bot(P11))


def test_reference_bundle_matches_core():
    a, b = el("((1,0),2)"), el("((0,1),0)")
    assert REFERENCE.mul(a, b) == core.ap_mul(a, b)
    assert REFERENCE.div(a, b) == core.ap_div(a, b)
    assert REFERENCE.bterm(a) == core.boolean_term(a)
    assert repr(REFERENCE) == "OpsBundle(reference)"


def test_reference_bundle_is_the_raw_core_ops():
    assert REFERENCE is core.REFERENCE
    assert harness.OpsBundle is core.OpsBundle
    assert harness._INVALID is core._INVALID
    assert core.REFERENCE.mul is core.ap_mul
    assert core.REFERENCE.inv is core.ap_inv
    elems = Window(P23, 1).elements()
    for a in elems:
        assert core.ap_neg(a) == core.REFERENCE.neg(a)
        assert core.boolean_term(a) == core.REFERENCE.bterm(a)
        for k in range(5):
            assert core.ap_pow(a, k) == core.REFERENCE.power(a, k)
            assert core.ap_mult(k, a) == core.REFERENCE.multiple(k, a)
        for b in elems:
            assert core.ap_div(a, b) == core.REFERENCE.div(a, b)
            assert core.ap_oplus(a, b) == core.REFERENCE.oplus(a, b)
            assert core.ap_meet(a, b) == core.REFERENCE.meet(a, b)
            assert core.ap_join(a, b) == core.REFERENCE.join(a, b)


def test_mutant_product_differs_visibly():
    a = el("((1,0),1)")
    assert core.ap_mul(a, a) == el("((1,0),0)")
    assert MUTATIONS["mul-case2-const"].mul(a, a) == core.ap_bot(P23)


def test_invalid_marker_behaviour():
    bundle = MUTATIONS["inv-reflect-const"]
    out = bundle.inv(el("((0,1),1)"))  # reflects past the middle cap
    assert not isinstance(out, ApElem)
    assert repr(out) == "<invalid>"
    assert bundle.mul(out, core.ap_top(P23)) is out  # propagates, never raises
    assert bundle.inv(out) is out
    assert harness._eq(out, out) is False


def test_mutation_names_are_frozen():
    assert list(MUTATIONS) == [
        "mul-case2-const",
        "mul-case2-sign",
        "mul-case4-const",
        "inv-reflect-const",
        "inv-reflect-sign",
    ]
    assert all(MUTATIONS[name].name == name for name in MUTATIONS)


def test_every_mutation_is_caught():
    caught = mutation_check()
    assert {name: " ".join(sids) for name, sids in caught.items()} == {
        "mul-case2-const": "S1 S3 S5 S14 S15",
        "mul-case2-sign": "S1 S2 S3 S5 S8 S9 S10 S14 S15",
        "mul-case4-const": "S1 S2 S3 S5 S8 S9 S10 S14 S15 S16",
        "inv-reflect-const": "S1 S3 S4 S5 S8 S13 S14 S15 S16",
        "inv-reflect-sign": "S1 S3 S4 S5 S13 S14 S15 S16",
    }


def test_failing_report_shape():
    report = run_suite("S4", P23, R=1, ops=MUTATIONS["inv-reflect-sign"])
    assert report.verdict == "fail"
    assert report.first_counterexample == ("a=((0,1),1)",)
    assert " fail " in report.text_line()
    assert "counterexample a=((0,1),1)" in report.text_line()
    payload = json.loads(report.json_line())
    assert payload["first_counterexample"] == ["a=((0,1),1)"]


# ---------------------------------------------------------------------------
# S2 and S13 read interned second-step rows and window tables, and
# exhaustive S2 and S7 compare whole rows composed in C.  These plain
# versions make every guarded call or table read per triple instead, as
# the suites once did; the two must agree on every report field but the
# timings.

def _values(t, rows):
    """The values of an id table of the tables t, row by row."""
    return [[t.vals[u] for u in row] for row in rows]


def _plain_s2(ctx):
    ops, elems, mul_t = ctx.t.ops, ctx.elems, _values(ctx.t, ctx.t.mul_id)
    checks = 0
    for i, j, k in ctx.indices(3):
        checks += 1
        lhs = ops.mul(mul_t[i][j], elems[k])
        rhs = ops.mul(elems[i], mul_t[j][k])
        if not harness._eq(lhs, rhs):
            return checks, harness._ce(a=elems[i], b=elems[j], c=elems[k]), {}
    pairs = 0
    for i, j in ctx.indices(2):
        checks += 1
        pairs += 1
        if not harness._eq(mul_t[i][j], mul_t[j][i]):
            return checks, harness._ce(a=elems[i], b=elems[j]), {}
    return checks, None, {"commutativity_pairs": pairs}


def _plain_s7(ctx):
    t, elems, N = ctx.t, ctx.elems, ctx.N
    up, down, meet_i, join_i = t.up, t.down, t.meet_i, t.join_i
    ce = harness._ce
    checks = 0
    for i in range(N):
        checks += 1
        if not up[i] >> i & 1:
            return checks, ce(a=elems[i]), {}
    for i in range(N):
        for j in range(N):
            checks += 1
            i_le_j = up[i] >> j & 1
            if i_le_j and up[j] >> i & 1 and i != j:
                return checks, ce(a=elems[i], b=elems[j]), {"law": "antisymmetry"}
            if i_le_j and up[j] & ~up[i]:
                return checks, ce(a=elems[i], b=elems[j]), {"law": "transitivity"}
            z, lower = meet_i[i][j], down[i] & down[j]
            if not lower >> z & 1 or lower & ~down[z]:
                return checks, ce(a=elems[i], b=elems[j]), {"law": "glb"}
            u, upper = join_i[i][j], up[i] & up[j]
            if not upper >> u & 1 or upper & ~up[u]:
                return checks, ce(a=elems[i], b=elems[j]), {"law": "lub"}
    for i, j, k in ctx.indices(3):
        checks += 1
        if meet_i[i][join_i[j][k]] != join_i[meet_i[i][j]][meet_i[i][k]]:
            return checks, ce(a=elems[i], b=elems[j], c=elems[k]), {
                "law": "meet over join"
            }
        if join_i[i][meet_i[j][k]] != meet_i[join_i[i][j]][join_i[i][k]]:
            return checks, ce(a=elems[i], b=elems[j], c=elems[k]), {
                "law": "join over meet"
            }
    return checks, None, {"distributive": True}


def _plain_s13(ctx):
    ops, p = ctx.t.ops, ctx.params.p
    targets = [("L2", None), ("ChangL2w", None), ("HatLnp", None),
               ("HatLn2", None), ("A2", None)]
    for q in range(1, p + 1):
        if p % q == 0:
            targets += [("Aq", q), ("HatLq", q)]
    checks = 0
    for sid, q in targets:
        members = [a for a in ctx.elems if structure.subalg_member(sid, a, q)]
        label = [f"subalgebra={sid}" if q is None else f"subalgebra={sid}(q={q})"]
        for a in members:
            c = ops.inv(a)
            checks += 1
            if c is harness._INVALID or not structure.subalg_member(sid, c, q):
                return checks, label + harness._ce(a=a, inv=c), {}
            for b in members:
                for fn in (ops.mul, ops.div, ops.meet, ops.join):
                    checks += 1
                    c = fn(a, b)
                    if c is harness._INVALID:
                        return checks, label + harness._ce(a=a, b=b), {}
                    if abs(c.r) <= ctx.R and not structure.subalg_member(sid, c, q):
                        return checks, label + harness._ce(a=a, b=b, result=c), {}
    return checks, None, {"targets": [s if q is None else f"{s}(q={q})"
                                      for s, q in targets]}


def _plain_s14(ctx):
    t, elems = ctx.t, ctx.elems
    checks = 0
    for i, j in ctx.indices(2):
        checks += 1
        if harness.closed_form_div(elems[i], elems[j]) != t.vals[t.div_id[i][j]]:
            return checks, harness._ce(a=elems[i], b=elems[j]), {}
    return checks, None, {}


def _plain_s16(ctx):
    params = ctx.params
    kmax = max(params.n + 1, params.p)
    v1 = terms.check_equation(
        terms.preset("WL", kmax), params, ctx.R, ops=ctx.t.ops, force=True)
    checks, details = v1.checked, {"k": kmax}
    if not v1.holds:
        return checks, ["x=" + harness._fmt(v1.counterexample["x"])], details
    v2 = terms.check_equation(
        terms.preset("WLwitness", params=params), params, ctx.R,
        domain=lambda a: structure.subalg_member("HatLn2", a), ops=ctx.t.ops, force=True)
    checks += v2.checked
    if v2.holds:
        return checks, [f"no witness against the m={params.n} equation"], details
    details["witness"] = harness._fmt(v2.counterexample["x"])
    return checks, None, details


def _mul_invalid_past_r2(a, b):
    """The product, except that an operand with |r| > 2 gives a level
    outside the universe, which raises as the validating constructor
    does: at R=2 only second steps go invalid, on either side or both;
    at R=4 first steps do too."""
    if abs(a.r) > 2 or abs(b.r) > 2:
        return core.ap_validate(core.LexPair(a.m, a.r), a.p + 1, a.params)
    return core.ap_mul(a, b)


TWO_STEP_BUNDLES = {
    "reference": REFERENCE,
    **MUTATIONS,
    "invalid-past-r2": OpsBundle(_mul_invalid_past_r2, core.ap_inv, "invalid-past-r2"),
    # S1 first fails past row 0 under it, and a table read with its
    # operands swapped changes a report
    NONCOMMUTATIVE.name: NONCOMMUTATIVE,
}


def test_guarded_bundles_derive_the_residual():
    # REFERENCE's div is core's closed form; every other bundle takes
    # ~(a * ~b) through its own guarded mul and inv, the invalid marker
    # included, so a corrupted constant reaches the residual
    assert core.ap_div is core.REFERENCE.div
    elems = Window(P23, 2).elements()
    for bundle in TWO_STEP_BUNDLES.values():  # MUTATIONS among them
        operands = elems if bundle is REFERENCE else (*elems, harness._INVALID)
        for a, b in itertools.product(operands, repeat=2):
            got, want = bundle.div(a, b), bundle.inv(bundle.mul(a, bundle.inv(b)))
            assert got is want if want is harness._INVALID else got == want, (bundle, a, b)
        if bundle.name in MUTATIONS:
            assert any(bundle.div(a, b) != core.ap_div(a, b)
                       for a, b in itertools.product(elems, repeat=2)), bundle


def test_a_two_step_bundle_does_not_commute():
    t = harness._tables(P23, 1, TWO_STEP_BUNDLES["case2-larger-m-left"])
    mul_t = _values(t, t.mul_id)
    assert any(mul_t[i][j] != mul_t[j][i] for i in range(t.N) for j in range(i))


# The residual table reads a*~b from the product table where ~b is a
# window element; it must hold what the bundle's own div returns.

@pytest.mark.parametrize("name", list(TWO_STEP_BUNDLES))
def test_residual_table_is_the_bundle_div(name):
    bundle = TWO_STEP_BUNDLES[name]
    for R in (1, 2, 4):
        for n, p in DEFAULT_GRID:
            t = harness._tables(AlgebraParams(n, p), R, bundle)
            div_t = _values(t, t.div_id)
            for i, a in enumerate(t.elems):
                for j, b in enumerate(t.elems):
                    want, got = bundle.div(a, b), div_t[i][j]
                    if want is harness._INVALID:
                        assert got is want, (n, p, R, a, b)
                    else:
                        assert got is not harness._INVALID and got == want


def _counting_bundle():
    calls = {"mul": 0, "inv": 0}

    def mul(a, b):
        calls["mul"] += 1
        return core.ap_mul(a, b)

    def inv(a):
        calls["inv"] += 1
        return core.ap_inv(a)

    return OpsBundle(mul, inv, "counting"), calls


def test_table_build_multiplies_each_pair_once():
    params = AlgebraParams(3, 3)
    w = Window(params, 2)
    bundle, calls = _counting_bundle()
    t = structure._Tables(w, bundle)
    N = len(w)
    # the residuals read their products from the product table, and the
    # involution runs once per window element and once per distinct product
    assert calls["mul"] == N * N
    assert calls["inv"] <= N + len(set(itertools.chain(*t.mul_id)))


def _assert_suites_match_plain(bundle, R, sample, suites,
                               points=((1, 1), (2, 3), (3, 2))):
    for n, p in points:
        params = AlgebraParams(n, p)
        ctx = harness._Ctx(Window(params, R), harness._tables(params, R, bundle), sample, 5)
        for sid, plain in suites:
            checks, ce, details = plain(ctx)
            report = run_suite(sid, params, R, ops=bundle, sample=sample, seed=5)
            assert report.checks_run == checks, (sid, n, p)
            assert report.verdict == ("pass" if ce is None else "fail")
            assert report.first_counterexample == (tuple(ce) if ce else None)
            assert report.details == details


@pytest.mark.parametrize("name", list(TWO_STEP_BUNDLES))
@pytest.mark.parametrize("R, sample", [(1, None), (2, None), (4, 300)])
def test_two_step_suites_match_plain_guarded_calls(name, R, sample):
    _assert_suites_match_plain(TWO_STEP_BUNDLES[name], R, sample,
                               (("S2", _plain_s2), ("S7", _plain_s7),
                                ("S13", _plain_s13), ("S14", _plain_s14),
                                ("S16", _plain_s16)))


def _spy_row_scans(monkeypatch):
    """Record the first failing row that exhaustive S2 and S7 find by
    composing whole rows, N when all hold; a fallback run records none."""
    rows = []
    real = harness._first_row

    def spy(holds, N):
        skipped, triples = real(holds, N)
        rows.append(skipped // N**2)
        return skipped, triples

    monkeypatch.setattr(harness, "_first_row", spy)
    return rows


@pytest.mark.parametrize("name", list(TWO_STEP_BUNDLES))
def test_row_suites_match_plain_on_the_fallback(monkeypatch, name):
    # what a window past 256 values does, forced at a small one: an
    # N = 257 window would cost 17 million triples
    monkeypatch.setattr(harness, "_BYTES", 0)
    rows = _spy_row_scans(monkeypatch)
    for R in (1, 2):
        _assert_suites_match_plain(TWO_STEP_BUNDLES[name], R, None,
                                   (("S2", _plain_s2), ("S7", _plain_s7)))
    assert rows == []


def test_row_suites_compose_rows_on_the_grid(monkeypatch):
    rows = _spy_row_scans(monkeypatch)
    for n, p in DEFAULT_GRID:
        params = AlgebraParams(n, p)
        N = len(Window(params, 2))
        for bundle in (REFERENCE, *MUTATIONS.values()):
            del rows[:]
            report = run_suite("S2", params, 2, ops=bundle)
            assert len(rows) == 1, (n, p, bundle)
            if report.verdict == "pass":
                assert rows == [N]
        del rows[:]
        assert run_suite("S7", params, 2).verdict == "pass"
        assert rows == [N]


@pytest.mark.parametrize("name", ["reference", "mul-case2-sign"])
def test_s2_matches_plain_past_256_first_step_products(monkeypatch, name):
    # (4,4) at R=4 has 274 distinct first-step products under the
    # reference, too many for a byte row
    params, bundle = AlgebraParams(4, 4), TWO_STEP_BUNDLES[name]
    t = harness._tables(params, 4, bundle)
    assert len(set(itertools.chain(*t.mul_id))) > 256
    rows = _spy_row_scans(monkeypatch)
    if bundle is REFERENCE:
        # the plain body takes about 10 s here; a pass has one fixed count
        report = run_suite("S2", params, 4)
        assert (report.verdict, report.checks_run) == ("pass", t.N**3 + t.N**2)
    else:
        _assert_suites_match_plain(bundle, 4, None, (("S2", _plain_s2),),
                                   points=((4, 4),))
    assert rows == []


def _mul_invalid_at_the_first_square(a, b):
    """The product, except that ((0,0),0) squared leaves the universe:
    S2's first triple then has an invalid second step on both sides."""
    if a.m == a.r == a.alpha == 0 and a == b:
        return core.ap_validate(core.LexPair(0, 0), a.p + 1, a.params)
    return core.ap_mul(a, b)


def test_s2_invalid_second_steps_equal_nothing(monkeypatch):
    bundle = OpsBundle(_mul_invalid_at_the_first_square, core.ap_inv, "first-square")
    line = run_suite("S2", P23, 1, ops=bundle).text_line()
    assert line.endswith("fail checks=1 counterexample a=((0,0),0) b=((0,0),0) "
                         "c=((0,0),0)")
    for limit in (harness._BYTES, 0):  # composed rows, then the fallback
        monkeypatch.setattr(harness, "_BYTES", limit)
        _assert_suites_match_plain(bundle, 1, None, (("S2", _plain_s2),))


def test_sampled_s2_invalid_ids_equal_nothing():
    # Sampled S2 compares table ids.  Make one window element x whose
    # square alone leaves the universe, chosen so that no drawn triple
    # meets x*x at either step but a drawn pair is (x, x): commutativity
    # must fail there, though both sides have the invalid marker's id.
    R, sample, seed = 4, 200, 4
    t = harness._tables(P23, R, REFERENCE)
    pairs = harness._draws(seed, 2, t.N, sample)
    touched = {q for i, j, k in harness._draws(seed, 3, t.N, sample)
               for q in ((i, j), (j, k), (t.mul_id[i][j], k), (i, t.mul_id[j][k]))}
    x = next(i for i, j in pairs if i == j and (i, i) not in touched)
    square = t.elems[x]

    def mul(a, b):
        if a == b == square:
            return core.ap_validate(core.LexPair(0, 0), a.p + 1, a.params)
        return core.ap_mul(a, b)

    report = run_suite("S2", P23, R, ops=OpsBundle(mul, core.ap_inv, "x-square"),
                       sample=sample, seed=seed)
    assert report.verdict == "fail"
    assert report.checks_run == sample + pairs.index((x, x)) + 1
    assert report.text_line().endswith(f"a={core.render_element(square)} "
                                       f"b={core.render_element(square)}")


def test_exhaustive_s2_multiplies_only_products_past_the_window():
    for n, p in ((2, 3), (3, 3)):
        params = AlgebraParams(n, p)
        bundle, calls = _counting_bundle()
        t = harness._tables(params, 2, bundle)
        P1 = len(set(itertools.chain(*t.mul_id)))
        calls["mul"] = 0
        assert run_suite("S2", params, 2, ops=bundle).verdict == "pass"
        # a first-step product in the window has its second steps in the
        # product table; the rest are multiplied once on each side
        assert 0 < calls["mul"] <= 2 * (P1 - t.N) * t.N


def _clone(t):
    """A copy of the tables t.  copy.copy would set every slot, and
    OpsBundle's mul, inv and div slots are read-only on _Tables, whose
    methods of those names override them."""
    out = object.__new__(type(t))
    for name in (*type(t).__slots__, "name"):
        setattr(out, name, getattr(t, name))
    return out


def _relation_tables(t, up):
    """A copy of the tables t cut down to len(up) elements, whose order
    rows are up, any reflexive relation, and whose meet of x and y is the
    first z with down[z] = down[x] & down[y], 0 if none is, and dually
    for joins: in a lattice, the meet and the join."""
    N = len(up)
    down = harness._transpose(up, N)

    def bound(masks, x, y):
        return next((z for z in range(N) if masks[z] == masks[x] & masks[y]), 0)

    broken = _clone(t)
    broken.elems, broken.N, broken.up, broken.down = t.elems[:N], N, up, down
    broken.meet_i = [[bound(down, x, y) for y in range(N)] for x in range(N)]
    broken.join_i = [[bound(up, x, y) for y in range(N)] for x in range(N)]
    return broken


def _lattice_tables(t, N, covers):
    """_relation_tables for the order generated by the cover pairs (u, v),
    u below v, on N elements."""
    up = [1 << u for u in range(N)]
    for _ in range(N):
        for u, v in covers:
            up[u] |= up[v]
    return _relation_tables(t, up)


# a chain 0 < 1 < 2 with the pentagon 2 < 3 < 4 < 6, 2 < 5 < 6 above it,
# and the same chain with the diamond 2 < 3, 4, 5 < 6: neither lattice is
# distributive
NON_DISTRIBUTIVE = (
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 6), (2, 5), (5, 6)],
    [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5), (3, 6), (4, 6), (5, 6)],
)


def test_s7_rows_match_plain_on_broken_tables(monkeypatch):
    t = harness._tables(P23, 2, REFERENCE)
    w = Window(P23, 2)
    cases = []
    # one corrupted meet or join entry already breaks its glb or lub
    for table in ("meet_i", "join_i"):
        broken = _clone(t)
        rows = [list(row) for row in getattr(t, table)]
        rows[5][9] = (rows[5][9] + 1) % t.N
        setattr(broken, table, rows)
        cases.append(broken)
    # relations that are not orders: the chain 0 < 1 < 2 with 1 <= 0 too,
    # or without 0 <= 2, and one whose row 0 fails only the transitivity
    # part of the row test, its meets and joins passing the rest
    for up in ([0b111, 0b111, 0b100], [0b011, 0b110, 0b100], [19, 26, 31, 26, 18]):
        cases.append(_relation_tables(t, up))
    # a consistent lattice that is not distributive reaches the two laws;
    # relabelled at random, either law can come first
    rng = random.Random(7)
    for covers in NON_DISTRIBUTIVE:
        for _ in range(20):
            label = rng.sample(range(7), 7)
            relabelled = [(label[u], label[v]) for u, v in covers]
            cases.append(_lattice_tables(t, 7, relabelled))
    laws = set()
    for tables in cases:
        ctx = harness._Ctx(w, tables, None, 0)
        want = _plain_s7(ctx)
        assert want[1] is not None
        assert harness._s7(ctx) == want
        with monkeypatch.context() as m:
            m.setattr(harness, "_BYTES", 0)
            assert harness._s7(ctx) == want
        laws.add(want[2]["law"])
    assert laws == {"antisymmetry", "transitivity", "glb", "lub",
                    "meet over join", "join over meet"}


# Bundles that reach the two S13 counterexamples no mutation reaches (a
# valid result outside the subalgebra, an involution leaving it), and one
# whose level-0 products land past the radius, where they pass.

def _mul_met_with_a_top_level_value(a, b):
    return core.ap_meet(core.ap_mul(a, b),
                        core.ap_validate(core.LexPair(0, 1), a.p, a.params))


def _inv_sends_top_off_l2(a):
    if a == core.ap_top(a.params):
        return core.ap_validate(core.LexPair(0, 1), 0, a.params)
    return core.ap_inv(a)


def _mul_level0_past_the_radius(a, b):
    if a.alpha == 0 == b.alpha:
        return core.ap_validate(core.LexPair(1, 5 if a.n > 1 else -5), 0, a.params)
    return core.ap_mul(a, b)


S13_BRANCHES = {
    "result": (OpsBundle(_mul_met_with_a_top_level_value, core.ap_inv, "result"),
               "fail checks=12 counterexample subalgebra=L2 a=((2,0),3) "
               "b=((2,0),0) result=((0,1),0)"),
    "inv": (OpsBundle(core.ap_mul, _inv_sends_top_off_l2, "inv"),
            "fail checks=10 counterexample subalgebra=L2 a=((2,0),3) inv=((0,1),0)"),
    "past-radius": (OpsBundle(_mul_level0_past_the_radius, core.ap_inv, "past-radius"),
                    "pass checks=9862"),
}


@pytest.mark.parametrize("name", list(S13_BRANCHES))
def test_s13_branches_match_plain_guarded_calls(name):
    bundle, tail = S13_BRANCHES[name]
    line = run_suite("S13", P23, 2, ops=bundle).text_line()
    assert line == "S13 subalgebra-closure n=2 p=3 R=2 " + tail
    for R, sample in ((1, None), (2, None), (4, 300)):
        _assert_suites_match_plain(bundle, R, sample, (("S13", _plain_s13),))


# S1, S3, S4, S5 and S15 read the order of interned values as bit rows.
# These plain versions compare every triple or pair with the guarded
# order, as the suites once did, and must agree with them on every report
# field but the timings.

def _leq(x, y):
    """The guarded order: the invalid marker satisfies none."""
    if x is harness._INVALID or y is harness._INVALID:
        return False
    return core.ap_leq(x, y)


def _plain_s1(ctx):
    t, elems, leq = ctx.t, ctx.elems, _leq
    mul_t, div_t = _values(t, t.mul_id), _values(t, t.div_id)
    checks = 0
    for i, j, k in ctx.indices(3):
        checks += 1
        if leq(mul_t[i][j], elems[k]) != leq(elems[j], div_t[i][k]):
            return checks, harness._ce(a=elems[i], b=elems[j], c=elems[k]), {}
    return checks, None, {}


def _plain_s3(ctx):
    t, elems = ctx.t, ctx.elems
    mul_t, div_t = _values(t, t.mul_id), _values(t, t.div_id)
    checks = 0
    for i, j, k in ctx.indices(3):
        checks += 1
        if not _leq(elems[j], elems[k]):
            continue
        if not _leq(mul_t[i][j], mul_t[i][k]):
            return checks, harness._ce(a=elems[i], b=elems[j], c=elems[k]), {}
        if not _leq(div_t[i][j], div_t[i][k]):
            return checks, harness._ce(a=elems[i], b=elems[j], c=elems[k]), {}
        if not _leq(div_t[k][i], div_t[j][i]):
            return checks, harness._ce(a=elems[i], b=elems[j], c=elems[k]), {}
    return checks, None, {"implications": "mul and div monotone, div antitone left"}


def _plain_s4(ctx):
    t, elems, ops = ctx.t, ctx.elems, ctx.t.ops
    inv_t, div_t = [t.vals[u] for u in t.inv_id], _values(t, t.div_id)
    checks = 0
    for i in range(ctx.N):
        checks += 1
        if not harness._eq(ops.inv(inv_t[i]), elems[i]):
            return checks, harness._ce(a=elems[i]), {}
        checks += 1
        if not harness._eq(inv_t[i], div_t[i][t.bot_i]):
            return checks, harness._ce(a=elems[i]), {}
    for i, j in ctx.indices(2):
        checks += 1
        if _leq(elems[i], elems[j]) != _leq(inv_t[j], inv_t[i]):
            return checks, harness._ce(a=elems[i], b=elems[j]), {}
    return checks, None, {}


def _plain_s5(ctx):
    t, elems = ctx.t, ctx.elems
    bot = core.ap_bot(ctx.params)
    mul_t, inv_t = _values(t, t.mul_id), [t.vals[u] for u in t.inv_id]
    checks = 0
    for i, j in ctx.indices(2):
        checks += 1
        if harness._eq(mul_t[i][j], bot) != _leq(elems[i], inv_t[j]):
            return checks, harness._ce(a=elems[i], b=elems[j]), {}
    return checks, None, {}


def _plain_s15(ctx):
    t, elems = ctx.t, ctx.elems
    div_t = _values(t, t.div_id)
    checks = 0
    for i, k in ctx.indices(2):
        checks += 1
        if div_t[i][k] is harness._INVALID:
            ce = harness._ce(a=elems[i], c=elems[k])
            return checks, ce, {"law": "residual agreement"}
    more, ce, details = _plain_s1(ctx)
    return checks + more, ce, details


_ORDER_SUITES = (
    ("S1", _plain_s1), ("S3", _plain_s3), ("S4", _plain_s4),
    ("S5", _plain_s5), ("S15", _plain_s15),
)


@pytest.mark.parametrize("name", list(TWO_STEP_BUNDLES))
@pytest.mark.parametrize("R, sample", [(1, None), (2, None), (4, 300)])
def test_order_suites_match_plain_guarded_calls(name, R, sample):
    _assert_suites_match_plain(TWO_STEP_BUNDLES[name], R, sample, _ORDER_SUITES)


@pytest.mark.parametrize("name", ["reference", "mul-case2-sign"])
def test_order_suites_match_plain_past_256_ids(name):
    # (4,4) at R=4 has 294 ids, too many for one byte each
    tables = harness._tables(AlgebraParams(4, 4), 4, TWO_STEP_BUNDLES[name])
    assert len(tables.ge) > 256 and isinstance(tables.mul_id[0], list)
    _assert_suites_match_plain(TWO_STEP_BUNDLES[name], 4, 200, _ORDER_SUITES,
                               points=((4, 4),))


@pytest.mark.parametrize("name", ["mul-case2-sign", "inv-reflect-sign"])
def test_exhaustive_order_suites_match_plain_past_256_ids(name):
    # the row tests read list rows here; the plain loops stop at the
    # first counterexample, so a failing bundle keeps them short
    tables = harness._tables(AlgebraParams(4, 4), 4, TWO_STEP_BUNDLES[name])
    assert len(tables.ge) > 256 and isinstance(tables.mul_id[0], list)
    _assert_suites_match_plain(
        TWO_STEP_BUNDLES[name], 4, None,
        (("S1", _plain_s1), ("S3", _plain_s3), ("S15", _plain_s15)), points=((4, 4),))


# The order and lattice tables come from closed forms; they must equal
# the pairwise build: the guarded order on every pair of value ids, and
# the window index of core's meet and join of every pair of window
# elements.  The mutants put values past the window and the invalid
# marker among the ids.  At n=1 a middle level holds only (0,0); at p=1
# there is no middle level.

_TABLE_POINTS = (
    [(n, p, R) for n, p in DEFAULT_GRID for R in (0, 1, 2, 4)]
    + [(4, 4, 4)]
    + [(n, p, R) for n, p in ((1, 5), (5, 1)) for R in range(5)]
)


def _assert_rows(got, want, where):
    # the rows that differ, not a diff of two N x N tables
    bad = [k for k, (g, w) in enumerate(zip(got, want)) if g != w]
    assert len(got) == len(want) and not bad, (where, bad[:5])


def _assert_pairwise_order(t, where):
    # ge[u] holds the ids above value u; up[u] and down[u] are the window
    # elements above and below it, and the invalid marker sits in no order
    vals, low = t.vals, (1 << t.N) - 1
    rows = [[_leq(x, y) for y in vals] for x in vals]
    ge = [structure._mask(row) for row in rows]
    le = [structure._mask(col) for col in zip(*rows)]
    _assert_rows(t.ge, ge, ("ge", *where))
    _assert_rows(t.up, [g & low for g in ge], ("up", *where))
    _assert_rows(t.down, [d & low for d in le], ("down", *where))


def _assert_bundle_values(t, bundle, where):
    # the ids name the bundle's own results, interned in the order of
    # their first appearance: window, involutions, products, residuals
    elems = t.elems
    mul = [[bundle.mul(a, b) for b in elems] for a in elems]
    div = [[bundle.div(a, b) for b in elems] for a in elems]
    inv = [bundle.inv(a) for a in elems]
    assert t.vals == list(dict.fromkeys(itertools.chain(elems, inv, *mul, *div))), where
    vals = t.vals
    _assert_rows([[vals[u] for u in row] for row in t.mul_id], mul, ("mul_id", *where))
    _assert_rows([[vals[u] for u in row] for row in t.div_id], div, ("div_id", *where))
    assert [vals[u] for u in t.inv_id] == inv, where


def _assert_pairwise_lattice(t, lattice, where):
    _assert_rows(t.meet_i, lattice[0], ("meet_i", *where))
    _assert_rows(t.join_i, lattice[1], ("join_i", *where))


def _pairwise_lattice(elems):
    idx = {a: i for i, a in enumerate(elems)}
    return ([[idx[core.ap_meet(a, b)] for b in elems] for a in elems],
            [[idx[core.ap_join(a, b)] for b in elems] for a in elems])


def test_tables_are_the_pairwise_build():
    invalid_seen = False
    for n, p, R in _TABLE_POINTS:
        w = Window(AlgebraParams(n, p), R)
        lattice = _pairwise_lattice(w.elements())
        for bundle in TWO_STEP_BUNDLES.values():
            t = structure._Tables(w, bundle)
            _assert_pairwise_order(t, (bundle.name, n, p, R))
            _assert_pairwise_lattice(t, lattice, (bundle.name, n, p, R))
            _assert_bundle_values(t, bundle, (bundle.name, n, p, R))
            invalid_seen |= any(v is harness._INVALID for v in t.vals)
    assert invalid_seen


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 6),
       st.sampled_from(sorted(TWO_STEP_BUNDLES)))
def test_tables_are_the_pairwise_build_off_the_grid(n, p, R, name):
    w = Window(AlgebraParams(n, p), R)
    t = structure._Tables(w, TWO_STEP_BUNDLES[name])
    _assert_pairwise_order(t, (name, n, p, R))
    _assert_pairwise_lattice(t, _pairwise_lattice(w.elements()), (name, n, p, R))


# The tables hold the invalid marker's id and the named filters' bits
# over every value id, window elements first.

@pytest.mark.parametrize("name", list(TWO_STEP_BUNDLES))  # MUTATIONS among them
def test_tables_hold_the_invalid_id_and_every_values_filter_bits(name):
    for params, R in ((P23, 2), (AlgebraParams(4, 4), 4)):  # the second past 256 ids
        t = harness._tables(params, R, TWO_STEP_BUNDLES[name])
        invalid = [u for u, v in enumerate(t.vals) if v is harness._INVALID]
        assert t.bad == (invalid[0] if invalid else -1) and len(invalid) <= 1
        for f in structure.FILTER_IDS:
            want = [v is not harness._INVALID and structure.filter_member(f, v)
                    for v in t.vals]
            assert [bool(t.filters[f] >> u & 1) for u in range(len(t.vals))] == want, f
            assert t.filters[f] >> len(t.vals) == 0
    # the one bundle whose products past the window are all the marker
    assert len(t.vals) > 256 or name == "invalid-past-r2"


def test_the_tables_see_an_invalid_value_past_the_window():
    assert harness._tables(P23, 2, REFERENCE).bad == -1
    t = harness._tables(AlgebraParams(4, 4), 4, TWO_STEP_BUNDLES["invalid-past-r2"])
    assert t.vals[t.bad] is harness._INVALID and t.bad >= t.N


# Powers and multiples of window elements walk the id tables; each walk
# must return what the bundle's own chain does.

def _chain_exits(t, bundle, a, k, step):
    """Whether the bundle's chain of k steps from a meets a value outside
    the window before its fixed point, where the walk hands over."""
    out = bundle.power(a, 0) if step == "power" else bundle.multiple(0, a)
    for _ in range(k):
        if out not in t.idx:
            return True
        nxt = bundle.mul(a, out) if step == "power" else bundle.oplus(a, out)
        if nxt == out:
            return False
        out = nxt
    return False


def test_table_chains_are_the_bundle_chains():
    points = [(n, p, R) for n, p in DEFAULT_GRID for R in (0, 1, 2)] + [(4, 4, 4)]
    exits = no_dual = 0
    for n, p, R in points:
        for bundle in TWO_STEP_BUNDLES.values():
            t = harness._tables(AlgebraParams(n, p), R, bundle)
            for a in t.elems:
                no_dual += bundle.inv(a) not in t.idx
                for k in range(max(n + 1, p, R + 1) + 3):
                    where = (bundle.name, n, p, R, a, k)
                    assert t.power(a, k) == bundle.power(a, k), where
                    assert t.multiple(k, a) == bundle.multiple(k, a), where
                    exits += _chain_exits(t, bundle, a, k, "power")
    # (4,4) at R=4 has list rows, past 256 ids
    assert len(t.vals) > 256 and isinstance(t.mul_id[0], list)
    assert exits > 0 and no_dual > 0
    with pytest.raises(ValueError):
        t.power(t.elems[0], -1)
    with pytest.raises(ValueError):
        t.multiple(-1, t.elems[0])


@pytest.mark.parametrize("name", list(TWO_STEP_BUNDLES))
def test_the_table_view_is_the_bundle(name):
    # window elements, values past the window and, under a guarded
    # bundle, the invalid marker
    bundle = TWO_STEP_BUNDLES[name]
    t = harness._tables(P23, 1, bundle)
    assert isinstance(t, OpsBundle) and t.name == bundle.name
    xs = [*t.elems, el("((1,-3),3)"), el("((1,4),0)"), el("((0,2),1)")]
    if bundle is not REFERENCE:
        xs.append(harness._INVALID)

    def same(got, want):
        return got is want if want is harness._INVALID else got == want

    for a in xs:
        for op in ("inv", "neg", "bterm"):
            assert same(getattr(t, op)(a), getattr(bundle, op)(a)), (op, a)
        for k in (0, 1, 4):
            assert same(t.power(a, k), bundle.power(a, k)), (a, k)
            assert same(t.multiple(k, a), bundle.multiple(k, a)), (a, k)
        for b in xs:
            for op in ("mul", "div", "oplus", "meet", "join"):
                assert same(getattr(t, op)(a, b), getattr(bundle, op)(a, b)), (op, a, b)


def test_chain_steps_in_the_window_make_no_bundle_call():
    bundle, calls = _counting_bundle()
    handed_over = 0
    for n, p in DEFAULT_GRID:
        t = structure._Tables(Window(AlgebraParams(n, p), 2), bundle)
        for a in t.elems:
            for k in range(max(n + 1, p, 3) + 3):
                for step, walk in (("power", lambda: t.power(a, k)),
                                   ("multiple", lambda: t.multiple(k, a))):
                    calls.update(mul=0, inv=0)
                    walk()
                    if not _chain_exits(t, REFERENCE, a, k, step):
                        assert calls == {"mul": 0, "inv": 0}, (step, n, p, a, k)
                    else:
                        handed_over += 1
    assert handed_over > 0


def test_table_build_makes_no_order_or_lattice_call(monkeypatch):
    calls = {"ap_leq": 0, "ap_meet": 0, "ap_join": 0}
    for op in calls:
        real = getattr(core, op)

        def counting(a, b, op=op, real=real):
            calls[op] += 1
            return real(a, b)

        monkeypatch.setattr(core, op, counting)
    structure._Tables(Window(AlgebraParams(3, 3), 4), REFERENCE)
    assert calls == {"ap_leq": 0, "ap_meet": 0, "ap_join": 0}


# Exhaustive S3 tests each row on the window's cover pairs.  Its row
# predicate must equal the one over every pair b_j <= c_k on every row,
# not only up to the first failing one.

def _all_pairs_s3_row(t, le, i):
    """S3's row i over every pair b_j <= c_k, each law a mask over k."""
    P = len(t.ge)
    mul_row, div_row = t.mul_id[i], t.div_id[i]
    div_col = [row[i] for row in t.div_id]
    # bit k of mul_up[v]: v <= a*c_k; of div_up[v]: v <= a->c_k; and of
    # col_down[v]: c_k->a <= v
    mul_up = structure._transpose([le[u] for u in mul_row], P)
    div_up = structure._transpose([le[u] for u in div_row], P)
    col_down = structure._transpose([t.ge[u] for u in div_col], P)
    return not any(t.up[j] & ~(mul_up[mul_row[j]] & div_up[div_row[j]]
                               & col_down[div_col[j]]) for j in range(t.N))


def _s3_holds(monkeypatch, ctx):
    """The row predicate exhaustive S3 hands to _first_row."""
    seen = []
    real = harness._first_row

    def spy(holds, N):
        seen.append(holds)
        return real(holds, N)

    with monkeypatch.context() as m:
        m.setattr(harness, "_first_row", spy)
        harness._s3(ctx)
    (holds,) = seen
    return holds


def test_s3_cover_rows_are_the_all_pairs_rows(monkeypatch):
    points = [(n, p, R) for n, p in DEFAULT_GRID for R in (0, 1, 2)] + [(4, 4, 4)]
    failing = 0
    for n, p, R in points:
        params = AlgebraParams(n, p)
        for bundle in TWO_STEP_BUNDLES.values():
            t = harness._tables(params, R, bundle)
            le = structure._transpose(t.ge, len(t.ge))
            holds = _s3_holds(monkeypatch, harness._Ctx(Window(params, R), t, None, 0))
            got = [holds(i) for i in range(t.N)]
            assert got == [_all_pairs_s3_row(t, le, i) for i in range(t.N)], (
                bundle.name, n, p, R)
            failing += got.count(False)
    # (4,4) at R=4 has list rows, past 256 ids
    assert len(t.ge) > 256 and isinstance(t.mul_id[0], list)
    assert failing > 0


def test_exhaustive_s3_makes_no_transpose_call(monkeypatch):
    calls = []
    real = structure._transpose

    def counting(rows, width):
        calls.append(width)
        return real(rows, width)

    for n, p in DEFAULT_GRID:
        for bundle in TWO_STEP_BUNDLES.values():
            harness._tables(AlgebraParams(n, p), 2, bundle)  # warm: no build
            with monkeypatch.context() as m:
                for module in (harness, structure):
                    m.setattr(module, "_transpose", counting)
                run_suite("S3", AlgebraParams(n, p), R=2, ops=bundle)
    assert calls == []


def _count_leq_calls(monkeypatch):
    calls = []
    real = core.ap_leq

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(core, "ap_leq", counting)
    return calls


@pytest.mark.parametrize("bundle, line", [
    (REFERENCE, "pass checks=157464"),
    (MUTATIONS["mul-case2-sign"], "fail checks=47967 counterexample "
     "a=((0,0),1) b=((2,-2),1) c=((3,-1),0)"),
])
def test_exhaustive_s1_reads_the_order_from_bit_rows(monkeypatch, bundle, line):
    params = AlgebraParams(3, 3)
    N = len(Window(params, 2))
    harness._tables.cache_clear()
    calls = _count_leq_calls(monkeypatch)
    report = run_suite("S1", params, R=2, ops=bundle)
    assert report.text_line() == "S1 residuation n=3 p=3 R=2 " + line
    # the masks of the ids, on cold tables; not 2 per triple
    assert len(calls) <= 4 * N * N


def test_sampled_order_suites_read_the_order_from_bit_rows(monkeypatch):
    harness._tables(P23, 4, REFERENCE)
    calls = _count_leq_calls(monkeypatch)
    for sid in ("S1", "S3", "S4", "S5", "S15"):
        report = run_suite(sid, P23, R=4, sample=50, seed=1)
        assert report.verdict == "pass"
    assert calls == []


# Sampled draws are made once per window and shared by every suite.

def _randrange_draws(seed, arity, N, sample):
    """The draws as randrange makes them, one index at a time."""
    rng = random.Random(f"{seed}:{arity}")
    return tuple(tuple(rng.randrange(N) for _ in range(arity)) for _ in range(sample))


# N = 1 and the powers of two are where an off-by-one in the shift or the
# rejection would show.
@pytest.mark.parametrize("N", [1, 2, 3, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 256, 257,
                               654, 2**16 + 1])
def test_block_draws_are_the_randrange_draws(N):
    for seed, arity, sample in itertools.product((0, 9, 11), (1, 2, 3), (1, 7, 2000)):
        want = _randrange_draws(seed, arity, N, sample)
        assert harness._draws.__wrapped__(seed, arity, N, sample) == want


def test_sampled_indices_are_the_seeded_draws():
    N = len(Window(P23, 4))
    ctx = harness._Ctx(Window(P23, 4),
                       harness._tables(P23, 4, REFERENCE), 300, 9)
    for arity in (2, 3):
        assert tuple(ctx.indices(arity)) == _randrange_draws(9, arity, N, 300)


def test_a_sampled_window_draws_each_arity_once():
    harness._draws.cache_clear()
    reports = run_grid(grid=[(2, 3)], R=4, sample=50, seed=3)
    assert all(r.verdict == "pass" for r in reports)
    assert harness._draws.cache_info().misses == 2


def test_sampled_draws_are_timed_as_a_build(monkeypatch):
    harness._tables(P23, 4, REFERENCE)
    harness._draws.cache_clear()
    entry = SUITES["S1"]
    seen = []

    def runner(ctx):
        seen.append(harness._draws.cache_info().misses)
        return entry.runner(ctx)

    monkeypatch.setitem(SUITES, "S1", with_fields(entry, runner=runner))
    run_suite("S1", P23, R=4, sample=40, seed=2)  # cold: drawn before the checks
    assert seen == [2]
    run_suite("S1", P23, R=4, sample=40, seed=2)  # warm: nothing drawn
    assert seen == [2, 2] and harness._draws.cache_info().misses == 2


def test_the_budget_gates_the_draws_before_they_are_made(monkeypatch):
    # S6's checks are about 2N whatever the sample; its draws are 5*sample
    N = len(Window(P23, 4))
    assert SUITES["S6"].cost(N, lambda k: 1000) < 4999

    def unreachable(*args):
        pytest.fail("built or drew past the budget")

    with monkeypatch.context() as m:
        m.setattr(harness, "_draws", unreachable)
        m.setattr(harness, "_tables", unreachable)
        with pytest.raises(BudgetError, match="S6 draws at n=2 p=3 R=4 needs about 5000"):
            run_suite("S6", P23, R=4, sample=1000, budget=4999)
    for budget, force in ((5000, False), (1, True)):
        report = run_suite("S6", P23, R=4, sample=1000, budget=budget, force=force)
        assert report.verdict == "pass" and report.estimate == 2 * N


def _counting_mul(bundle):
    """A copy of bundle whose mul counts its calls, guarded ones included."""
    counted, calls = copy.copy(bundle), []

    def mul(a, b):
        calls.append(1)
        return bundle.mul(a, b)

    counted.mul = mul
    return counted, calls


def test_sampled_s2_multiplies_only_the_drawn_triples():
    for name, R in (("reference", 4), ("invalid-past-r2", 4), ("invalid-past-r2", 8)):
        bundle, calls = _counting_mul(TWO_STEP_BUNDLES[name])
        t = harness._tables(P23, R, bundle)
        calls.clear()
        report = run_suite("S2", P23, R=R, ops=bundle, sample=200, seed=4)
        assert (report.verdict, report.checks_run) == (
            ("pass", 400) if name == "reference" else ("fail", 1))
        # a first step with id N or more is past the window or invalid;
        # only those are multiplied, the others read the product table
        triples = harness._draws(4, 3, t.N, 200)[:min(report.checks_run, 200)]
        want = sum((t.mul_id[i][j] >= t.N) + (t.mul_id[j][k] >= t.N)
                   for i, j, k in triples)
        assert len(calls) == want
        assert 0 < want < 2 * 200


def _counting_oracle(monkeypatch):
    """Count closed_form_div's calls from the suites."""
    calls, real = [], harness.closed_form_div

    def oracle(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(harness, "closed_form_div", oracle)
    return calls


def test_sampled_s14_checks_each_distinct_drawn_pair_once(monkeypatch):
    calls = _counting_oracle(monkeypatch)
    reports = run_grid(suites=["S14"], R=4, sample=2000, seed=0)
    assert [r.verdict for r in reports] == ["pass"] * len(DEFAULT_GRID)
    assert sum(r.checks_run for r in reports) == 18000
    distinct = sum(len(set(harness._draws(0, 2, len(Window(AlgebraParams(n, p), 4)), 2000)))
                   for n, p in DEFAULT_GRID)
    assert len(calls) == distinct == 10200


def test_sampled_s14_reports_the_first_draw_of_a_repeated_failing_pair(monkeypatch):
    R, sample, seed = 4, 2000, 0
    w = Window(P23, R)
    pairs = harness._draws(seed, 2, len(w), sample)
    first = {}
    for at, pair in enumerate(pairs):
        first.setdefault(pair, at)
    # the first pair drawn twice whose first draw comes after another
    # pair's second draw
    passed_twice = next(at for at, pair in enumerate(pairs) if first[pair] < at)
    f = next(at for at, pair in enumerate(pairs[:-1])
             if at > passed_twice and first[pair] == at and pair in pairs[at + 1:])
    i, j = pairs[f]
    bad, real = (w.elements()[i], w.elements()[j]), harness.closed_form_div
    monkeypatch.setattr(harness, "closed_form_div",
                        lambda a, b: None if (a, b) == bad else real(a, b))
    report = run_suite("S14", P23, R, sample=sample, seed=seed)
    assert report.checks_run == f + 1
    assert report.first_counterexample == tuple(harness._ce(a=bad[0], b=bad[1]))
    ctx = harness._Ctx(w, harness._tables(P23, R, REFERENCE), sample, seed)
    assert (report.checks_run, list(report.first_counterexample), report.details) \
        == _plain_s14(ctx)


# Warm, S10's radical routes and S11's FOmega scan read the REFERENCE
# tables: computed from core, one sampled grid built 17,297 and 11,034
# elements.
@pytest.mark.parametrize("sid, bound", [("S10", 7000), ("S11", 8500)])
def test_sampled_s10_and_s11_build_few_elements(monkeypatch, sid, bound):
    run_grid(suites=[sid], R=4, sample=2000, seed=11)
    made, real = [], core._mk
    monkeypatch.setattr(core, "_mk", lambda *args: made.append(1) or real(*args))
    reports = run_grid(suites=[sid], R=4, sample=2000, seed=11)
    assert [r.verdict for r in reports] == ["pass"] * len(DEFAULT_GRID)
    assert 0 < len(made) <= bound


def test_s16_chains_in_the_window_make_no_core_call(monkeypatch):
    # REFERENCE's own operations, counted; the chains S16's equations
    # walk, checked one by one
    calls, chains = [], {"in": 0, "out": 0}
    for name, real in (("mul", core.ap_mul), ("inv", core.ap_inv), ("div", core.ap_div)):
        monkeypatch.setattr(REFERENCE, name,
                            lambda *args, real=real: calls.append(1) or real(*args))
    for step in ("power", "multiple"):
        real = getattr(structure._Tables, step)

        def spy(t, x, y, real=real, step=step):
            a, k = (x, y) if step == "power" else (y, x)
            before = len(calls)
            out = real(t, x, y)
            made = len(calls) - before
            if a in t.idx and not _chain_exits(t, REFERENCE, a, k, step):
                assert made == 0, (step, a, k)
                chains["in"] += 1
            else:
                chains["out"] += 1
            return out

        monkeypatch.setattr(structure._Tables, step, spy)
    for n, p in DEFAULT_GRID:
        assert run_suite("S16", AlgebraParams(n, p), 2).verdict == "pass"
    assert chains["in"] > 0 and chains["out"] > 0 and calls


def test_transpose_and_low_bit():
    rows = [0b011, 0b110, 0b000, 0b101]
    assert harness._transpose(rows, 3) == [0b1001, 0b0011, 0b1010]
    assert harness._transpose([], 2) == [0, 0]
    assert harness._low(0b10100) == 2


def test_invalid_past_r2_bundle_marks_its_invalid_products():
    bundle = TWO_STEP_BUNDLES["invalid-past-r2"]
    a, b = el("((1,3),3)"), el("((1,0),3)")
    assert bundle.mul(a, b) is harness._INVALID
    assert bundle.mul(b, a) is harness._INVALID
    assert bundle.mul(b, b) == core.ap_mul(b, b)
