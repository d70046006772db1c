"""Suite registry, budgets, determinism, dual-route oracles, mutations."""

import dataclasses
import itertools
import json

import pytest

from resilat import core, harness, structure
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

P23 = AlgebraParams(2, 3)
P11 = AlgebraParams(1, 1)


def el(text, params=P23):
    return core.parse_element(text, params)


def stripped(report):
    return dataclasses.replace(report, elapsed=0.0, tables_s=0.0)


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
    for params in (P23, AlgebraParams(3, 2)):
        elems = Window(params, 2).elements()
        for a, b in itertools.product(elems, elems):
            assert closed_form_div(a, b) == core.ap_div(a, b)


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
# S2 and S13 read interned second-step rows and window tables.  These
# plain versions make every guarded call instead, as the suites once did;
# the two must agree on every report field but the timings.

def _plain_s2(ctx):
    ops, elems, mul_t = ctx.ops, ctx.elems, ctx.t.mul
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


def _plain_s13(ctx):
    ops, p = ctx.ops, ctx.params.p
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
}


def _assert_suites_match_plain(name, R, sample, suites,
                               points=((1, 1), (2, 3), (3, 2))):
    bundle = TWO_STEP_BUNDLES[name]
    for n, p in points:
        params = AlgebraParams(n, p)
        ctx = harness._Ctx(Window(params, R), bundle,
                           harness._tables(params, R, bundle), sample, 5)
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
    _assert_suites_match_plain(name, R, sample, (("S2", _plain_s2), ("S13", _plain_s13)))


# S1, S3, S4, S5 and S15 read the order of interned values as bit rows.
# These plain versions compare every triple or pair with the guarded
# order, as the suites once did, and must agree with them on every report
# field but the timings.

def _plain_s1(ctx):
    t, elems = ctx.t, ctx.elems
    checks = 0
    for i, j, k in ctx.indices(3):
        checks += 1
        if harness._leq(t.mul[i][j], elems[k]) != harness._leq(elems[j], t.div[i][k]):
            return checks, harness._ce(a=elems[i], b=elems[j], c=elems[k]), {}
    return checks, None, {}


def _plain_s3(ctx):
    t, elems = ctx.t, ctx.elems
    mul_t, div_t = t.mul, t.div
    checks = 0
    for i, j, k in ctx.indices(3):
        checks += 1
        if not harness._leq(elems[j], elems[k]):
            continue
        if not harness._leq(mul_t[i][j], mul_t[i][k]):
            return checks, harness._ce(a=elems[i], b=elems[j], c=elems[k]), {}
        if not harness._leq(div_t[i][j], div_t[i][k]):
            return checks, harness._ce(a=elems[i], b=elems[j], c=elems[k]), {}
        if not harness._leq(div_t[k][i], div_t[j][i]):
            return checks, harness._ce(a=elems[i], b=elems[j], c=elems[k]), {}
    return checks, None, {"implications": "mul and div monotone, div antitone left"}


def _plain_s4(ctx):
    t, elems, ops = ctx.t, ctx.elems, ctx.ops
    checks = 0
    for i in range(ctx.N):
        checks += 1
        if not harness._eq(ops.inv(t.inv[i]), elems[i]):
            return checks, harness._ce(a=elems[i]), {}
        checks += 1
        if not harness._eq(t.inv[i], t.div[i][t.bot_i]):
            return checks, harness._ce(a=elems[i]), {}
    for i, j in ctx.indices(2):
        checks += 1
        if harness._leq(elems[i], elems[j]) != harness._leq(t.inv[j], t.inv[i]):
            return checks, harness._ce(a=elems[i], b=elems[j]), {}
    return checks, None, {}


def _plain_s5(ctx):
    t, elems = ctx.t, ctx.elems
    bot = core.ap_bot(ctx.params)
    checks = 0
    for i, j in ctx.indices(2):
        checks += 1
        if harness._eq(t.mul[i][j], bot) != harness._leq(elems[i], t.inv[j]):
            return checks, harness._ce(a=elems[i], b=elems[j]), {}
    return checks, None, {}


def _plain_s15(ctx):
    t, elems = ctx.t, ctx.elems
    checks = 0
    for i, k in ctx.indices(2):
        checks += 1
        if t.div[i][k] is harness._INVALID:
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
    _assert_suites_match_plain(name, R, sample, _ORDER_SUITES)


@pytest.mark.parametrize("name", ["reference", "mul-case2-sign"])
def test_order_suites_match_plain_past_256_ids(name):
    # (4,4) at R=4 has 294 ids, too many for one byte each
    tables = harness._tables(AlgebraParams(4, 4), 4, TWO_STEP_BUNDLES[name])
    assert len(tables.ge) > 256 and isinstance(tables.mul_id[0], list)
    _assert_suites_match_plain(name, 4, 200, _ORDER_SUITES, points=((4, 4),))


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
