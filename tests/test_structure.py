"""Windows, filters, quotients, closure, and the order diagram."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from resilat import core, structure
from resilat.core import REFERENCE, AlgebraParams, LexPair, OpsBundle, ParamsMismatchError
from resilat.harness import run_suite
from resilat.structure import (
    FILTER_IDS,
    SUBALGEBRA_IDS,
    Window,
    _tables,
    boolean_elements,
    classify_generated_filter,
    closure,
    congruent,
    cover_edges,
    filter_member,
    generated_filter,
    hat_size,
    max_nonradical,
    quotient_classes,
    quotient_induced_mul_report,
    rad_quotient_report,
    radical_member_via_powers,
    radical_member_via_term,
    subalg_member,
)

P23 = AlgebraParams(2, 3)
GRID = [AlgebraParams(n, p) for n in (1, 2, 3) for p in (1, 2, 3)]


def el(text, params=P23):
    return core.parse_element(text, params)


# ---------------------------------------------------------------------------
# Windows.

# counts follow from the band widths: ends get n+1 pair slots, middles n
WINDOW_SIZES_R2 = {
    (1, 1): 12, (1, 2): 13, (1, 3): 14,
    (2, 1): 22, (2, 2): 28, (2, 3): 34,
    (3, 1): 32, (3, 2): 43, (3, 3): 54,
}


def test_window_sizes_frozen():
    for (n, p), size in WINDOW_SIZES_R2.items():
        assert len(Window(AlgebraParams(n, p), 2)) == size
    assert len(Window(P23, 1)) == 22
    assert len(Window(AlgebraParams(1, 1), 0)) == 4
    # the closed form counts what the window enumerates
    for params in GRID:
        for R in range(6):
            assert len(Window(params, R)) == len(Window(params, R).elements()), (params, R)


def test_window_enumeration_order_frozen():
    w = Window(AlgebraParams(1, 1), 0)
    assert [repr(a) for a in w.elements()] == [
        "((0,0),0)", "((1,0),0)", "((0,0),1)", "((1,0),1)",
    ]


def test_window_interface():
    w = Window(P23, 1)
    elems = w.elements()
    assert Window(P23, 1).elements() == elems
    assert len(elems) == len(w)
    assert all(elems.index(a) == i for i, a in enumerate(elems))
    assert el("((1,-1),2)") in elems
    assert el("((1,-2),2)") not in elems
    assert "top" not in elems
    with pytest.raises(ValueError):
        Window(P23, -1)


@given(st.sampled_from(GRID), st.integers(0, 3))
def test_window_is_valid_and_duplicate_free(params, radius):
    elems = Window(params, radius).elements()
    assert len(set(elems)) == len(elems)
    for a in elems:
        assert core.ap_validate(a.first, a.second, params) == a
        assert -radius <= a.r <= radius


def test_window_holds_the_landmark_elements():
    for params in GRID:
        elems = Window(params, 0).elements()
        assert core.ap_bot(params) in elems
        assert core.ap_top(params) in elems
        assert core.ap_validate(LexPair(0, 0), params.p, params) in elems
        assert max_nonradical(params) in elems


@given(st.sampled_from(GRID), st.integers(0, 2))
def test_windows_close_under_meet_and_join(params, radius):
    elems = Window(params, radius).elements()
    for a, b in itertools.product(elems[:8], elems[-8:]):
        assert core.ap_meet(a, b) in elems
        assert core.ap_join(a, b) in elems


# ---------------------------------------------------------------------------
# Filters.

def test_filter_member_frozen():
    top = core.ap_top(P23)
    assert filter_member("Top", top)
    assert not filter_member("Top", el("((2,-1),3)"))
    assert filter_member("FOmega", el("((2,-3),3)"))
    assert not filter_member("FOmega", el("((1,0),3)"))
    assert filter_member("Radical", el("((0,2),3)"))
    assert not filter_member("Radical", el("((1,0),2)"))  # the maximal outsider
    assert filter_member("Improper", core.ap_bot(P23))
    with pytest.raises(ValueError):
        filter_member("Prime", top)


def test_filters_form_a_chain():
    for params in GRID:
        for a in Window(params, 2).elements():
            t, f, r = (filter_member(x, a) for x in ("Top", "FOmega", "Radical"))
            assert (not t or f) and (not f or r)


def test_radical_routes_agree():
    for params in GRID:
        for a in Window(params, 2).elements():
            direct = filter_member("Radical", a)
            assert radical_member_via_term(a) == direct
            assert radical_member_via_powers(a) == direct


def _powers_from_scratch(a):
    """radical_member_via_powers as each power computed anew: O(K^2)
    products for K = max(n+1,p)+2."""
    top = core.ap_top(a.params)
    for k in range(1, max(a.n + 1, a.p) + 3):
        if core.ap_mult(a.n + 1, core.ap_pow(a, k)) != top:
            return False
    return True


def _random_wide_element(rng):
    """A valid element of A(n,p) with 1 <= n, p <= 20 and |r| <= 10^15;
    the levels, pairs and offsets favour their ends."""
    params = AlgebraParams(rng.randint(1, 20), rng.randint(1, 20))
    alpha = rng.choice((0, params.p, rng.randint(0, params.p)))
    cap = params.n if alpha in (0, params.p) else params.n - 1
    m = rng.choice((0, cap, rng.randint(0, cap)))
    span = 3 if rng.random() < 0.5 else 10**15
    r = rng.randint(0 if m == 0 else -span, 0 if m == cap else span)
    return core.ap_validate(LexPair(m, r), alpha, params)


class _ChainCounted(OpsBundle):
    """A bundle whose products the caller counts, with REFERENCE's
    multiples, so that only the products a chain makes itself count."""

    multiple = staticmethod(core.ap_mult)


def test_radical_powers_chain_matches_powers_from_scratch():
    products = []
    ops = _ChainCounted(lambda a, b: products.append(a) or core.ap_mul(a, b), core.ap_inv)
    rng = random.Random(15)
    elems = [a for params in GRID for R in (2, 4) for a in Window(params, R).elements()]
    elems += [_random_wide_element(rng) for _ in range(2000)]
    for a in elems:
        del products[:]
        assert radical_member_via_powers(a, ops) == _powers_from_scratch(a), a
        assert 1 <= len(products) <= max(a.n + 1, a.p) + 2
    assert {radical_member_via_powers(a) for a in elems} == {False, True}


def _assert_view_routes_are_core_routes(view, a):
    """The radical routes at a, read through the table view, equal core's."""
    assert radical_member_via_term(a, view) == radical_member_via_term(a), a
    assert radical_member_via_powers(a, view) == radical_member_via_powers(a), a


def test_table_view_routes_are_core_routes():
    for params, R in itertools.product(GRID, (2, 4)):
        t = _tables(params, R, REFERENCE)
        for a in t.elems:
            _assert_view_routes_are_core_routes(t, a)
        # the products past the window, where a chain starts on a fallback
        past = {u for row in t.mul_id for u in row if u >= t.N}
        assert past
        for u in sorted(past):
            _assert_view_routes_are_core_routes(t, t.vals[u])
    # wide elements read through a small window's view: under other
    # params every operation falls back to core, and under the window's
    # own a chain may start in the window and leave it
    rng = random.Random(28)
    wide = [_random_wide_element(rng) for _ in range(2000)]
    small = _tables(P23, 1, REFERENCE)
    for a in wide:
        _assert_view_routes_are_core_routes(small, a)
    for params in GRID:
        view = _tables(params, 1, REFERENCE)
        for a in Window(params, 4).elements():
            _assert_view_routes_are_core_routes(view, a)


def test_max_nonradical_bends_at_p1():
    assert max_nonradical(P23) == el("((1,0),2)")
    assert max_nonradical(AlgebraParams(3, 2)) == core.ap_validate(
        LexPair(2, 0), 1, AlgebraParams(3, 2)
    )
    # at p = 1 level 0 is reversed, so its top pair (0,0) takes over
    for n in (1, 2, 3):
        params = AlgebraParams(n, 1)
        assert max_nonradical(params) == core.ap_validate(LexPair(0, 0), 0, params)


# The nilpotency thresholds are S9's details; the (p-1)-th power of the
# maximal non-radical element equals its involution when S8 passes with a
# cyclic_witness, which it records exactly when n < p.

def test_power_threshold_frozen_23():
    report = run_suite("S9", P23)
    assert report.verdict == "pass"  # every threshold part holds
    assert report.details == {
        "k_threshold": 3,
        "max_nonradical": "((1,0),2)",
        "max_matches_literal": True,
        "max_powers": ["((1,0),2)", "((0,0),1)", "((2,0),0)"],
    }
    literal = core.ap_validate(LexPair(1, 0), 2, P23)
    assert [core.render_element(core.ap_pow(literal, k)) for k in (1, 2, 3)] == [
        "((1,0),2)", "((0,0),1)", "((2,0),0)"
    ]
    cyclic = run_suite("S8", P23)
    assert cyclic.verdict == "pass"
    assert cyclic.details["cyclic_witness"] == "((1,0),2)"


def test_power_threshold_frozen_32():
    params = AlgebraParams(3, 2)
    details = run_suite("S9", params).details
    assert details["k_threshold"] == 4
    assert details["max_nonradical"] == "((2,0),1)"
    assert details["max_powers"] == [
        "((2,0),1)", "((1,0),0)", "((2,0),0)", "((3,0),0)"
    ]
    # the spiral shortcut needs n < p
    assert "cyclic_witness" not in run_suite("S8", params).details


def test_power_threshold_grid():
    for params in GRID:
        report = run_suite("S9", params)
        assert report.verdict == "pass"
        assert report.details["k_threshold"] == max(params.n + 1, params.p)
        if params.p >= 2:
            assert report.details["max_matches_literal"]
        if params.n < params.p:
            cyclic = run_suite("S8", params)
            assert cyclic.verdict == "pass" and "cyclic_witness" in cyclic.details


# ---------------------------------------------------------------------------
# Congruences and quotients.

def test_congruent_frozen():
    assert congruent(el("((0,0),1)"), el("((1,0),1)"), "Radical")
    assert not congruent(el("((0,0),0)"), el("((0,0),1)"), "Radical")
    assert congruent(el("((2,-2),3)"), core.ap_top(P23), "FOmega")
    assert not congruent(el("((1,0),3)"), core.ap_top(P23), "FOmega")
    a, b = el("((0,1),1)"), el("((1,-1),2)")
    assert congruent(a, b, "Improper")
    assert not congruent(a, b, "Top")


def test_quotient_class_counts():
    w = Window(P23, 1)
    assert len(quotient_classes(w, "Top")) == len(w)
    assert len(quotient_classes(w, "Improper")) == 1
    assert len(quotient_classes(w, "FOmega")) == 10
    assert len(quotient_classes(w, "Radical")) == 4


def test_hat_size_formula():
    assert hat_size(P23) == 10
    assert hat_size(AlgebraParams(1, 1)) == 4
    for params in GRID:
        assert hat_size(params) == len(Window(params, 0))


def test_fomega_collapse_matches_the_diagonal():
    # classes of the FOmega congruence biject with the r = 0 elements
    for params in GRID:
        w = Window(params, 1)
        assert len(quotient_classes(w, "FOmega")) == hat_size(params)


def test_top_class_of_fomega_quotient():
    w = Window(P23, 1)
    top = core.ap_top(P23)
    (cls,) = [c for c in quotient_classes(w, "FOmega") if top in c]
    assert set(cls) == {el("((2,-1),3)"), el("((2,0),3)")}


def test_induced_product_reports():
    w = Window(P23, 1)
    assert quotient_induced_mul_report(w, "FOmega") == {
        "classes": 10,
        "well_defined": True,
        "unique_r0_transversal": True,
    }
    assert quotient_induced_mul_report(w, "Radical") == {
        "classes": 4,
        "well_defined": True,
        "unique_r0_transversal": False,
    }
    # Top identifies nothing, so products past the window get classes of
    # their own; only the window's are counted
    for params in GRID:
        w = Window(params, 2)
        assert quotient_induced_mul_report(w, "Top") == {
            "classes": len(w),
            "well_defined": True,
            "unique_r0_transversal": False,
        }


def test_rad_quotient_report_is_descriptive():
    report = rad_quotient_report(P23)
    assert report["classes"] == 4
    assert not report["equals_p"]
    assert report["equals_p_plus_1"]
    assert set(report) == {"classes", "equals_p", "equals_p_plus_1"}


# ---------------------------------------------------------------------------
# Generated filters.

def test_generated_filter_shapes():
    w = Window(P23, 2)
    top = core.ap_top(P23)
    assert generated_filter(top, w) == (top,)
    fom = generated_filter(el("((2,-1),3)"), w)
    assert set(fom) == {a for a in w.elements() if filter_member("FOmega", a)}
    assert generated_filter(core.ap_bot(P23), w) == w.elements()


def test_classified_generator_census():
    w = Window(P23, 2)
    tallies = {fid: 0 for fid in FILTER_IDS}
    for a in w.elements():
        tallies[classify_generated_filter(a, w)] += 1
    assert tallies == {"Top": 1, "FOmega": 2, "Radical": 8, "Improper": 23}


def test_classification_prediction_across_the_grid():
    for params in GRID:
        w = Window(params, 2)
        for a in w.elements():
            if a == core.ap_top(params):
                expected = "Top"
            elif a.alpha == params.p and a.m == params.n:
                expected = "FOmega"
            elif a.alpha == params.p:
                expected = "Radical"
            else:
                expected = "Improper"
            assert classify_generated_filter(a, w) == expected


# ---------------------------------------------------------------------------
# Subalgebras and closure.

def test_subalg_member_frozen():
    assert subalg_member("HatLnp", el("((1,0),2)"))
    assert not subalg_member("HatLnp", el("((0,1),2)"))
    assert subalg_member("HatLn2", el("((1,0),0)"))
    assert not subalg_member("HatLn2", el("((1,0),2)"))
    assert subalg_member("L2", core.ap_bot(P23))
    assert not subalg_member("L2", el("((1,0),0)"))
    assert subalg_member("ChangL2w", el("((2,-4),3)"))
    assert not subalg_member("ChangL2w", el("((1,0),3)"))
    assert subalg_member("A2", el("((0,7),0)"))
    assert not subalg_member("A2", el("((1,-1),2)"))


def test_subalg_q_families():
    for a in Window(P23, 2).elements():
        assert subalg_member("HatLq", a, q=3) == subalg_member("HatLnp", a)
        assert subalg_member("HatLq", a, q=1) == subalg_member("HatLn2", a)
        assert subalg_member("Aq", a, q=1) == subalg_member("A2", a)
    p22 = AlgebraParams(2, 2)
    mid = core.ap_validate(LexPair(0, 0), 1, p22)
    assert not subalg_member("Aq", mid, q=1)
    assert subalg_member("Aq", mid, q=2)


def test_subalg_validation():
    a = core.ap_top(P23)
    with pytest.raises(ValueError):
        subalg_member("Aq", a)           # q missing
    with pytest.raises(ValueError):
        subalg_member("HatLq", a, q=2)   # 2 does not divide 3
    with pytest.raises(ValueError):
        subalg_member("Aq", a, q=0)
    with pytest.raises(ValueError):
        subalg_member("B3", a)
    assert set(SUBALGEBRA_IDS) == {
        "L2", "ChangL2w", "HatLnp", "HatLn2", "A2", "Aq", "HatLq"
    }


def test_closure_of_the_constants_alone():
    result = closure([], params=P23)
    assert result.elements == (core.ap_bot(P23), core.ap_top(P23))
    assert not result.truncated
    assert result.reason is None


def test_closure_of_a_diagonal_generator_is_the_whole_diagonal():
    result = closure([el("((1,0),1)")])
    assert not result.truncated
    assert set(result.elements) == set(Window(P23, 0).elements())
    assert len(result.elements) == hat_size(P23)


def test_closure_truncates_on_an_infinite_subalgebra():
    gen = el("((2,-1),3)")
    result = closure([gen], max_size=200, max_iters=12)
    assert result.truncated
    assert result.reason == "max_size"
    assert len(result.elements) > 200
    assert all(subalg_member("ChangL2w", a) for a in result.elements)


def test_closure_iteration_cap():
    result = closure([el("((2,-1),3)")], max_size=10**6, max_iters=2)
    assert result.truncated
    assert result.reason == "max_iters"
    assert result.iterations == 2


def test_closure_argument_validation():
    with pytest.raises(ValueError):
        closure([])
    other = core.ap_top(AlgebraParams(3, 3))
    with pytest.raises(ParamsMismatchError) as excinfo:
        closure([core.ap_top(P23), other])
    assert str(excinfo.value) == "generator ((3,0),3) has params (3,3), expected (2,3)"


def test_boolean_elements_are_only_the_bounds():
    for params in GRID:
        w = Window(params, 2)
        assert boolean_elements(w) == {core.ap_bot(params), core.ap_top(params)}


# ---------------------------------------------------------------------------
# Cover relation.

def test_cover_edges_of_the_four_chain():
    w = Window(AlgebraParams(1, 1), 0)
    assert cover_edges(w) == ((0, 2), (1, 0), (2, 3))


def test_cover_edges_match_a_brute_force_oracle():
    elems = Window(P23, 1).elements()
    strict = {
        (i, j)
        for i, a in enumerate(elems)
        for j, b in enumerate(elems)
        if i != j and core.ap_leq(a, b)
    }
    expected = {
        (i, j)
        for (i, j) in strict
        if not any((i, k) in strict and (k, j) in strict for k in range(len(elems)))
    }
    assert set(cover_edges(elems)) == expected


# ---------------------------------------------------------------------------
# The filter, quotient and complement scans read the REFERENCE window
# tables.  These plain versions test every pair through core, as the scans
# once did, and must agree with them exactly.

def _plain_quotient_classes(w, f):
    classes = []
    for a in w.elements():
        for cls in classes:
            if congruent(a, cls[0], f):
                cls.append(a)
                break
        else:
            classes.append([a])
    return classes


def _plain_induced_mul_report(w, f):
    classes = _plain_quotient_classes(w, f)
    blocks = [[core.ap_mul(x, y) for x in ci for y in cj]
              for ci in classes for cj in classes]
    reps = [cls[0] for cls in classes]

    def class_index(v):
        for i, rep in enumerate(reps):
            if congruent(v, rep, f):
                return i
        reps.append(v)  # a product past the window starts its own class
        return len(reps) - 1

    distinct = dict.fromkeys(v for block in blocks for v in block)
    class_of = {v: class_index(v) for v in distinct}
    return {
        "classes": len(classes),
        "well_defined": all(len({class_of[v] for v in b}) == 1 for b in blocks),
        "unique_r0_transversal": all(
            sum(1 for x in cls if x.r == 0) == 1 for cls in classes
        ),
    }


def _plain_boolean_elements(w):
    elems = w.elements()
    bot, top = core.ap_bot(w.params), core.ap_top(w.params)
    return {a for a in elems
            if any(core.ap_meet(a, b) == bot and core.ap_join(a, b) == top
                   for b in elems)}


def _plain_max_nonradical(params, radius):
    outside = [a for a in Window(params, radius).elements()
               if not filter_member("Radical", a)]
    for c in outside:
        if all(core.ap_leq(a, c) for a in outside):
            return c
    raise RuntimeError("no maximum among non-radical elements")


def _plain_classify_generated_filter(a, w):
    got = set(generated_filter(a, w))
    for fid in FILTER_IDS:
        if got == {x for x in w.elements() if filter_member(fid, x)}:
            return fid
    raise RuntimeError("matches no candidate")


@pytest.mark.parametrize("params, R", [
    *((params, R) for R in (1, 2, 4) for params in GRID),
    (AlgebraParams(4, 4), 4),  # more than 256 ids: the id rows are lists
])
def test_table_scans_match_plain_core_calls(params, R):
    w = Window(params, R)
    for f in FILTER_IDS:
        assert quotient_classes(w, f) == _plain_quotient_classes(w, f), f
        assert quotient_induced_mul_report(w, f) == _plain_induced_mul_report(w, f), f
    count = len(_plain_quotient_classes(w, "Radical"))
    assert rad_quotient_report(params, R) == {
        "classes": count,
        "equals_p": count == params.p,
        "equals_p_plus_1": count == params.p + 1,
    }
    assert boolean_elements(w) == _plain_boolean_elements(w)
    assert max_nonradical(params, R) == _plain_max_nonradical(params, R)
    for a in w.elements():
        assert (classify_generated_filter(a, w)
                == _plain_classify_generated_filter(a, w)), a


def test_table_scans_cover_more_than_256_ids():
    t = structure._tables(AlgebraParams(4, 4), 4, core.REFERENCE)
    assert len(t.vals) > 256 and isinstance(t.div_id[0], list)


def test_quotient_classes_make_no_core_call_and_build_no_table(monkeypatch):
    # classes are grouped by quotient_key, in closed form: over the grid's
    # four filter quotients on cold windows, no product, no residual and
    # no table
    for R in (1, 2, 4):
        structure._tables.cache_clear()
        with monkeypatch.context() as patch:
            calls = _count_core_calls(patch)
            for params in GRID:
                for f in FILTER_IDS:
                    quotient_classes(Window(params, R), f)
        assert calls["ap_mul"] == calls["ap_div"] == 0, R
        assert structure._tables.cache_info().misses == 0, R


_COUNTED = ("ap_div", "ap_mul", "ap_leq", "ap_meet", "ap_join")


def _count_core_calls(monkeypatch):
    calls = dict.fromkeys(_COUNTED, 0)
    for name in _COUNTED:
        real = getattr(core, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(core, name, counting)
    return calls


def test_structure_scans_make_no_per_pair_core_calls(monkeypatch):
    params = AlgebraParams(3, 3)
    N = len(Window(params, 2))
    for sid in ("S11", "S12"):
        run_suite(sid, params, 2)  # warm the tables
    calls = _count_core_calls(monkeypatch)
    assert run_suite("S11", params, 2).verdict == "pass"
    # the quotients group by key, and their check reads the tables
    assert calls["ap_div"] == calls["ap_mul"] == 0
    # Radical membership is a level test, so the order runs only in one
    # row each for the R = 2 generators whose deep powers leave the
    # window; every other generated filter is an up row (2,916 calls for
    # the N generators before)
    assert calls["ap_leq"] == 2 * N
    calls.update(dict.fromkeys(_COUNTED, 0))
    assert run_suite("S12", params, 2).verdict == "pass"
    assert calls["ap_meet"] == calls["ap_join"] == 0
    assert max_nonradical(params, 2) == core.ap_validate(LexPair(2, 0), 2, params)
    assert calls["ap_leq"] == 0
