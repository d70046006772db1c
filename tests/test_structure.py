"""Windows, filters, quotients, closure, and the order diagram."""

import itertools

import pytest
from hypothesis import given, strategies as st

from resilat import core
from resilat.core import AlgebraParams, LexPair, ParamsMismatchError
from resilat.structure import (
    FILTER_IDS,
    SUBALGEBRA_IDS,
    Window,
    boolean_elements,
    classify_generated_filter,
    closure,
    congruent,
    cover_edges,
    filter_member,
    generated_filter,
    hat_size,
    max_nonradical,
    power_threshold_check,
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
    assert all(w.index(a) == i for i, a in enumerate(elems))
    assert el("((1,-1),2)") in w
    assert el("((1,-2),2)") not in w
    assert "top" not in w
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
        w = Window(params, 0)
        assert core.ap_bot(params) in w
        assert core.ap_top(params) in w
        assert core.ap_validate(LexPair(0, 0), params.p, params) in w
        assert max_nonradical(params) in w


@given(st.sampled_from(GRID), st.integers(0, 2))
def test_windows_close_under_meet_and_join(params, radius):
    w = Window(params, radius)
    elems = w.elements()
    for a, b in itertools.product(elems[:8], elems[-8:]):
        assert core.ap_meet(a, b) in w
        assert core.ap_join(a, b) in w


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


def test_max_nonradical_bends_at_p1():
    assert max_nonradical(P23) == el("((1,0),2)")
    assert max_nonradical(AlgebraParams(3, 2)) == core.ap_validate(
        LexPair(2, 0), 1, AlgebraParams(3, 2)
    )
    # at p = 1 level 0 is reversed, so its top pair (0,0) takes over
    for n in (1, 2, 3):
        params = AlgebraParams(n, 1)
        assert max_nonradical(params) == core.ap_validate(LexPair(0, 0), 0, params)


def test_power_threshold_frozen_23():
    assert power_threshold_check(P23) == {
        "k_threshold": 3,
        "part_a_holds": True,
        "part_b_holds": True,
        "max_nonradical": "((1,0),2)",
        "max_matches_literal": True,
        "max_powers": ["((1,0),2)", "((0,0),1)", "((2,0),0)"],
        "literal_powers": ["((1,0),2)", "((0,0),1)", "((2,0),0)"],
        "cyclic": True,
    }


def test_power_threshold_frozen_32():
    report = power_threshold_check(AlgebraParams(3, 2))
    assert report["k_threshold"] == 4
    assert report["max_nonradical"] == "((2,0),1)"
    assert report["max_powers"] == [
        "((2,0),1)", "((1,0),0)", "((2,0),0)", "((3,0),0)"
    ]
    assert report["cyclic"] is None  # the spiral shortcut needs n < p


def test_power_threshold_grid():
    for params in GRID:
        report = power_threshold_check(params)
        assert report["part_a_holds"] and report["part_b_holds"]
        assert report["k_threshold"] == max(params.n + 1, params.p)
        if params.p >= 2:
            assert report["max_matches_literal"]
        if params.n < params.p:
            assert report["cyclic"] is True


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
    with pytest.raises(ParamsMismatchError):
        closure([core.ap_top(P23), other])


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
