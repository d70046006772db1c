"""Core operations: frozen hand-computed values plus law-level properties."""

import pytest
from hypothesis import given, strategies as st

from resilat import core
from resilat.core import (
    AlgebraParams,
    LexPair,
    ParamsMismatchError,
    UniverseError,
)
from resilat.structure import Window

P23 = AlgebraParams(2, 3)
GRID = [AlgebraParams(n, p) for n in (1, 2, 3) for p in (1, 2, 3)]


def el(text, params=P23):
    return core.parse_element(text, params)


@st.composite
def window_elements(draw, count=1, radius=2):
    params = draw(st.sampled_from(GRID))
    pool = Window(params, radius).elements()
    return tuple(draw(st.sampled_from(pool)) for _ in range(count))


# ---------------------------------------------------------------------------
# Chain layers.

def test_omega_chain_ops():
    assert core.omega_star((1, 0), (1, 0), 2) == (0, 0)
    assert core.omega_star((0, 3), (0, -5), 2) == (0, 0)  # clamped at (0,0)
    assert core.omega_arrow((1, 0), (0, 3), 2) == (1, 3)
    assert core.omega_arrow((0, 0), (2, 0), 2) == (2, 0)  # clamped at (n,0)
    assert core.omega_neg((0, 3), 2) == (2, -3)
    assert core.omega_neg(core.omega_neg((1, -4), 2), 2) == (1, -4)
    # the clamps are lex min and max, never componentwise
    assert core.omega_arrow((1, 0), (0, 5), 2) == (1, 5)
    assert core.omega_star((2, 5), (1, -9), 2) == (1, -4)


def test_fin_chain_ops():
    assert core.fin_star(2, 2, 3) == 1
    assert core.fin_star(1, 1, 3) == 0
    assert core.fin_arrow(2, 1, 3) == 2
    assert core.fin_arrow(0, 0, 3) == 3
    assert core.fin_neg(1, 3) == 2


# ---------------------------------------------------------------------------
# Elements and validation.

def test_bot_top():
    assert core.ap_bot(P23) == el("((2,0),0)")
    assert core.ap_top(P23) == el("((2,0),3)")


def test_validate_accepts_the_universe_shape():
    core.ap_validate(LexPair(2, -9), 0, P23)   # full chain on level 0
    core.ap_validate(LexPair(0, 9), 3, P23)
    core.ap_validate(LexPair(0, 5), 1, P23)    # middle levels stop at (n-1,0)
    core.ap_validate(LexPair(1, -5), 2, P23)


@pytest.mark.parametrize(
    "pair,alpha",
    [
        ((3, 0), 1),    # m past the middle cap
        ((2, 0), 1),    # (2,0) exceeds (1,0) on a middle level
        ((1, 1), 4),    # level out of range
        ((0, -1), 0),   # below (0,0)
        ((2, 1), 0),    # above (n,0)
        ((-1, 5), 2),
    ],
)
def test_validate_rejects(pair, alpha):
    with pytest.raises(UniverseError):
        core.ap_validate(LexPair(*pair), alpha, P23)


def test_validate_messages():
    with pytest.raises(UniverseError, match=r"^level 4 outside \[0,3\]$"):
        core.ap_validate(LexPair(1, 1), 4, P23)
    with pytest.raises(UniverseError, match=r"^pair \(0,-1\) below \(0,0\)$"):
        core.ap_validate(LexPair(0, -1), 0, P23)
    with pytest.raises(
        UniverseError, match=r"^pair \(2,0\) above \(1,0\), the cap for level 1$"
    ):
        core.ap_validate(LexPair(2, 0), 1, P23)


def test_params_mismatch():
    a = core.ap_top(P23)
    b = core.ap_top(AlgebraParams(3, 3))
    with pytest.raises(ParamsMismatchError):
        core.ap_mul(a, b)
    with pytest.raises(ParamsMismatchError):
        core.ap_leq(a, b)


def test_literal_round_trip():
    for text in ["((1,0),2)", "((1,-4),3)", "((2,-1),0)"]:
        assert core.render_element(el(text)) == text
    assert el(" (( 1 , 0 ) , 2 ) ") == el("((1,0),2)")
    assert el("bot") == core.ap_bot(P23)
    assert el("top") == core.ap_top(P23)
    with pytest.raises(ValueError):
        el("(1,0),2")
    with pytest.raises(UniverseError):
        el("((3,0),1)")


# ---------------------------------------------------------------------------
# Order and lattice, the level-0 reversal included.

def test_order_cases():
    assert core.ap_leq(el("((1,0),0)"), el("((0,0),0)"))       # reversed below
    assert not core.ap_leq(el("((0,0),0)"), el("((1,0),0)"))
    assert core.ap_leq(el("((0,0),1)"), el("((1,0),1)"))
    assert not core.ap_leq(el("((1,0),2)"), el("((1,0),1)"))
    assert core.ap_leq(el("((1,0),0)"), el("((0,0),1)"))       # sum reaches (1,0)
    assert not core.ap_leq(el("((0,0),0)"), el("((0,0),1)"))
    assert not core.ap_leq(el("((0,0),1)"), el("((0,0),0)"))   # incomparable pair


def test_join_meet_frozen():
    assert core.ap_join(el("((0,0),1)"), el("((0,1),0)")) == el("((1,-1),1)")
    assert core.ap_meet(el("((0,0),1)"), el("((0,1),0)")) == el("((1,0),0)")
    assert core.ap_join(el("((1,0),0)"), el("((0,3),0)")) == el("((0,3),0)")
    assert core.ap_meet(el("((1,0),0)"), el("((0,3),0)")) == el("((1,0),0)")
    p32 = AlgebraParams(3, 2)
    a = core.ap_validate(LexPair(1, -2), 1, p32)
    b = core.ap_validate(LexPair(1, 3), 1, p32)
    assert core.ap_join(a, b) == core.ap_validate(LexPair(1, 3), 1, p32)


# ---------------------------------------------------------------------------
# Product, involution, residual: one frozen value per case.

def test_mul_level_product_nonzero():
    assert core.ap_mul(el("((1,0),2)"), el("((1,0),2)")) == el("((0,0),1)")
    assert core.ap_mul(el("((1,-1),3)"), el("((2,-2),3)")) == el("((1,-3),3)")


def test_mul_level_product_collapses():
    assert core.ap_mul(el("((0,0),1)"), el("((0,0),2)")) == el("((2,0),0)")
    assert core.ap_mul(el("((1,-1),1)"), el("((0,0),2)")) == el("((2,0),0)")


def test_mul_mixed_levels():
    assert core.ap_mul(el("((1,0),2)"), el("((0,3),0)")) == el("((1,3),0)")
    assert core.ap_mul(el("((0,3),0)"), el("((1,0),2)")) == el("((1,3),0)")


def test_mul_both_level_zero():
    assert core.ap_mul(el("((0,1),0)"), el("((0,2),0)")) == el("((1,3),0)")
    assert core.ap_mul(el("((1,1),0)"), el("((0,2),0)")) == el("((2,0),0)")


def test_inv_frozen():
    assert core.ap_inv(el("((1,0),2)")) == el("((0,0),1)")
    assert core.ap_inv(el("((0,1),1)")) == el("((1,-1),2)")
    assert core.ap_inv(el("((0,4),0)")) == el("((0,4),3)")
    assert core.ap_inv(core.ap_bot(P23)) == core.ap_top(P23)


def test_div_and_neg():
    a = el("((1,0),2)")
    assert core.ap_div(a, core.ap_bot(P23)) == el("((0,0),1)")
    assert core.ap_neg(a) == core.ap_inv(a)
    assert core.ap_div(a, a) == core.ap_top(P23)


def test_powers_and_multiples():
    a = el("((1,0),2)")
    assert core.ap_pow(a, 0) == core.ap_top(P23)
    assert core.ap_pow(a, 2) == el("((0,0),1)")
    assert core.ap_pow(a, 3) == el("((2,0),0)")
    assert core.ap_mult(0, a) == core.ap_bot(P23)
    x = el("((0,0),0)")
    assert core.ap_mult(3, x) == x  # absorbing under the dual sum
    with pytest.raises(ValueError):
        core.ap_pow(a, -1)
    with pytest.raises(ValueError):
        core.ap_mult(-2, a)


def test_boolean_term_frozen():
    assert core.boolean_term(el("((1,0),2)")) == core.ap_bot(P23)
    assert core.boolean_term(el("((0,2),3)")) == core.ap_top(P23)
    assert core.boolean_term(core.ap_top(P23)) == core.ap_top(P23)
    assert core.boolean_term(core.ap_bot(P23)) == core.ap_bot(P23)


# ---------------------------------------------------------------------------
# Law-level properties across the parameter grid.

@given(window_elements())
def test_involution_is_involutive(args):
    (a,) = args
    assert core.ap_inv(core.ap_inv(a)) == a


@given(window_elements(count=2))
def test_involution_reverses_order(args):
    a, b = args
    assert core.ap_leq(a, b) == core.ap_leq(core.ap_inv(b), core.ap_inv(a))


@given(window_elements(count=2))
def test_de_morgan(args):
    a, b = args
    assert core.ap_inv(core.ap_join(a, b)) == core.ap_meet(core.ap_inv(a), core.ap_inv(b))


@given(window_elements(count=2))
def test_antisymmetry(args):
    a, b = args
    if core.ap_leq(a, b) and core.ap_leq(b, a):
        assert a == b


@given(window_elements(count=3))
def test_residuation(args):
    a, b, c = args
    assert core.ap_leq(core.ap_mul(a, b), c) == core.ap_leq(b, core.ap_div(a, c))


@given(window_elements(count=3))
def test_meet_is_glb(args):
    a, b, c = args
    m = core.ap_meet(a, b)
    assert core.ap_leq(m, a) and core.ap_leq(m, b)
    if core.ap_leq(c, a) and core.ap_leq(c, b):
        assert core.ap_leq(c, m)


@given(window_elements(count=2))
def test_mul_commutes(args):
    a, b = args
    assert core.ap_mul(a, b) == core.ap_mul(b, a)


@given(window_elements(), st.integers(0, 4), st.integers(0, 4))
def test_power_adds(args, j, k):
    (a,) = args
    assert core.ap_pow(a, j + k) == core.ap_mul(core.ap_pow(a, j), core.ap_pow(a, k))


@given(window_elements(count=2))
def test_oplus_is_dual_product(args):
    a, b = args
    assert core.ap_oplus(a, b) == core.ap_oplus(b, a)
    assert core.ap_inv(core.ap_oplus(a, b)) == core.ap_mul(core.ap_inv(a), core.ap_inv(b))


@given(window_elements())
def test_unit_and_absorption(args):
    (a,) = args
    params = a.params
    assert core.ap_mul(a, core.ap_top(params)) == a
    assert core.ap_mul(a, core.ap_bot(params)) == core.ap_bot(params)
