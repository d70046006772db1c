"""Core operations: frozen hand-computed values plus law-level properties."""

import ast
import functools
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from resilat import core, harness, structure, terms
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


MAX_R = 10**15


@st.composite
def wide_elements(draw, count=1):
    """Valid elements of one A(n,p) with 1 <= n, p <= 20, far off the
    windows: |r| is either tiny or up to 10^15.

    Levels 0 and p allow pairs up to (n,0), the middle levels only up to
    (n-1,0); at m=0 the offset must be >= 0 and at the cap <= 0.
    """
    params = AlgebraParams(draw(st.integers(1, 20)), draw(st.integers(1, 20)))
    out = []
    for _ in range(count):
        # the boundary levels, where the level-0 cases live, half the time
        alpha = draw(st.one_of(st.sampled_from((0, params.p)), st.integers(0, params.p)))
        cap = params.n if alpha in (0, params.p) else params.n - 1
        m = draw(st.integers(0, cap))
        span = draw(st.sampled_from((3, MAX_R)))
        r = draw(st.integers(0 if m == 0 else -span, 0 if m == cap else span))
        out.append(core.ap_validate(LexPair(m, r), alpha, params))
    return tuple(out)


# ---------------------------------------------------------------------------
# Chain layers, kept in harness as the independent route to ap_mul's cases.

def test_omega_chain_ops():
    assert harness.omega_star((1, 0), (1, 0), 2) == (0, 0)
    assert harness.omega_star((0, 3), (0, -5), 2) == (0, 0)  # clamped at (0,0)
    # the clamp is a lex max, never componentwise
    assert harness.omega_star((2, 5), (1, -9), 2) == (1, -4)


def test_fin_chain_ops():
    assert harness.fin_star(2, 2, 3) == 1
    assert harness.fin_star(1, 1, 3) == 0


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
    # a differing n and a differing p, with either operand first
    a = el("((1,0),2)")
    for other in (AlgebraParams(3, 3), AlgebraParams(2, 4)):
        b = core.ap_validate(LexPair(1, 0), 2, other)
        for op in (core.ap_mul, core.ap_leq, core.ap_join, core.ap_meet, core.ap_div):
            for x, y in ((a, b), (b, a)):
                with pytest.raises(ParamsMismatchError) as info:
                    op(x, y)
                assert str(info.value) == f"mixed parameters ({x.n},{x.p}) vs ({y.n},{y.p})"


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


def test_params_are_shared_per_algebra():
    a, b = el("((1,0),2)"), el("((0,3),0)")
    assert a.params is b.params
    assert a.params == P23
    assert core.ap_top(AlgebraParams(3, 2)).params is core.ap_bot(AlgebraParams(3, 2)).params


def test_reference_raws_raise_on_hand_built_elements():
    # ApElem construction does not validate; the reference product and
    # involution raise where a guarded substitute gives the invalid marker
    outside = core.ApElem(5, 0, 1, 2, 3)
    with pytest.raises(UniverseError):
        core.REFERENCE.inv(outside)
    assert harness.MUTATIONS["mul-case2-const"].inv(outside) is core._INVALID


# An element is an immutable 5-tuple (m, r, alpha, n, p), unordered by
# the Python operators.

def test_element_hashes_like_its_plain_tuple():
    for a in Window(P23, 2).elements():
        assert hash(a) == hash((a.m, a.r, a.alpha, a.n, a.p))
        assert a == (a.m, a.r, a.alpha, a.n, a.p)


def test_set_iteration_order_is_pinned():
    # window indices in the order a set of the window iterates; it follows
    # from the hash, so every output built from sets or dicts keeps it
    elems = Window(P23, 2).elements()
    assert [elems.index(a) for a in set(elems)] == [
        12, 10, 30, 3, 4, 15, 14, 26, 27, 29, 0, 1, 22, 11, 7, 31, 32,
        17, 20, 21, 25, 23, 6, 28, 19, 8, 9, 18, 16, 2, 5, 24, 13, 33,
    ]


def test_elements_are_immutable():
    a = el("((1,0),2)")
    with pytest.raises(AttributeError):
        a.m = 0


@pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
def test_elements_are_unordered_by_python_operators(op):
    a, b = el("((1,0),2)"), el("((0,1),3)")
    with pytest.raises(TypeError):
        eval(f"a {op} b")
    with pytest.raises(TypeError):
        sorted([a, b])


def test_element_equality_includes_the_parameters():
    a = core.ap_validate(LexPair(1, 0), 1, AlgebraParams(2, 2))
    b = core.ap_validate(LexPair(1, 0), 1, AlgebraParams(2, 3))
    assert a != b
    assert core.ApElem(1, 0, 1, 2, 3) != LexPair(1, 0)
    assert core.ApElem(m=1, r=0, alpha=1, n=2, p=3) == b
    assert (b.m, b.r) == LexPair(1, 0) and b.alpha == 1 and repr(b) == "((1,0),1)"


def _new_aliases(trees):
    """The names any of the modules binds to a __new__, as core binds
    _new_tuple = tuple.__new__."""
    return {t.id
            for tree in trees
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Attribute) and node.value.attr == "__new__"
            for t in node.targets if isinstance(t, ast.Name)}


def _constructor_sites(tree, aliases):
    """(function, line) of every place in a module that builds an ApElem:
    a call of ApElem(...) or core.ApElem(...), any __new__ call (as in
    tuple.__new__(ApElem, ...)), a call through one of the aliases of a
    __new__, bare or as a module attribute, or the namedtuple builders
    _make and _replace."""
    builders = {"ApElem", "__new__", "_make", "_replace", *aliases}
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in builders:
                sites.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sites


def test_elements_are_built_only_by_the_validating_constructor():
    # construction skips validation, so _mk stays the one check: only it
    # and the two constants build elements
    src = Path(core.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(src.glob("*.py"))}
    aliases = _new_aliases(trees.values())
    found = {(module, func)
             for module, tree in trees.items()
             for func, _ in _constructor_sites(tree, aliases)}
    assert found == {("core", "_mk"), ("core", "ap_bot"), ("core", "ap_top")}


def test_boolean_term_frozen():
    assert core.boolean_term(el("((1,0),2)")) == core.ap_bot(P23)
    assert core.boolean_term(el("((0,2),3)")) == core.ap_top(P23)
    assert core.boolean_term(core.ap_top(P23)) == core.ap_top(P23)
    assert core.boolean_term(core.ap_bot(P23)) == core.ap_bot(P23)


# ---------------------------------------------------------------------------
# The straight-line operations against their earlier tuple-and-helper
# bodies, kept here as the oracle.

def _oracle_leq(a, b):
    core._same_params(a, b)
    if a.alpha != 0:
        return a.alpha <= b.alpha and (a.m, a.r) <= (b.m, b.r)
    if b.alpha == 0:
        return (b.m, b.r) <= (a.m, a.r)
    return (a.n - 1, 0) <= (a.m + b.m, a.r + b.r)


def _oracle_join(a, b):
    core._same_params(a, b)
    n, p = a.n, a.p
    if a.alpha != 0 and b.alpha != 0:
        pr = max((a.m, a.r), (b.m, b.r))
        return core._mk(pr[0], pr[1], max(a.alpha, b.alpha), n, p)
    if a.alpha == 0 and b.alpha == 0:
        pr = min((a.m, a.r), (b.m, b.r))
        return core._mk(pr[0], pr[1], 0, n, p)
    if a.alpha == 0:
        a, b = b, a
    if (b.m, b.r) >= (n - 1, 0):
        return core._mk(a.m, a.r, a.alpha, n, p)
    pr = max((a.m, a.r), (n - 1 - b.m, -b.r))
    return core._mk(pr[0], pr[1], a.alpha, n, p)


def _oracle_meet(a, b):
    core._same_params(a, b)
    n, p = a.n, a.p
    if a.alpha != 0 and b.alpha != 0:
        pr = min((a.m, a.r), (b.m, b.r))
        return core._mk(pr[0], pr[1], min(a.alpha, b.alpha), n, p)
    if a.alpha == 0 and b.alpha == 0:
        pr = max((a.m, a.r), (b.m, b.r))
        return core._mk(pr[0], pr[1], 0, n, p)
    if a.alpha == 0:
        a, b = b, a
    if (b.m, b.r) >= (n - 1, 0):
        return core._mk(b.m, b.r, 0, n, p)
    pr = max((n - 1 - a.m, -a.r), (b.m, b.r))
    return core._mk(pr[0], pr[1], 0, n, p)


def _omega_arrow(a, b, n):
    """Chain residual min{(n,0), (n-m+k, s-r)}."""
    return min((n, 0), (n - a[0] + b[0], b[1] - a[1]))


def _oracle_mul(a, b):
    core._same_params(a, b)
    n, p = a.n, a.p
    m, r, al = a.m, a.r, a.alpha
    k, s, be = b.m, b.r, b.alpha
    if al != 0 and be != 0:
        g = harness.fin_star(al, be, p)
        if g != 0:
            pr = harness.omega_star((m, r), (k, s), n)
            return core._mk(pr[0], pr[1], g, n, p)
        pr = min((n, 0), (2 * n - (m + k + 1), -(r + s)))
        return core._mk(pr[0], pr[1], 0, n, p)
    if al != 0:
        pr = _omega_arrow((m, r), (k, s), n)
        return core._mk(pr[0], pr[1], 0, n, p)
    if be != 0:
        pr = _omega_arrow((k, s), (m, r), n)
        return core._mk(pr[0], pr[1], 0, n, p)
    pr = min((n, 0), (m + k + 1, r + s))
    return core._mk(pr[0], pr[1], 0, n, p)


def _oracle_inv(a):
    n, p = a.n, a.p
    if a.alpha in (0, p):
        return core._mk(a.m, a.r, p - a.alpha, n, p)
    return core._mk(n - 1 - a.m, -a.r, p - a.alpha, n, p)


def _random_element(rng, params):
    """A valid element of A(n,p); half the offsets within +-3, so that
    sums and differences land on the clamps and caps."""
    alpha = rng.choice((0, params.p, rng.randint(0, params.p)))
    cap = params.n if alpha in (0, params.p) else params.n - 1
    m = rng.choice((0, cap, rng.randint(0, cap)))
    span = 3 if rng.random() < 0.5 else MAX_R
    r = rng.randint(0 if m == 0 else -span, 0 if m == cap else span)
    return core.ap_validate(LexPair(m, r), alpha, params)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def test_straight_line_ops_match_the_tuple_bodies():
    rng = random.Random(11)
    pairs = {
        core.ap_mul: _oracle_mul, core.ap_leq: _oracle_leq,
        core.ap_join: _oracle_join, core.ap_meet: _oracle_meet,
    }
    for _ in range(20_000):
        params = AlgebraParams(rng.randint(1, 20), rng.randint(1, 20))
        a = _random_element(rng, params)
        # one pair in ten mixes the parameters, so the errors are compared too
        other = params if rng.random() < 0.9 else AlgebraParams(
            rng.randint(1, 20), rng.randint(1, 20))
        b = _random_element(rng, other)
        assert _outcome(core.ap_inv, a) == _outcome(_oracle_inv, a)
        for new, old in pairs.items():
            assert _outcome(new, a, b) == _outcome(old, a, b), (new.__name__, a, b)


def _plain_power(ops, a, k):
    out = core.ap_top(a.params)
    for _ in range(k):
        out = ops.mul(a, out)
    return out


def _plain_multiple(ops, k, a):
    out = core.ap_bot(a.params)
    for _ in range(k):
        out = ops.oplus(a, out)
    return out


def test_powers_and_multiples_stop_at_their_fixed_point():
    # the early exit gives the k-step loop's value, the invalid marker too
    invalid = 0
    for ops in (core.REFERENCE, *harness.MUTATIONS.values()):
        for n, p in harness.DEFAULT_GRID:
            for a in Window(AlgebraParams(n, p), 2).elements():
                for k in range(max(n + 1, p) + 3):
                    for got, want in ((ops.power(a, k), _plain_power(ops, a, k)),
                                      (ops.multiple(k, a), _plain_multiple(ops, k, a))):
                        assert (got is core._INVALID) == (want is core._INVALID)
                        assert got is want if want is core._INVALID else got == want, (ops, a, k)
                        invalid += got is core._INVALID
    assert invalid > 0
    # and it does stop: top is idempotent and bot absorbs under the dual sum
    calls = []

    def counted_mul(a, b):
        calls.append(1)
        return core.ap_mul(a, b)

    ops = core.OpsBundle(counted_mul, core.ap_inv, "counted")
    assert ops.power(core.ap_top(P23), 10**6) == core.ap_top(P23)
    assert ops.multiple(10**6, core.ap_bot(P23)) == core.ap_bot(P23)
    assert len(calls) == 2


def test_the_invalid_marker_equals_nothing_and_is_found_by_identity():
    # its type owns the rule, so every == sees it, itself included
    bad, top = core._INVALID, core.ap_top(P23)
    assert (bad == bad) is False and (bad != bad) is True
    assert (bad == top) is False and (top == bad) is False
    assert (bad != top) is True and (top != bad) is True
    # it hashes by identity, so a set or a dict still finds it
    assert bad in {bad}
    ids = structure._Ids([top])
    assert ids[bad] == ids[bad] == 1 and ids.values == [top, bad]


def test_a_guarded_chain_makes_no_raw_call_past_the_marker():
    # a*a leaves the universe; the marker equals nothing, so the chain
    # runs on to k steps, but each step past it is the guard's alone
    a, top = el("((0,1),1)"), core.ap_top(P23)
    raws, steps = [], []

    def mul(x, y):
        raws.append((x, y))
        if x == y == a:
            raise UniverseError("a*a")
        return core.ap_mul(x, y)

    ops = core.OpsBundle(mul, core.ap_inv, "square-invalid")

    def step(x, y):
        steps.append((x, y))
        return ops.mul(x, y)

    assert ops.power(a, 50) is core._INVALID
    assert raws == [(a, top), (a, a)]
    raws.clear()
    assert core._steps(step, a, top, 50) is core._INVALID
    assert raws == [(a, top), (a, a)] and len(steps) == 50


def _counting_bundle(fail_on=None):
    """A guarded bundle over the reference raws that logs each raw call as
    (name, operands); its inv raises ArithmeticError on fail_on."""
    log = []

    def mul(a, b):
        log.append(("mul", a, b))
        return core.ap_mul(a, b)

    def inv(a):
        log.append(("inv", a))
        if a == fail_on:
            raise ArithmeticError(f"inv of {a}")
        return core.ap_inv(a)

    return core.OpsBundle(mul, inv, "counting"), log


def test_a_multiple_chain_inverts_its_operand_once():
    ops, log = _counting_bundle()
    elems = Window(P23, 2).elements()
    for a in elems:
        for k in range(6):
            log.clear()
            got = ops.multiple(k, a)
            steps = sum(1 for call in log if call[0] == "mul")
            # one ~a per chain, then ~out, ~a.~out and its ~ per step
            if k:
                assert log[0] == ("inv", a) and len(log) == 3 * steps + 1, (a, k)
            else:
                assert log == []
            log.clear()
            assert core._steps(ops.oplus, a, core.ap_bot(P23), k) == got
            assert len(log) == 4 * steps
    # the unhoisted chain and the window tables' chain give its values,
    # the invalid marker included, under every bundle; at R=2 some table
    # chains leave the window under each of them
    for bundle in (core.REFERENCE, *harness.MUTATIONS.values()):
        t = structure._tables(P23, 2, bundle)
        for a in elems:
            for k in range(6):
                want = core._steps(bundle.oplus, a, core.ap_bot(P23), k)
                for got in (bundle.multiple(k, a), t.multiple(k, a)):
                    assert got is want if want is core._INVALID else got == want, (bundle, a, k)


def test_a_multiple_chain_raises_where_the_unhoisted_chain_does():
    # a raw inv that raises something other than UniverseError on one
    # value: the error and the step it stops at are the unhoisted chain's
    a = el("((0,1),1)")
    chain = [core.ap_mult(k, a) for k in range(4)]  # bot, a, 2.a, top
    assert len(set(chain)) == 4
    raised = 0
    for fail_on in chain:
        for k in range(6):
            outcomes = []
            for run in (lambda ops: ops.multiple(k, a),
                        lambda ops: core._steps(ops.oplus, a, core.ap_bot(P23), k)):
                ops, log = _counting_bundle(fail_on)
                try:
                    outcomes.append(("value", run(ops)))
                except ArithmeticError as exc:
                    outcomes.append(("error", str(exc)))
                outcomes.append(sum(1 for call in log if call[0] == "mul"))
            assert outcomes[:2] == outcomes[2:], (fail_on, k)
            raised += outcomes[0][0] == "error"
    assert raised > 0


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


# ---------------------------------------------------------------------------
# The same laws off the windows: 1 <= n, p <= 20 and |r| up to 10^15.

@given(wide_elements(count=3))
def test_residuation_off_window(args):
    a, b, c = args
    assert core.ap_leq(core.ap_mul(a, b), c) == core.ap_leq(b, core.ap_div(a, c))
    assert core.ap_leq(b, core.ap_div(a, core.ap_mul(a, b)))
    assert core.ap_leq(core.ap_mul(a, core.ap_div(a, c)), c)


@given(wide_elements(count=3))
def test_associativity_off_window(args):
    a, b, c = args
    assert core.ap_mul(core.ap_mul(a, b), c) == core.ap_mul(a, core.ap_mul(b, c))


@given(wide_elements())
def test_involution_is_involutive_off_window(args):
    (a,) = args
    assert core.ap_inv(core.ap_inv(a)) == a


def _composite_div(a, b):
    """The residual as the paper writes it, ~(a . ~b)."""
    return core.ap_inv(core.ap_mul(a, core.ap_inv(b)))


@given(wide_elements(count=2))
def test_closed_form_div_off_window(args):
    a, b = args
    assert harness.closed_form_div(a, b) == core.ap_div(a, b) == _composite_div(a, b)


@given(wide_elements(), wide_elements())
def test_residual_routes_raise_alike_on_mixed_params(left, right):
    # two draws, each of its own A(n,p): core's residual, the composite
    # and S14's oracle agree on a result or on the error's message
    (a,), (b,) = left, right
    routes = (core.ap_div, _composite_div, harness.closed_form_div)
    for x, y in ((a, b), (b, a)):
        outcomes = {_outcome(route, x, y) for route in routes}
        assert len(outcomes) == 1, (x, y, outcomes)
        (got,) = outcomes
        assert (got[0] is ParamsMismatchError) == ((x.n, x.p) != (y.n, y.p))


def test_the_residual_builds_one_element(monkeypatch):
    rng = random.Random(32)
    pairs = [ab for params in GRID for ab in itertools.product(Window(params, 1).elements(),
                                                               repeat=2)]
    for _ in range(2000):
        params = AlgebraParams(rng.randint(1, 20), rng.randint(1, 20))
        pairs.append((_random_element(rng, params), _random_element(rng, params)))
    elems = list(dict.fromkeys(a for a, _ in pairs))
    built, real = [], core._mk
    monkeypatch.setattr(core, "_mk", lambda *args: built.append(1) or real(*args))
    for a, b in pairs:
        del built[:]
        core.ap_div(a, b)
        assert len(built) == 1, (a, b)
    for a in elems:
        del built[:]
        core.ap_neg(a)
        assert len(built) == 1, a
        # the composite route built up to max(n+1,p) + 3n + 4: one element
        # a product, then ~a and one element a step of the multiple
        del built[:]
        core.boolean_term(a)
        assert len(built) <= max(a.n + 1, a.p) + a.n + 2, a


@given(wide_elements())
def test_boolean_term_off_window(args):
    (a,) = args
    t = core.boolean_term(a)
    top, bot = core.ap_top(a.params), core.ap_bot(a.params)
    assert t in (bot, top)
    assert (t == top) == structure.filter_member("Radical", a)


# The quotient maps: shape onto HatLnp under FOmega, level onto L_{p+1}
# under Radical.  Each is a homomorphism, so an operation's key is that of
# the same operation on its operands' r=0 representatives, and the
# residual congruence is equal keys.

def _r0(a):
    return core._mk(a.m, 0, a.alpha, a.n, a.p)


@given(wide_elements(count=2))
def test_quotient_keys_are_homomorphisms_off_window(args):
    a, b = args
    for f in ("FOmega", "Radical"):
        key = functools.partial(structure.quotient_key, f)
        assert key(core.ap_inv(a)) == key(core.ap_inv(_r0(a))), f
        for op in (core.ap_mul, core.ap_div, core.ap_meet, core.ap_join):
            assert key(op(a, b)) == key(op(_r0(a), _r0(b))), (f, op.__name__)


@given(wide_elements(count=2))
def test_congruence_is_equal_quotient_keys_off_window(args):
    a, b = args
    for x, y in ((a, b), (a, _r0(a)), (a, _r0(b))):
        for f in structure.FILTER_IDS:
            key = functools.partial(structure.quotient_key, f)
            assert structure.congruent(x, y, f) == (key(x) == key(y)), f


# Homogeneity: every r-comparison in core is against 0 or between sums,
# and every r-result is a signed sum of inputs or 0.  So scaling every r
# by lam > 0, with m and the level fixed, commutes with the operations
# and leaves the order as it is.

def _scale(a, lam):
    return core._mk(a.m, lam * a.r, a.alpha, a.n, a.p)


def _preset_terms(params):
    eqs = [terms.preset(name, m) for name in ("E", "EM", "WL") for m in (1, 2, 3)]
    eqs += [terms.preset(name, params=params) for name in ("Bterm", "WLwitness")]
    return [t for eq in eqs for t in (eq.lhs, eq.rhs)]


def _homogeneity(ops, **options):
    """The scaling property of the bundle ops, as a test to call."""

    @settings(deadline=None, report_multiple_bugs=False, **options)
    @given(wide_elements(count=2), st.integers(2, 10**9))
    def check(args, lam):
        a, b = args
        sa, sb = _scale(a, lam), _scale(b, lam)
        assert ops.mul(sa, sb) == _scale(ops.mul(a, b), lam)
        assert ops.inv(sa) == _scale(ops.inv(a), lam)
        assert core.ap_join(sa, sb) == _scale(core.ap_join(a, b), lam)
        assert core.ap_meet(sa, sb) == _scale(core.ap_meet(a, b), lam)
        assert core.ap_leq(sa, sb) == core.ap_leq(a, b)
        for t in _preset_terms(a.params):
            got = terms.eval_term(t, {"x": sa}, a.params, ops)
            assert got == _scale(terms.eval_term(t, {"x": a}, a.params, ops), lam)

    return check


def test_scaling_r_commutes_with_the_operations():
    _homogeneity(core.REFERENCE)()


def test_an_r_offset_mutant_breaks_homogeneity():
    # both levels 0: the pair (m+k+1, r+s+1) where the product has
    # (m+k+1, r+s); no window is involved, and the search is fresh, not
    # a stored failure, with no time spent shrinking what it finds
    offset = core.OpsBundle(harness._mul_override(
        harness._case4, lambda a, b: (a.m + b.m + 1, a.r + b.r + 1)),
        core.ap_inv, "case4-r-offset")
    with pytest.raises(AssertionError):
        _homogeneity(offset, database=None, phases=[Phase.generate])()


def test_radical_membership_is_the_upset_of_its_generator():
    # filter_member("Radical", a) reads a's coordinates; it must be the
    # order above <(0,0),p> everywhere, not only on the windows
    def via_order(a):
        return core.ap_leq(core.ap_validate(LexPair(0, 0), a.p, a.params), a)

    elems = [a for params in GRID for a in Window(params, 2).elements()]
    rng = random.Random(12)
    for _ in range(5_000):
        params = AlgebraParams(rng.randint(1, 20), rng.randint(1, 20))
        elems.append(_random_element(rng, params))
    got = [structure.filter_member("Radical", a) for a in elems]
    assert got == [via_order(a) for a in elems]
    assert any(got) and not all(got)
