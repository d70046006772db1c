"""Parser, renderer, evaluator, and equation checker."""

import collections
import dataclasses
import importlib
import itertools
import operator
import pkgutil
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

import resilat
from resilat import core, harness, structure, terms
from resilat.core import AlgebraParams
from resilat.harness import DEFAULT_GRID, MUTATIONS, REFERENCE
from resilat.structure import BUDGET_ENV, BudgetError
from resilat.terms import (
    Arrow,
    Bot,
    Equation,
    EquationVerdict,
    EvalError,
    Inv,
    Join,
    Meet,
    Mult,
    Neg,
    Oplus,
    ParseError,
    Pow,
    Star,
    Term,
    Top,
    Var,
    check_equation,
    equation_estimate,
    eval_term,
    free_vars,
    parse_equation,
    parse_term,
    preset,
    render_equation,
    render_term,
)

from bundles import INVALID_PAST_R2, NONCOMMUTATIVE

P23 = AlgebraParams(2, 3)


def el(text, params=P23):
    return core.parse_element(text, params)


# ---------------------------------------------------------------------------
# Parsing to the expected trees.

def test_parse_atoms():
    assert parse_term("x") == Var("x")
    assert parse_term("bot") == Bot()
    assert parse_term("top") == Top()
    assert parse_term("x_1") == Var("x_1")


def test_parse_precedence_ladder():
    t = parse_term("3.(x \\/ y) -> top")
    assert t == Arrow(Mult(3, Join(Var("x"), Var("y"))), Top())
    assert parse_term("x \\/ y /\\ z") == Join(Var("x"), Meet(Var("y"), Var("z")))
    assert parse_term("x /\\ y * z") == Meet(Var("x"), Star(Var("y"), Var("z")))


def test_arrow_is_right_associative():
    t = parse_term("x -> y -> z")
    assert t == Arrow(Var("x"), Arrow(Var("y"), Var("z")))
    u = parse_term("(x -> y) -> z")
    assert u == Arrow(Arrow(Var("x"), Var("y")), Var("z"))


def test_star_is_left_associative():
    assert parse_term("x * y * z") == Star(Star(Var("x"), Var("y")), Var("z"))


def test_unary_and_postfix_binding():
    assert parse_term("~x^2") == Inv(Pow(Var("x"), 2))
    assert parse_term("(~x)^2") == Pow(Inv(Var("x")), 2)
    assert parse_term("!x * y") == Star(Neg(Var("x")), Var("y"))
    assert parse_term("2.x^3") == Mult(2, Pow(Var("x"), 3))
    assert parse_term("x^2^3") == Pow(Pow(Var("x"), 2), 3)
    assert parse_term("~!x") == Inv(Neg(Var("x")))


def test_parse_equation_both_spellings():
    assert parse_equation("x ≈ y") == parse_equation("x = y")
    eq = parse_equation("x \\/ !(x^2) = top")
    assert eq.lhs == Join(Var("x"), Neg(Pow(Var("x"), 2)))
    assert eq.rhs == Top()


PARSE_ERRORS = [
    ("x ->", 4, "expected a term, found 'end of input'"),  # dangling arrow
    ("3x", 1, "expected '.' after a multiplier, found 'x'"),
    ("x * * y", 4, "expected a term, found '*'"),
    ("(x -> y", 7, "expected ')', found 'end of input'"),
    ("x y", 2, "unexpected 'y' after term"),
    ("x @ y", 2, "unexpected character '@'"),  # tokenizer rejection
    ("x^", 2, "expected an exponent, found 'end of input'"),
]


@pytest.mark.parametrize("text,pos,message", PARSE_ERRORS,
                         ids=[f"{text}-{pos}" for text, pos, _ in PARSE_ERRORS])
def test_parse_errors_carry_positions(text, pos, message):
    with pytest.raises(ParseError) as exc:
        parse_term(text)
    assert exc.value.pos == pos
    assert str(exc.value) == f"{message} (at position {pos})"


def test_equation_parse_errors():
    with pytest.raises(ParseError) as exc:
        parse_equation("x * y")          # no equality sign
    assert str(exc.value) == "expected '≈' or '=', found 'end of input' (at position 5)"
    with pytest.raises(ParseError) as exc:
        parse_equation("x = y = z")
    assert exc.value.pos == 6
    assert str(exc.value) == "unexpected '=' after equation (at position 6)"


def test_ast_validation():
    with pytest.raises(ValueError):
        Pow(Var("x"), -1)
    with pytest.raises(ValueError):
        Mult(-2, Var("x"))
    with pytest.raises(ValueError):
        Var("X")
    with pytest.raises(ValueError):
        Var("")
    # the constants' names would read back as the constants
    for name in ("bot", "top"):
        with pytest.raises(ValueError):
            Var(name)


@example("bot")
@example("top")
@example("x_1")
@given(st.builds(operator.add, st.sampled_from("abtxyz"), st.text("bopt0_", max_size=3)))
def test_every_name_read_as_a_variable_round_trips(name):
    t = parse_term(name)
    if isinstance(t, Var):
        assert t == Var(name) and parse_term(render_term(t)) == t
    else:
        assert t in (Bot(), Top())
        with pytest.raises(ValueError):
            Var(name)


def one_node_of_each_type():
    x, y = Var("x"), Var("y")
    return [x, Bot(), Top(), *(node(x, y) for node in (Star, Arrow, Meet, Join, Oplus)),
            Neg(x), Inv(x), Pow(x, 2), Mult(2, x)]


def test_nodes_equal_only_nodes_of_their_own_type():
    x, y = Var("x"), Var("y")
    assert Star(x, y) != Meet(x, y)
    assert Bot() != Top()
    assert Var("x") != ("x",)
    assert len(set(one_node_of_each_type())) == 12
    for a, b in zip(one_node_of_each_type(), one_node_of_each_type()):
        assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        Star(x, y).l = y
    # the checker keys its subterms by node, so these sides stay apart
    for text in ("x*y = x /\\ y", "x -> y = x \\/ y"):
        assert_same(parse_equation(text), P23, 1)


def test_no_module_defines_a_dataclass_and_records_carry_no_dict():
    # the start-up cost of the package: dataclasses imports inspect, and
    # each dataclass execs its methods
    modules = [importlib.import_module(f"resilat.{m.name}")
               for m in pkgutil.iter_modules(resilat.__path__) if m.name != "__main__"]
    assert {m.__name__ for m in modules} >= {"resilat.core", "resilat.cli", "resilat.harness"}
    classes = [c for m in modules for c in vars(m).values()
               if isinstance(c, type) and c.__module__ == m.__name__]
    assert [c.__name__ for c in classes if dataclasses.is_dataclass(c)] == []
    nodes = one_node_of_each_type()
    assert {type(t) for t in nodes} == {
        c for c in classes if issubclass(c, terms.Term) and not c.__name__.startswith("_")
    } - {terms.Term}
    w = structure.Window(P23, 1)
    records = [
        *nodes, parse_equation("x = x"), check_equation(parse_equation("x = x"), P23, 0),
        P23, w, structure.closure([core.ap_top(P23)]), harness.SUITES["S6"],
        harness.run_suite("S6", P23, R=0),
        harness._Ctx(w, structure._tables(P23, 1, REFERENCE), None, 0),
    ]
    bases = {core._Record, terms.Term, terms._Binary, terms._Prefix}
    assert {type(r) for r in records} | bases == {
        c for c in classes if issubclass(c, core._Record)
    }
    assert [r for r in records if hasattr(r, "__dict__")] == []


def test_free_vars():
    t = parse_term("x * (y -> x) \\/ ~z^2")
    assert free_vars(t) == frozenset({"x", "y", "z"})
    assert free_vars(parse_term("bot -> top")) == frozenset()


# ---------------------------------------------------------------------------
# Rendering.

def test_render_frozen():
    assert render_term(parse_term("x->y->z")) == "x -> y -> z"
    assert render_term(parse_term("(x->y)->z")) == "(x -> y) -> z"
    assert render_term(parse_term("~(x*y)")) == "~(x * y)"
    assert render_term(parse_term("3.( x \\/ y )")) == "3.(x \\/ y)"
    assert render_term(Oplus(Var("a"), Var("b"))) == "~(~a * ~b)"
    assert render_equation(parse_equation("x=y")) == "x ≈ y"


SOURCES = st.sampled_from(
    [
        "x", "bot", "top", "~x", "!y", "x^2", "3.x",
        "x * y", "x \\/ y", "x /\\ y", "x -> y",
    ]
)


@st.composite
def term_sources(draw, depth=3):
    # assemble concrete syntax bottom-up so every draw stays parseable
    out = draw(SOURCES)
    for _ in range(draw(st.integers(0, depth))):
        op = draw(st.sampled_from(["~({})", "({}) * ({})", "({}) \\/ ({})",
                                   "({}) /\\ ({})", "({}) -> ({})", "2.({})", "({})^3"]))
        if op.count("{}") == 2:
            out = op.format(out, draw(SOURCES))
        else:
            out = op.format(out)
    return out


@given(term_sources())
def test_render_parse_round_trip(source):
    t = parse_term(source)
    assert parse_term(render_term(t)) == t


def trees(children):
    """One node over the children strategy, composite operands on either
    side."""
    k = st.integers(0, 4)
    binary = [st.builds(node, children, children) for node in (Star, Arrow, Meet, Join, Oplus)]
    return st.one_of(*binary, st.builds(Neg, children), st.builds(Inv, children),
                     st.builds(Pow, children, k), st.builds(Mult, k, children))


TREES = st.recursive(st.sampled_from([Var("x"), Var("y"), Bot(), Top()]), trees, max_leaves=10)


def desugared(t):
    """t with each Oplus written as ~(~l * ~r), as it renders."""
    values = [getattr(t, name) for name in t.fields]
    values = [desugared(v) if isinstance(v, Term) else v for v in values]
    if isinstance(t, Oplus):
        return Inv(Star(Inv(values[0]), Inv(values[1])))
    return type(t)(*values)


@given(TREES)
def test_render_parse_round_trip_on_generated_trees(t):
    # an Oplus-free tree comes back as itself
    assert parse_term(render_term(t)) == desugared(t)


# ---------------------------------------------------------------------------
# Evaluation.

def test_eval_basic():
    t = parse_term("x * x")
    assert eval_term(t, {"x": el("((1,0),2)")}, P23) == el("((0,0),1)")
    assert eval_term(parse_term("x -> bot"), {"x": el("((1,0),2)")}, P23) == el("((0,0),1)")
    assert eval_term(parse_term("top * x"), {"x": el("((0,1),3)")}, P23) == el("((0,1),3)")


def test_eval_all_node_kinds():
    env = {"x": el("((0,0),1)"), "y": el("((1,0),2)")}
    assert eval_term(parse_term("x /\\ y"), env, P23) == core.ap_meet(env["x"], env["y"])
    assert eval_term(parse_term("x \\/ y"), env, P23) == core.ap_join(env["x"], env["y"])
    assert eval_term(parse_term("!x"), env, P23) == core.ap_neg(env["x"])
    assert eval_term(parse_term("~x"), env, P23) == core.ap_inv(env["x"])
    assert eval_term(parse_term("y^3"), env, P23) == core.ap_pow(env["y"], 3)
    assert eval_term(parse_term("2.x"), env, P23) == core.ap_mult(2, env["x"])
    assert eval_term(Oplus(Var("x"), Var("y")), env, P23) == core.ap_oplus(env["x"], env["y"])


def test_eval_unbound_variable():
    with pytest.raises(EvalError):
        eval_term(parse_term("x * y"), {"x": el("top")}, P23)


def test_eval_with_substitute_ops():
    from resilat.harness import REFERENCE

    t = parse_term("~(x * ~y)")
    env = {"x": el("((0,2),0)"), "y": el("((1,-1),2)")}
    assert eval_term(t, env, P23, ops=REFERENCE) == eval_term(t, env, P23)


# ---------------------------------------------------------------------------
# Window checking.

def test_check_commutativity_holds():
    verdict = check_equation(parse_equation("x * y = y * x"), P23, radius=1)
    assert verdict.holds
    assert verdict.radius == 1
    assert verdict.checked == 22 * 22
    assert verdict.counterexample is None


def test_check_excluded_middle_fails_at_the_first_assignment():
    verdict = check_equation(preset("EM", 2), P23, radius=2)
    assert not verdict.holds
    assert verdict.checked == 1
    assert verdict.counterexample == {"x": el("((0,0),0)")}


def test_check_zero_variable_equation():
    verdict = check_equation(parse_equation("bot -> bot = top"), P23, radius=0)
    assert verdict.holds
    assert verdict.checked == 1


def test_check_domain_restriction():
    top = core.ap_top(P23)
    verdict = check_equation(
        preset("EM", 2), P23, radius=2, domain=lambda a: a == top
    )
    assert verdict.holds
    assert verdict.checked == 1


def test_check_four_variables_under_the_budget_and_radius(monkeypatch):
    # the budget alone bounds the variable count: 10**4 assignments at R=0
    eq = parse_equation("w * x * y * z = z * y * x * w")
    assert equation_estimate(eq, P23, 0) == 10**4
    assert check_equation(eq, P23, radius=0) == EquationVerdict(True, 0, 10**4, None)
    monkeypatch.setenv(BUDGET_ENV, str(10**4 - 1))
    with pytest.raises(BudgetError):
        check_equation(eq, P23, radius=0)
    with pytest.raises(ValueError):
        check_equation(parse_equation("x = x"), P23, radius=-1)


def test_idempotent_power_stabilises_only_on_the_diagonal():
    # with zero offsets, x^(k+1) = x^k first holds at k = max(n+1, p)
    assert not check_equation(preset("E", 2), P23, radius=0).holds
    assert check_equation(preset("E", 3), P23, radius=0).holds
    # negative offsets keep descending, so no exponent works on a wider window
    for m in (3, 4, 5):
        verdict = check_equation(preset("E", m), P23, radius=1)
        assert not verdict.holds
        assert verdict.counterexample == {"x": el("((2,-1),3)")}


# ---------------------------------------------------------------------------
# Presets.

def test_preset_renders():
    assert render_equation(preset("E", 2)) == "x^3 ≈ x^2"
    assert render_equation(preset("EM", 1)) == "x \\/ !x^1 ≈ top"
    assert render_equation(preset("WL", 2)) == "2.x \\/ 2.!x ≈ top"
    assert preset("WLwitness", params=P23) == preset("WL", 2)
    assert preset("Bterm", params=P23) == parse_equation(
        "3.x^3 \\/ !(3.x^3) ≈ top"
    )


def test_preset_validation():
    with pytest.raises(ValueError):
        preset("E")
    with pytest.raises(ValueError):
        preset("EM", 0)
    with pytest.raises(ValueError):
        preset("Bterm")
    with pytest.raises(ValueError):
        preset("nope", 1)


# ---------------------------------------------------------------------------
# The compiled checker against a plain walk of the tree.

def walk_eval(t, env, params, o):
    """Evaluation as a recursive isinstance chain, independent of terms._node."""
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Bot):
        return core.ap_bot(params)
    if isinstance(t, Top):
        return core.ap_top(params)
    if isinstance(t, Star):
        return o.mul(walk_eval(t.l, env, params, o), walk_eval(t.r, env, params, o))
    if isinstance(t, Arrow):
        return o.div(walk_eval(t.l, env, params, o), walk_eval(t.r, env, params, o))
    if isinstance(t, Meet):
        return o.meet(walk_eval(t.l, env, params, o), walk_eval(t.r, env, params, o))
    if isinstance(t, Join):
        return o.join(walk_eval(t.l, env, params, o), walk_eval(t.r, env, params, o))
    if isinstance(t, Neg):
        return o.neg(walk_eval(t.t, env, params, o))
    if isinstance(t, Inv):
        return o.inv(walk_eval(t.t, env, params, o))
    if isinstance(t, Oplus):
        return o.oplus(walk_eval(t.l, env, params, o), walk_eval(t.r, env, params, o))
    if isinstance(t, Pow):
        return o.power(walk_eval(t.t, env, params, o), t.k)
    if isinstance(t, Mult):
        return o.multiple(t.k, walk_eval(t.t, env, params, o))
    raise TypeError(f"not a term: {t!r}")


def walk_check(eq, params, radius, domain=None, ops=None):
    """The window check as a plain loop: walk both trees on every assignment."""
    o = core.REFERENCE if ops is None else ops
    names = sorted(free_vars(eq.lhs) | free_vars(eq.rhs))
    elems = structure.Window(params, radius).elements()
    if domain is not None:
        elems = tuple(e for e in elems if domain(e))
    checked = 0
    for values in itertools.product(elems, repeat=len(names)):
        checked += 1
        env = dict(zip(names, values))
        if walk_eval(eq.lhs, env, params, o) != walk_eval(eq.rhs, env, params, o):
            return EquationVerdict(False, radius, checked, env)
    return EquationVerdict(True, radius, checked, None)


# every product here commutes but NONCOMMUTATIVE's, so only it tells a
# table read with its operands swapped
OPS = {"core": None, "reference": REFERENCE, **MUTATIONS, NONCOMMUTATIVE.name: NONCOMMUTATIVE}

# the evaluation protocol of the term module
PROTOCOL = ("mul", "inv", "div", "neg", "oplus", "meet", "join", "power", "multiple")


def reference_ops():
    """A plain namespace holding the reference operations, to override."""
    return SimpleNamespace(**{name: getattr(core.REFERENCE, name) for name in PROTOCOL})


def recording_ops(record):
    """reference_ops() that call record(name, operands) before each operation."""
    ops = reference_ops()
    for name in PROTOCOL:
        def op(*args, name=name, fn=getattr(ops, name)):
            record(name, args)
            return fn(*args)
        setattr(ops, name, op)
    return ops


def counting_ops():
    """recording_ops() and the Counter of the calls it makes, by operation."""
    calls = collections.Counter()
    return recording_ops(lambda name, args: calls.update((name,))), calls


# the five `resilat check --eq` lines of the benchmark's equations workload;
# the 3-variable ones at R=1 and the others at R=2 keep the plain walk fast
BENCH_LINES = [
    (2, 3, 1, "x*(y*z) = (x*y)*z"),
    (2, 3, 1, "(x*y) -> z = x -> (y -> z)"),
    (3, 3, 2, "(x*y)^4 = x^4 * y^4"),
    (3, 3, 2, "4.(x /\\ y) = 4.x /\\ 4.y"),
    (2, 3, 2, "x \\/ !(x^2) = top"),
]


def random_term(rng, depth, names):
    if depth == 0 or rng.random() < 0.15:
        return rng.choice([Var(v) for v in names] + [Var(names[0]), Bot(), Top()])
    kind = rng.randrange(9)
    if kind < 5:
        node = (Star, Arrow, Meet, Join, Oplus)[kind]
        return node(random_term(rng, depth - 1, names), random_term(rng, depth - 1, names))
    if kind < 7:
        return (Neg, Inv)[kind - 5](random_term(rng, depth - 1, names))
    if kind == 7:
        return Pow(random_term(rng, depth - 1, names), rng.randrange(5))
    return Mult(rng.randrange(5), random_term(rng, depth - 1, names))


# (params, radius, variables): at most 10^3 or 22^2 assignments per case;
# the R=1 points have nonzero offsets, where the mutations go wrong
RANDOM_POINTS = ((P23, 0, "xyz"), (P23, 1, "xy"), (AlgebraParams(3, 2), 1, "xy"))


def random_cases(seed, count):
    """Random depth-3 equations with a point to check them at.  Every other
    one commutes the root of its left side, so it holds under the reference
    operations and runs through the whole window."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        params, R, names = RANDOM_POINTS[i % 3]
        lhs = random_term(rng, 3, names)
        if i % 2 and isinstance(lhs, (Star, Meet, Join, Oplus)):
            rhs = type(lhs)(lhs.r, lhs.l)
        else:
            rhs = random_term(rng, 3, names)
        out.append((Equation(lhs, rhs), params, R))
    return out


def assert_same(eq, params, radius, **kw):
    assert check_equation(eq, params, radius, **kw) == walk_check(eq, params, radius, **kw)


@pytest.mark.parametrize("n,p", DEFAULT_GRID)
def test_compiled_check_matches_the_walk_on_presets(n, p):
    params = AlgebraParams(n, p)
    eqs = [preset(name, m) for name in ("E", "EM", "WL") for m in (1, 2, 3, 4)]
    eqs += [preset("Bterm", params=params), preset("WLwitness", params=params)]
    for eq in eqs:
        for ops in (None, REFERENCE):
            assert_same(eq, params, 2, ops=ops)


def test_compiled_check_matches_the_walk_on_the_bench_lines():
    for n, p, R, text in BENCH_LINES:
        assert_same(parse_equation(text), AlgebraParams(n, p), R)


def block_rows(count, cap, outer):
    """The candidates of each block in order, over outer assignments of the
    outer variables: count candidates of the variable run in blocks, the
    second-innermost one or a one-variable equation's one, in blocks of 1,
    2, 4, ... up to cap, the size carried over from one outer assignment to
    the next."""
    rows, size = [], 1
    for _ in range(outer):
        lo = 0
        while lo < count:
            rows.append(min(size, count - lo))
            lo, size = lo + rows[-1], min(2 * size, cap)
    return rows


def record_compares(monkeypatch):
    """The shape of each block compare check_equation makes: its rows, and
    the set of their lengths."""
    shapes = []
    real = terms._first_difference

    def compare(left, right):
        assert len(left) == len(right)
        shapes.append((len(left), {len(row) for row in left + right}))
        return real(left, right)

    monkeypatch.setattr(terms, "_first_difference", compare)
    return shapes


def test_compiled_check_compares_whole_rows_on_the_bench_lines(monkeypatch):
    # each compare covers a block of the second-innermost variable's
    # candidates, each row all N innermost ones; a one-variable equation
    # compares one row per block of its variable's candidates
    shapes = record_compares(monkeypatch)
    for n, p, R, text in BENCH_LINES:
        params, eq = AlgebraParams(n, p), parse_equation(text)
        N = len(structure.Window(params, R))
        del shapes[:]
        verdict = check_equation(eq, params, R)
        k = len(free_vars(eq.lhs) | free_vars(eq.rhs))
        blocks = block_rows(N, N, N ** max(k - 2, 0))
        per = N if k > 1 else 1  # assignments per candidate of a block
        if not verdict.holds:  # up to the block that holds the failure
            blocks = [b for i, b in enumerate(blocks)
                      if sum(blocks[:i]) * per < verdict.checked]
        assert shapes == [(b, {N}) if k > 1 else (1, {b}) for b in blocks], text


@pytest.mark.parametrize("ops", list(OPS), ids=list(OPS))
def test_compiled_check_matches_the_walk_on_random_equations(ops):
    for eq, params, R in random_cases(seed=2024, count=60):
        assert_same(eq, params, R, ops=OPS[ops])


def test_compiled_check_matches_the_walk_on_edge_cases():
    hatln2 = lambda a: structure.subalg_member("HatLn2", a)  # noqa: E731
    for params in (AlgebraParams(1, 1), P23, AlgebraParams(3, 2)):
        assert_same(preset("WLwitness", params=params), params, 2, domain=hatln2)
        assert_same(parse_equation("x -> y = ~(x * ~y)"), params, 1,
                    domain=lambda a: a.alpha != 1, ops=MUTATIONS["inv-reflect-sign"])
    # a domain that leaves nothing: no assignment, no check, vacuously true
    assert_same(preset("EM", 2), P23, 2, domain=lambda a: False)
    # closed equations: one check each, and {} as the counterexample
    for text in ("bot -> bot = top", "bot = top", "~bot * top = top", "2.bot = bot^0"):
        for ops in OPS.values():
            assert_same(parse_equation(text), P23, 0, ops=ops)
    assert check_equation(parse_equation("bot = top"), P23, 0).counterexample == {}
    # four variables, holding and failing
    for text in ("w * x * y * z = z * y * x * w", "w * x -> y = z \\/ w"):
        for ops in (None, MUTATIONS["mul-case2-sign"]):
            assert_same(parse_equation(text), P23, 0, ops=ops)


@pytest.mark.parametrize("text", ["x*y = y*x", "x*y = x*y"])
def test_the_check_sees_the_invalid_marker_equal_nothing(text):
    # at R=4 first steps go invalid too: x*y is the marker first at
    # x=((0,0),0), y=((0,3),0), on both sides, and it equals nothing
    eq = parse_equation(text)
    got = check_equation(eq, P23, 4, ops=INVALID_PAST_R2)
    assert got == EquationVerdict(False, 4, 4, {"x": el("((0,0),0)"), "y": el("((0,3),0)")})
    assert got == walk_check(eq, P23, 4, ops=INVALID_PAST_R2)
    elems = structure.Window(P23, 4).elements()
    assert terms._walk_failure(eq, ["x", "y"], elems, P23, INVALID_PAST_R2) == [0, 3]


def test_a_closed_equation_of_two_markers_fails():
    ops = reference_ops()
    ops.mul = lambda a, b: core._INVALID
    eq = parse_equation("top * top = top * top")
    assert check_equation(eq, P23, 0, ops=ops) == EquationVerdict(False, 0, 1, {})
    assert walk_check(eq, P23, 0, ops=ops) == EquationVerdict(False, 0, 1, {})


def test_compiled_check_matches_the_walk_on_row_shapes():
    one = lambda a: a == core.ap_top(a.params)  # noqa: E731
    for ops in (None, MUTATIONS["mul-case2-sign"]):
        for text in (
            # last-level nodes whose two operands both vary with z
            "(x*z)*(y*z) = (y*z)*(x*z)", "z /\\ z = z", "x * (z /\\ z) = x * z",
            # a side constant along the last variable's row
            "x*y = top", "x -> x = y -> y",
            # one product with its constant on the left and on the right
            "x*y = y*x", "x*y -> x = y",
        ):
            assert_same(parse_equation(text), P23, 1, ops=ops)
        # a domain that leaves one candidate: every row holds one id
        for text in ("x*(y*z) = (x*y)*z", "x = ~x", "x*y = top"):
            assert_same(parse_equation(text), P23, 1, domain=one, ops=ops)


def test_bench_lines_are_the_benchmark_equations(monkeypatch):
    # the walk comparisons above cover the equations workload's own lines,
    # at smaller radii
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    assert [line[:2] + line[3:] for line in BENCH_LINES] == [
        line[:2] + line[3:] for line in workloads.EQUATIONS]


def other_meet_ops():
    """Reference operations but for a meet that is core's join: a duck-typed
    bundle, whose meet rows no closed form may replace."""
    ops = reference_ops()
    ops.meet = core.REFERENCE.join
    return ops


# last-level meets, joins, products and residuals whose varying operand is
# the last variable itself, against window, past-window and closed constants
DIRECT_ROWS = (
    "x /\\ y = ~(~x \\/ ~y)", "x /\\ y = y /\\ x", "(x*y) \\/ z = z \\/ (x*y)",
    "(x /\\ bot) \\/ y = y \\/ (x /\\ bot)", "4.(x /\\ y) = 4.x /\\ 4.y",
    "x -> y = ~(x * ~y)", "(x*x) /\\ y = y /\\ (x*x)", "y /\\ ~bot = y",
    "top \\/ y = (y -> bot) -> top", "x /\\ y = x \\/ y", "~y * x = x * ~y",
)


@pytest.mark.parametrize("ops", [*OPS, "other-meet"])
def test_direct_rows_match_the_walk(ops):
    o = other_meet_ops() if ops == "other-meet" else OPS[ops]
    for text in DIRECT_ROWS:
        for params in (P23, AlgebraParams(3, 2)):
            assert_same(parse_equation(text), params, 1, ops=o)
    # a domain-restricted candidate list, whose ids are not window
    # indices, keeps the map
    for text in DIRECT_ROWS[:4]:
        assert_same(parse_equation(text), P23, 1, ops=o, domain=lambda a: a.alpha != 0)


# the two innermost variables' operand shapes: for x, y, z, y is the
# second-innermost and z the innermost variable, for x, y, x and y
PLANE_SHAPES = (
    # constant, row and plane operands; meets and joins of a row and z
    "x * (y*z) = (x*y) * z", "(x*y) /\\ z = z /\\ (x*y)", "(x*y) \\/ z = z \\/ (y*x)",
    # a row and a plane, and two planes
    "(x*y) -> (y*z) = (y*z) -> (x*y)", "(y*z) \\/ (x -> z) = (x -> z) \\/ (y*z)",
    # unary operations on a row and on a plane
    "~(x*y) * z = x \\/ ~(y*z)", "!(x*y)^2 = (~y * ~x) -> bot",
    # rows of the second-innermost level: a meet with an outer constant,
    # two rows, a closed constant
    "(x /\\ y) \\/ z = z \\/ (y /\\ x)", "(x*y) \\/ (y -> x) = (y -> x) \\/ (x*y)",
    "(y /\\ ~bot) * z = z * y",
    # a side of the second-innermost level, and one of an outer level
    "x*y = (y*x) \\/ (z /\\ bot)", "x = x \\/ (z /\\ bot)",
    # planes of one row for all, next to planes of one row each
    "x * z^2 = z^2 * x", "(z^2 \\/ (y*z)) * x = x * ((y*z) \\/ z^2)",
    # two variables
    "~x = ~x \\/ (y /\\ bot)", "~bot * (x*y) = (y*x) * ~bot", "~x * ~y = ~y * ~x",
    "~x \\/ y = y \\/ ~x",
    "(x*y) /\\ (y*y) = (y*y) /\\ (x*y)", "(x*y)^2 = x^2 * y^2", "x /\\ ~y = ~(~x \\/ y)",
)


def plane_point(eq):
    """A window for eq, with nonzero offsets: 9 candidates for 3 variables,
    22 for 2."""
    if len(free_vars(eq.lhs) | free_vars(eq.rhs)) == 3:
        return AlgebraParams(1, 2), 1
    return P23, 1


@pytest.mark.parametrize("ops", [*OPS, "other-meet"])
def test_planes_match_the_walk(ops):
    o = other_meet_ops() if ops == "other-meet" else OPS[ops]
    for text in PLANE_SHAPES:
        eq = parse_equation(text)
        assert_same(eq, *plane_point(eq), ops=o)
        # a domain-restricted candidate list, whose ids are not window
        # indices
        assert_same(eq, P23, 0, ops=o, domain=lambda a: a.alpha != 0)


# meets, joins, products and closed subterms of the outer levels, those
# before the second-innermost one, which build their rows as every other
# level does: x for three variables, w and x for four
OUTER_SHAPES = (
    "(x /\\ ~bot) * (y*z) = (y*z) * (~bot /\\ x)", "(x \\/ bot) * y -> z = (y * x) -> z",
    "(x /\\ x^2) \\/ (y*z) = (z*y) \\/ (x^2 /\\ x)", "2.bot \\/ x = (y /\\ x) \\/ (z /\\ x)",
    "(w /\\ x) * (y /\\ z) = (z /\\ y) * (x /\\ w)",
    "((w*x) \\/ ~bot) /\\ (y*z) = (z*y) /\\ (~bot \\/ (x*w))",
    "(w /\\ top) * (x \\/ w) * y * z = z * y * (w \\/ x) * w",
    "(w /\\ x) \\/ (y*z) = (w \\/ x) \\/ (z*y)",
)


@pytest.mark.parametrize("ops", [*OPS, "other-meet"])
def test_outer_levels_match_the_walk(ops):
    o = other_meet_ops() if ops == "other-meet" else OPS[ops]
    for text in OUTER_SHAPES:
        eq = parse_equation(text)
        # 9^3 or 8^4 assignments, with nonzero offsets
        params = AlgebraParams(1, 2) if "w" not in text else AlgebraParams(1, 1)
        assert_same(eq, params, 1, ops=o)


def test_an_outer_meet_under_a_bundle_calls_no_lattice_operation(monkeypatch):
    # x /\ ~bot, w /\ x and x /\ w read their rows from the lattice's
    # closed form, as the inner levels' meets do
    calls = collections.Counter()
    for name in ("ap_meet", "ap_join"):
        def counted(a, b, name=name, fn=getattr(core, name)):
            calls[name] += 1
            return fn(a, b)
        monkeypatch.setattr(core, name, counted)
    for text, R, checked in ((OUTER_SHAPES[0], 1, 22**3), (OUTER_SHAPES[4], 0, 10**4)):
        verdict = check_equation(parse_equation(text), P23, R, ops=REFERENCE)
        assert (verdict.holds, verdict.checked) == (True, checked)
    assert calls == {}


# one operation with its constant on the left in one subterm and on the
# right in another, which read its one table along a row and along a
# column: under a product that does not commute, a read with its operands
# swapped changes the outcome
SIDED = (
    "x*(y*z) = (z*y)*x", "x*z = y*x", "(x*y) -> z = z -> (y*x)", "~x * y = y * ~x",
    "(x*x) * y = y * (x*x)", "y*x -> x = x*y -> x",
)


@pytest.mark.parametrize("ops", list(OPS))
def test_one_operation_with_its_constant_on_either_side_matches_the_walk(ops):
    for text in SIDED:
        eq = parse_equation(text)
        assert_same(eq, P23, 0 if len(free_vars(eq.lhs) | free_vars(eq.rhs)) == 3 else 1,
                    ops=OPS[ops])
        assert_same(eq, P23, 0, ops=OPS[ops], domain=lambda a: a.alpha != 0)


def test_planes_raise_where_and_what_the_walk_raises():
    raised = 0
    for seed, text in enumerate(PLANE_SHAPES * 2):
        eq, ops = parse_equation(text), raising_ops(seed)
        got = outcome(check_equation, eq, *plane_point(eq), ops=ops)
        assert got == outcome(walk_check, eq, *plane_point(eq), ops=ops), text
        raised += isinstance(got, tuple)
    assert raised > 20


def test_a_block_run_again_keeps_the_walks_outcome():
    # blocks of x: 1, 2, 4, ...  In the block of x at positions 3..6 the ~x
    # row raises at 5, so the check replays the plain walk
    elems = structure.Window(P23, 1).elements()
    position = elems.index

    def raising_from_5(fn, wrong_at_4=None):
        def op(a, *rest):
            if position(a) >= 5:
                raise ArithmeticError(fn.__name__, position(a))
            return wrong_at_4 if position(a) == 4 and wrong_at_4 else fn(a, *rest)
        return op

    # where ~x is top, at x = elems[4], the sides differ first
    ops = reference_ops()
    ops.inv = raising_from_5(core.ap_inv, wrong_at_4=core.ap_top(P23))
    eq = parse_equation("y * ~x = y * (x -> bot)")
    want = walk_check(eq, P23, 1, ops=ops)
    assert (want.holds, want.counterexample["x"]) == (False, elems[4])
    assert check_equation(eq, P23, 1, ops=ops) == want
    # the row of ~x is built before x*y, but at x = elems[5] the walk meets
    # x*y first
    ops = reference_ops()
    ops.inv, ops.mul = raising_from_5(core.ap_inv), raising_from_5(core.ap_mul)
    eq = parse_equation("(x*y) /\\ ~x = ~x /\\ (x*y)")
    assert outcome(walk_check, eq, P23, 1, ops=ops) == ("ap_mul", 5)
    assert outcome(check_equation, eq, P23, 1, ops=ops) == ("ap_mul", 5)


def test_a_check_that_holds_compares_once_per_block(monkeypatch):
    shapes = record_compares(monkeypatch)
    N = len(structure.Window(P23, 1))
    verdict = check_equation(parse_equation("x*(y*z) = (x*y)*z"), P23, 1)
    assert (verdict.holds, verdict.checked) == (True, N**3)
    # blocks of 1, 2, 4, 8 and 7 for the first x, then one of all N per x
    assert shapes == [(b, {N}) for b in [1, 2, 4, 8, 7] + [N] * (N - 1)]


def test_an_early_failure_calls_each_operation_on_at_most_two_rows():
    counting, calls = counting_ops()
    eq = parse_equation("(x*y) -> ~y = x /\\ (y \\/ ~x)")
    N = len(structure.Window(P23, 2))
    verdict = check_equation(eq, P23, 2, ops=counting)
    assert (verdict.holds, verdict.checked) == (False, 1)
    assert max(calls.values()) <= 2 * N
    assert calls["div"] <= N  # the first row alone


@pytest.mark.parametrize("text,checked", [
    ("x \\/ !(x^2) = top", 1), ("2.x = x", 2), ("x^0 /\\ 4.x = 2.x", 67),
    ("top = !(3.x)^3", 132), ("~x /\\ x^3 = bot", 264)])
def test_a_one_variable_failure_calls_each_operation_on_its_blocks_alone(text, checked):
    # blocks of 1, 2, 4, ... candidates: at most 2 * checked - 1 of them
    # are built by the block that holds the failure
    calls = collections.Counter()  # by operation, its exponent or multiplier included
    counting = recording_ops(lambda name, args: calls.update(
        [(name, *[k for k in args if isinstance(k, int)])]))
    verdict = check_equation(parse_equation(text), P23, 32, ops=counting)
    assert (verdict.holds, verdict.checked) == (False, checked)
    assert 0 < max(calls.values()) < 2 * checked


def test_an_early_failure_interns_no_candidate(monkeypatch):
    # the candidates are ids 0..N-1 when the id table is made, so a check
    # that fails early interns only the values its first block makes
    missing = []
    real = structure._Ids.__missing__
    monkeypatch.setattr(structure._Ids, "__missing__",
                        lambda ids, value: missing.append(value) or real(ids, value))
    verdict = check_equation(parse_equation("x \\/ !(x^2) = top"), P23, 32)
    assert (verdict.holds, verdict.checked) == (False, 1)
    assert len(missing) < 10
    structure._Ids()["value"]  # the hook sees every miss
    assert missing[-1] == "value"


def test_meet_rows_under_a_bundle_call_no_lattice_operation(monkeypatch):
    def never(*args):
        raise AssertionError("called")

    monkeypatch.setattr(core, "ap_meet", never)
    monkeypatch.setattr(core, "ap_join", never)
    monkeypatch.setattr(structure._Tables, "__init__", never)
    P33 = AlgebraParams(3, 3)
    verdict = check_equation(parse_equation("x /\\ y = y /\\ x"), P33, 2, ops=REFERENCE)
    assert (verdict.holds, verdict.checked) == (True, len(structure.Window(P33, 2)) ** 2)


def walk_operands(eq, params, radius):
    """A plain walk's verdict on eq, and the distinct operand tuples it
    meets, by operation."""
    met = collections.defaultdict(set)
    ops = recording_ops(lambda name, args: met[name].add(args))
    return walk_check(eq, params, radius, ops=ops), met


def test_each_operation_runs_once_per_operand_tuple_the_walk_meets():
    # the bench lines, the E, EM, WL and Bterm presets at S16's exponent on
    # the grid, and one operation with its constant on either side:
    # subterms that apply one operation share its results, so on an
    # equation that holds each operation runs once per operand tuple the
    # plain walk meets
    cases = [(parse_equation(text), AlgebraParams(n, p), R) for n, p, R, text in BENCH_LINES]
    for n, p in DEFAULT_GRID:
        params = AlgebraParams(n, p)
        cases += [(preset(name, max(n + 1, p)), params, 2) for name in ("E", "EM", "WL")]
        cases.append((preset("Bterm", params=params), params, 2))
    for text in (*SIDED, "x*y = y*x", "x /\\ y = y /\\ x"):
        eq = parse_equation(text)
        cases.append((eq, P23, 0 if len(free_vars(eq.lhs) | free_vars(eq.rhs)) == 3 else 1))
    holding = 0
    for eq, params, R in cases:
        want, met = walk_operands(eq, params, R)
        if not want.holds:
            continue
        holding += 1
        counting, calls = counting_ops()
        assert check_equation(eq, params, R, ops=counting) == want
        want_calls = {name: len(tuples) for name, tuples in met.items()}
        assert calls == want_calls, render_equation(eq)
    assert holding == 28
    # x*y reads its table along rows, y*x along columns: 22^2 pairs, each
    # made once
    counting, calls = counting_ops()
    assert check_equation(parse_equation("x*y = y*x"), P23, 1, ops=counting).holds
    assert calls == {"mul": 484}


def test_compiled_check_runs_each_operation_once_per_distinct_operand():
    elems = structure.Window(P23, 1).elements()
    N = len(elems)
    counting, calls = counting_ops()
    eq = parse_equation("x^4 * y^4 = y^4 * x^4")
    verdict = check_equation(eq, P23, 1, ops=counting)
    assert (verdict.holds, verdict.checked) == (True, N * N)
    # x^4 and y^4 read one table: once per candidate; a plain walk makes
    # 4 * N^2 calls
    assert calls["power"] == N
    # x*y, y*z, x*(y*z) and (x*y)*z, each with its left operand constant
    # along its row, read one table: once per distinct pair met; a plain
    # walk makes 4 * N^3 calls
    counting, calls = counting_ops()
    verdict = check_equation(parse_equation("x*(y*z) = (x*y)*z"), P23, 1, ops=counting)
    assert (verdict.holds, verdict.checked) == (True, N**3)
    products = {core.ap_mul(a, b) for a in elems for b in elems}
    pairs = {*itertools.product(elems, elems), *itertools.product(elems, products),
             *itertools.product(products, elems)}
    assert calls == {"mul": len(pairs)}


def raising_ops(seed):
    """Core operations, each of which raises its own error on a seeded
    fifth of its operand tuples."""
    def guard(name, fn):
        def op(*args):
            if random.Random(repr((seed, name, args))).random() < 0.2:
                raise ArithmeticError(name, *args)
            return fn(*args)
        return op
    return SimpleNamespace(**{name: guard(name, getattr(core.REFERENCE, name))
                              for name in PROTOCOL})


def outcome(check, *args, **kw):
    try:
        return check(*args, **kw)
    except ArithmeticError as exc:
        return exc.args


def test_compiled_check_raises_where_and_what_the_walk_raises():
    # the compiled order runs ~x (level 0) before y^2 (level 1), and a
    # closed ~bot before either; the walk meets y^2 first in both
    always = reference_ops()
    always.power = lambda a, k: (_ for _ in ()).throw(ArithmeticError("power"))
    always.inv = lambda a: (_ for _ in ()).throw(ArithmeticError("inv"))
    for text in ("y^2 = ~x", "y^2 = ~bot", "x * y^2 = ~x"):
        with pytest.raises(ArithmeticError, match="power"):
            check_equation(parse_equation(text), P23, 0, ops=always)
    # a closed equation raises while it compiles, before any assignment
    for text in ("~bot * top = top", "2.bot = bot^0"):
        eq = parse_equation(text)
        for ops in (always, *map(raising_ops, range(8))):
            got = outcome(check_equation, eq, P23, 0, ops=ops)
            assert got == outcome(walk_check, eq, P23, 0, ops=ops), text
    assert outcome(check_equation, parse_equation("~bot * top = top"), P23, 0,
                   ops=always) == ("inv",)
    raised = 0
    for seed, (eq, params, R) in enumerate(random_cases(seed=7, count=60)):
        ops = raising_ops(seed)
        got = outcome(check_equation, eq, params, R, ops=ops)
        assert got == outcome(walk_check, eq, params, R, ops=ops)
        raised += isinstance(got, tuple)
    assert raised > 20


def test_the_compiled_check_never_replays_the_walk(monkeypatch):
    # no operation of the reference or of a mutation bundle raises: the
    # bundles turn an error into the invalid marker
    def replay(*args):
        raise AssertionError("replayed the walk")

    monkeypatch.setattr(terms, "_walk_failure", replay)
    for ops in (*OPS.values(), other_meet_ops()):
        for n, p, R, text in BENCH_LINES:
            assert_same(parse_equation(text), AlgebraParams(n, p), R, ops=ops)
        for text in DIRECT_ROWS:
            assert_same(parse_equation(text), P23, 1, ops=ops)
        for text in (*PLANE_SHAPES, *SIDED):
            eq = parse_equation(text)
            assert_same(eq, *plane_point(eq), ops=ops)
        for eq, params, R in random_cases(seed=2024, count=60):
            assert_same(eq, params, R, ops=ops)


def test_compiled_check_raises_where_the_walk_raises_within_a_row():
    # the row of y^2 is built before the row of ~y, and raises first at
    # y = elems[5]; the walk meets ~y raising at y = elems[3]
    elems = structure.Window(P23, 1).elements()
    position = elems.index

    def ops_agreeing_below(agree):
        """Power raises from position 5 and the involution from 3; below
        agree the involution gives the square, so y^2 = ~y holds there."""
        ops = reference_ops()

        def power(a, k):
            if position(a) >= 5:
                raise ArithmeticError("power", position(a))
            return core.ap_pow(a, k)

        def inv(a):
            if position(a) >= 3:
                raise ArithmeticError("inv", position(a))
            return core.ap_pow(a, 2) if position(a) < agree else core.ap_inv(a)

        ops.power, ops.inv = power, inv
        return ops

    eq = parse_equation("y^2 = ~y")
    ops = ops_agreeing_below(3)
    assert outcome(walk_check, eq, P23, 1, ops=ops) == ("inv", 3)
    assert outcome(check_equation, eq, P23, 1, ops=ops) == ("inv", 3)
    # a counterexample before the first raising position wins
    ops = ops_agreeing_below(2)
    want = walk_check(eq, P23, 1, ops=ops)
    assert (want.holds, want.checked) == (False, 3)
    assert check_equation(eq, P23, 1, ops=ops) == want


def test_check_equation_obeys_the_budget(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "10")
    eq = parse_equation("x*(y*z) = (x*y)*z")
    P33 = AlgebraParams(3, 3)
    assert equation_estimate(eq, P33, 3) == 74**3
    with pytest.raises(BudgetError) as exc:
        check_equation(eq, P33, 3)
    assert str(exc.value) == (
        "eq at n=3 p=3 R=3 needs about 405224 checks, over the budget of 10"
    )
    verdict = check_equation(eq, P33, 3, force=True)
    assert (verdict.holds, verdict.checked) == (True, 405224)
    # the estimate counts the candidates left after the domain filter
    monkeypatch.setenv(BUDGET_ENV, "1")
    top = core.ap_top(P23)
    assert equation_estimate(preset("EM", 2), P23, 2, domain=lambda a: a == top) == 1
    assert check_equation(preset("EM", 2), P23, 2, domain=lambda a: a == top).holds
    with pytest.raises(BudgetError):
        check_equation(parse_equation("x * y = y * x"), P23, 0)


def test_a_forced_check_makes_no_estimate(monkeypatch):
    # force skips the gate, so nothing counts the window or the domain
    def estimate(*args, **kwargs):
        raise AssertionError("equation_estimate called")

    eq, top = preset("EM", 2), core.ap_top(P23)
    want = [check_equation(eq, P23, 2), check_equation(eq, P23, 2, domain=lambda a: a == top)]
    monkeypatch.setattr(terms, "equation_estimate", estimate)
    assert [check_equation(eq, P23, 2, force=True),
            check_equation(eq, P23, 2, domain=lambda a: a == top, force=True)] == want
    with pytest.raises(AssertionError, match="equation_estimate called"):
        check_equation(eq, P23, 2)
