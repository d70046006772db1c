"""Term syntax, parser, evaluator, and window-based equation checking.

Grammar, loosest to tightest binding (arrow is right associative):

    equation := term ("≈" | "=") term
    term     := join ("->" term)?
    join     := meet ("\\/" meet)*
    meet     := mul ("/\\" mul)*
    mul      := unary ("*" unary)*
    unary    := "~" unary | "!" unary | INT "." unary | postfix
    postfix  := atom ("^" INT)*
    atom     := "bot" | "top" | IDENT | "(" term ")"

"~" is the involution and "!" is negation (x -> bot); the two coincide
on these algebras but both spellings parse.  The dual sum has no
concrete syntax; Oplus nodes render desugared as ~(~l * ~r).  Each node
type is one row of class attributes (fields, symbol, binding strength,
OpsBundle method), which the parser's precedence loop, _render and _node
all read.

check_equation compiles its equation once per call.  Each distinct
subterm becomes one node.  A node is recomputed only when the loop
assigns its last variable, and it calls its operation once per distinct
tuple of operand values.  The innermost variable runs as whole rows of
interned ids, and the two sides compare as lists.  A node at that level
whose one varying operand is that variable maps its operation over the
candidates once per constant operand, or, as a meet or join under an
OpsBundle, reads its closed-form row and calls nothing; any other maps
its memo over its operands' rows.  eval_term walks the same case
analysis recursively.  Both take their operations from core.REFERENCE
unless given another bundle.
"""

from __future__ import annotations

import itertools
import operator
import re

from resilat import core, structure
from resilat.core import AlgebraParams, ApElem


class ParseError(ValueError):
    """Syntax error with the offending input position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvalError(ValueError):
    """Evaluation failure, e.g. an unbound variable."""


# ---------------------------------------------------------------------------
# Abstract syntax: one row of class attributes per node type.

_IDENT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

# binding strengths, loosest first
_ARROW, _JOIN, _MEET, _MUL, _UNARY, _POSTFIX, _ATOM = range(7)


class _Record:
    """An immutable record whose fields are its slots, given positionally.
    It equals only a record of its own type with equal fields, and hashes
    likewise, so x*y and x /\\ y are different dict keys."""

    __slots__ = fields = ()

    def __init__(self, *values):
        if len(values) != len(self.fields):
            raise TypeError(f"{type(self).__name__} takes {len(self.fields)} fields")
        for name, value in zip(self.fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((type(self), self._values()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._values()))})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__


class Term(_Record):
    """A term node.  Its type's row: fields, in constructor order; symbol,
    its concrete syntax; strength, how tightly it binds; right, whether an
    infix operator associates to the right; and op, the OpsBundle method
    that computes it.  The parser, _render and _node read the rows."""

    __slots__ = ()
    symbol = op = ""
    strength = _ATOM


class Var(Term):
    __slots__ = fields = ("name",)

    def __init__(self, name: str):
        if not _IDENT_RE.match(name):
            raise ValueError(f"bad variable name {name!r}")
        super().__init__(name)


class Bot(Term):
    __slots__ = ()
    symbol = "bot"


class Top(Term):
    __slots__ = ()
    symbol = "top"


class _Binary(Term):
    __slots__ = fields = ("l", "r")
    right = False


class Arrow(_Binary):
    __slots__ = ()
    symbol, strength, op, right = "->", _ARROW, "div", True


class Join(_Binary):
    __slots__ = ()
    symbol, strength, op = "\\/", _JOIN, "join"


class Meet(_Binary):
    __slots__ = ()
    symbol, strength, op = "/\\", _MEET, "meet"


class Star(_Binary):
    __slots__ = ()
    symbol, strength, op = "*", _MUL, "mul"


class Oplus(_Binary):
    __slots__ = ()
    op = "oplus"


class _Prefix(Term):
    __slots__ = fields = ("t",)
    strength = _UNARY


class Neg(_Prefix):
    __slots__ = ()
    symbol, op = "!", "neg"


class Inv(_Prefix):
    __slots__ = ()
    symbol, op = "~", "inv"


class Pow(Term):
    __slots__ = fields = ("t", "k")
    symbol, strength, op = "^", _POSTFIX, "power"

    def __init__(self, t: Term, k: int):
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        super().__init__(t, k)


class Mult(Term):
    __slots__ = fields = ("k", "t")
    symbol, strength, op = ".", _UNARY, "multiple"

    def __init__(self, k: int, t: Term):
        if k < 0:
            raise ValueError(f"negative multiple {k}")
        super().__init__(k, t)


class Equation(_Record):
    __slots__ = fields = ("lhs", "rhs")


def free_vars(t: Term) -> frozenset[str]:
    """Names of the variables occurring in t."""
    if isinstance(t, Var):
        return frozenset({t.name})
    children, _ = _node(t, None, core.REFERENCE)
    return frozenset().union(*map(free_vars, children))


# ---------------------------------------------------------------------------
# Tokenizer and parser.

# a token's kind is its group's name, or else the symbol itself
_TOKEN_RE = re.compile(r"(?P<int>\d+)|(?P<ident>[a-z][a-z0-9_]*)|(?P<eq>≈|=)"
                       r"|->|\\/|/\\|[*~!.^()]|\s+")
_INFIX = {node.symbol: node for node in (Arrow, Join, Meet, Star)}
_PREFIX = {node.symbol: node for node in (Neg, Inv)}
_CONSTANTS = {node.symbol: node for node in (Bot, Top)}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        word = match.group()
        if not word.isspace():
            tokens.append((match.lastgroup or word, word, pos))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def finish(self, what: str) -> None:
        kind, text, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"unexpected {text!r} after {what}", pos)

    def term(self, minimum: int = _ARROW) -> Term:
        """A term whose infix operators bind at least at minimum.  A right
        associative operator reads its right operand at its own strength,
        any other one strength tighter."""
        out = self.unary()
        while (node := _INFIX.get(self.tokens[self.i][0])) and node.strength >= minimum:
            self.i += 1
            out = node(out, self.term(node.strength if node.right else node.strength + 1))
        return out

    def unary(self) -> Term:
        kind, text, pos = self.tokens[self.i]
        self.i += 1
        if kind in _PREFIX:
            return _PREFIX[kind](self.unary())
        if kind == "int":
            self.expect(Mult.symbol, "'.' after a multiplier")
            return Mult(int(text), self.unary())
        if kind == "ident":
            out = _CONSTANTS[text]() if text in _CONSTANTS else Var(text)
        elif kind == "(":
            out = self.term()
            self.expect(")", "')'")
        else:
            raise ParseError(f"expected a term, found {text or 'end of input'!r}", pos)
        while self.tokens[self.i][0] == Pow.symbol:
            self.i += 1
            out = Pow(out, int(self.expect("int", "an exponent")[1]))
        return out


def parse_term(text: str) -> Term:
    """Parse one term; raises ParseError with a position on bad input."""
    parser = _Parser(text)
    out = parser.term()
    parser.finish("term")
    return out


def parse_equation(text: str) -> Equation:
    """Parse 'term ≈ term' (or with '=')."""
    parser = _Parser(text)
    lhs = parser.term()
    parser.expect("eq", "'≈' or '='")
    rhs = parser.term()
    parser.finish("equation")
    return Equation(lhs, rhs)


# ---------------------------------------------------------------------------
# Rendering (round-trips through the parser for parser-built trees).

def _wrap(t: Term, minimum: int) -> str:
    s, strength = _render(t)
    return f"({s})" if strength < minimum else s


def _render(t: Term) -> tuple[str, int]:
    if isinstance(t, Var):
        return t.name, _ATOM
    s = t.strength
    if isinstance(t, Oplus):
        return _render(Inv(Star(Inv(t.l), Inv(t.r))))
    if isinstance(t, _Binary):
        left, right = (s + 1, s) if t.right else (s, s + 1)
        return f"{_wrap(t.l, left)} {t.symbol} {_wrap(t.r, right)}", s
    if isinstance(t, _Prefix):
        return f"{t.symbol}{_wrap(t.t, s)}", s
    if isinstance(t, Mult):
        return f"{t.k}{t.symbol}{_wrap(t.t, s)}", s
    if isinstance(t, Pow):
        return f"{_wrap(t.t, s)}{t.symbol}{t.k}", s
    return t.symbol, s  # bot or top


def render_term(t: Term) -> str:
    return _render(t)[0]


def render_equation(eq: Equation) -> str:
    return f"{render_term(eq.lhs)} ≈ {render_term(eq.rhs)}"


# ---------------------------------------------------------------------------
# Evaluation.

def _node(t: Term, params: AlgebraParams | None, o):
    """The children of a non-variable term and the function that maps
    their values to its value, the row's op read from o.

    This is the one case analysis over node types: free_vars and eval_term
    walk it, and check_equation compiles it once per call.
    """
    if isinstance(t, Bot):
        return (), lambda: core.ap_bot(params)
    if isinstance(t, Top):
        return (), lambda: core.ap_top(params)
    fn = getattr(o, t.op)
    if isinstance(t, Pow):
        return (t.t,), lambda a: fn(a, t.k)
    if isinstance(t, Mult):
        return (t.t,), lambda a: fn(t.k, a)
    return t._values(), fn  # every field of an infix or prefix node is a child


def eval_term(t: Term, env: dict[str, ApElem], params: AlgebraParams, ops=None):
    """Evaluate t under env; ops may substitute an operation bundle."""
    return _eval(t, env, params, core.REFERENCE if ops is None else ops)


def _eval(t, env, params, o):
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise EvalError(f"unbound variable {t.name!r}") from None
    children, fn = _node(t, params, o)
    return fn(*[_eval(c, env, params, o) for c in children])


# ---------------------------------------------------------------------------
# Compiled evaluation over a sequence of assignments.

def _step(fn, out, args, slots, values, intern, memo):
    """One compiled subterm below the last level: set slots[out] to the id
    of fn applied to the values whose ids sit in the args slots.  With a
    memo dict, fn runs once per distinct tuple of operand ids."""
    def step():
        key = tuple([slots[a] for a in args])
        got = None if memo is None else memo.get(key)
        if got is None:
            got = intern(fn(*[values[k] for k in key]))
            if memo is not None:
                memo[key] = got
        slots[out] = got
    return step


def _row(fn, out, args, levels, last, slots, rows, values, intern, memo):
    """One compiled subterm at the last level: set rows[out] to the ids of
    fn over the row, one per candidate of the last variable, where
    _first_failure does not make the row whole.

    An operand that varies with the last variable reads its row from rows;
    one of a lower level is constant along the row, and its id sits in
    slots.  The memo keys the varying operands' ids, as a pair when both
    vary, and under the constant operand's id when one is constant, so a
    row is one map of a table's get over the varying ids.  fn runs only on
    the misses, once per distinct key, in row order.  Without a memo no key
    can repeat, so fn runs once per position.
    """
    const = [a for a in args if levels[a] < last]
    if len(args) - len(const) == 2:
        a, b = args

        def keys():
            return zip(rows[a], rows[b])

        def call(key):
            return fn(values[key[0]], values[key[1]])
    else:
        (v,) = [a for a in args if a not in const]

        def keys():
            return rows[v]

        def call(key):
            return fn(*[values[key] if a == v else values[slots[a]] for a in args])

    if memo is None:
        def row():
            rows[out] = [intern(call(key)) for key in keys()]
        return row

    c = const[0] if const else None

    def table():  # with a constant operand, the memo's part for its id
        return memo if c is None else memo.get(slots[c]) or memo.setdefault(slots[c], {})

    def row():
        t = table()
        got = list(map(t.get, keys()))
        if None in got:
            for key in dict.fromkeys(keys()):
                if key not in t:
                    t[key] = intern(call(key))
            got = list(map(t.get, keys()))
        rows[out] = got
    return row


def _first_difference(left: list[int], right: list[int]) -> int | None:
    """The first position at which two rows of ids differ; None if none."""
    if left == right:
        return None
    return list(map(operator.ne, left, right)).index(True)


def _first_failure(eq: Equation, names, elems, params, o, window=None) -> list[int] | None:
    """Positions in elems, one per name, of the first assignment in
    canonical order on which the two sides of eq differ; None if none does.

    eq is compiled first.  Every distinct subterm owns one slot, which holds
    the id of its current value; ids are handed out per call, so equal
    values share one and the two sides compare by id.  A subterm's level
    is the position in names of its last variable: it is recomputed right
    after that variable is assigned, so work on outer variables is hoisted
    out of the inner loops and closed subterms run once, here.  The last
    level runs as rows: for each assignment of the outer variables, every
    last-level subterm gets its row of ids over all candidates, and the two
    sides compare as lists.  A subterm calls its operation once per
    distinct tuple of operand ids, except when its operands are variables
    covering every level up to its own: no key can repeat there, so a memo
    would only cost memory.

    Candidates are interned first: ids 0..N-1 are their positions, the
    window indices when window is given.  A full row whose one varying
    operand is the last variable is made whole: one map over the
    candidates, or an OpsBundle's closed-form meet or join row with a
    window element, kept per constant id where the subterm has a memo.

    The compiled order differs from the walk's, so when an operation
    raises, the row is run again one assignment at a time, and the
    assignment where an operation raises first is walked again: the
    exception the walk meets first is the one that surfaces.  The memos
    hold only values already computed, and the operations are pure, so a
    counterexample before that assignment still wins.
    """
    values: list = []
    ids: dict = {}
    full = window is not None and isinstance(o, core.OpsBundle)
    lattice = structure._lattice_row(window) if full else None

    def intern(v) -> int:
        i = ids.get(v)
        if i is None:
            i = ids[v] = len(values)
            values.append(v)
        return i

    slots: list[int] = []
    levels: list[int] = []
    index: dict[Term, int] = {}
    var_slots = [-1] * len(names)
    last = len(names) - 1
    steps: list[list] = [[] for _ in names]
    rows: dict[int, list[int]] = {}

    def add(t: Term) -> int:
        slot = index.get(t)
        if slot is not None:
            return slot
        if isinstance(t, Var):
            slot = index[t] = len(slots)
            levels.append(names.index(t.name))
            var_slots[levels[slot]] = slot
            slots.append(-1)
            return slot
        children, fn = _node(t, params, o)
        args = tuple(add(c) for c in children)
        level = max((levels[a] for a in args), default=-1)
        slot = index[t] = len(slots)
        levels.append(level)
        if level < 0:
            slots.append(intern(fn(*[values[slots[a]] for a in args])))
            return slot
        slots.append(-1)
        unique = all(a in var_slots for a in args) and (
            {levels[a] for a in args} == set(range(level + 1))
        )
        memo = None if unique else {}
        if level < last:
            steps[level].append(_step(fn, slot, args, slots, values, intern, memo))
            return slot
        step = _row(fn, slot, args, levels, last, slots, rows, values, intern, memo)
        if [a for a in args if levels[a] == last] == [var_slots[last]]:
            step = whole(t, fn, slot, args, memo, step)
        steps[level].append(step)
        return slot

    def whole(t: Term, fn, out: int, args, memo, per_key):
        # a full row made whole, N ids per constant id; rows of one per_key
        v = var_slots[last]
        c = next((a for a in args if a != v), v)  # unary: slots[v] stays -1
        closed, side = lattice and t.op in ("meet", "join"), t.op == "join"
        done = {}

        def row():
            if rows[v] is not elem_ids:
                return per_key()
            k = slots[c]
            got = done.get(k)
            if got is None:
                if closed and k < len(elems):
                    got = lattice(k)[side]
                else:
                    got = list(map(intern, map(fn, *[
                        elems if a == v else itertools.repeat(values[k]) for a in args])))
                if memo is not None:
                    done[k] = got
            rows[out] = got
        return row

    def scan(row: list[int]) -> int | None:
        """The first position in row, ids of the last variable, at which
        the two sides differ under the current outer assignment."""
        rows[var_slots[last]] = row
        for step in steps[last]:
            step()
        return _first_difference(
            *[rows[s] if levels[s] == last else [slots[s]] * len(row) for s in (lhs, rhs)]
        )

    # the assignment an exception was raised at; only written while it unwinds
    raised_at = [0] * len(names)

    def search(level: int) -> list[int] | None:
        j = 0
        try:
            if level == last:
                try:
                    found = scan(elem_ids)
                    return None if found is None else [found]
                except Exception:
                    pass  # rerun the row one assignment at a time
                for j, vid in enumerate(elem_ids):
                    if scan([vid]) is not None:
                        return [j]
                return None
            slot, todo = var_slots[level], steps[level]
            for j, vid in enumerate(elem_ids):
                slots[slot] = vid
                for step in todo:
                    step()
                found = search(level + 1)
                if found is not None:
                    return [j, *found]
            return None
        except Exception:
            raised_at[level] = j
            raise

    elem_ids = list(map(intern, elems))  # ids 0..N-1 before any closed subterm
    try:
        lhs, rhs = add(eq.lhs), add(eq.rhs)
        if not names:
            return [] if slots[lhs] != slots[rhs] else None
        return search(0)
    except Exception as exc:
        failure = exc
    env = {name: elems[j] for name, j in zip(names, raised_at)}
    _eval(eq.lhs, env, params, o)
    _eval(eq.rhs, env, params, o)
    raise failure


# ---------------------------------------------------------------------------
# Window-based equation checking.

class EquationVerdict(_Record):
    """Outcome of an exhaustive window check, qualified by the radius."""

    __slots__ = fields = ("holds", "radius", "checked", "counterexample")


def _candidates(params: AlgebraParams, radius: int, domain) -> tuple[ApElem, ...]:
    elems = structure.Window(params, radius).elements()
    return elems if domain is None else tuple(e for e in elems if domain(e))


def equation_estimate(eq: Equation, params: AlgebraParams, radius: int, domain=None) -> int:
    """The checks check_equation makes when eq holds, which the budget
    gates on: the candidate count to the power of the variable count."""
    names = free_vars(eq.lhs) | free_vars(eq.rhs)
    return len(_candidates(params, radius, domain)) ** len(names)


def check_equation(
    eq: Equation,
    params: AlgebraParams,
    radius: int,
    max_vars: int = 3,
    domain=None,
    ops=None,
    force: bool = False,
) -> EquationVerdict:
    """Test eq over every assignment from the radius-R window.

    Assignments run in a fixed order (variables sorted by name, values in
    window enumeration order), so the first counterexample is canonical.
    domain optionally restricts candidate values (a predicate on elements).
    A True verdict only speaks for the window, hence the radius field.
    Like the suites, the check raises BudgetError before it starts when
    equation_estimate exceeds the budget, unless force is set.

    A substitute ops bundle must be pure and return hashable values, as
    elements are: each operation runs once per distinct tuple of operands.
    An operation that raises does so at the same assignment, with the same
    exception, as under a plain walk of both trees.
    """
    if radius < 0:
        raise ValueError(f"window radius must be >= 0, got {radius}")
    names = sorted(free_vars(eq.lhs) | free_vars(eq.rhs))
    if len(names) > max_vars:
        raise ValueError(
            f"{len(names)} free variables exceed the cap of {max_vars}"
        )
    elems = _candidates(params, radius, domain)
    structure.enforce_budget("eq", params, radius, len(elems) ** len(names), force=force)
    if names and not elems:
        return EquationVerdict(True, radius, 0, None)
    window = structure.Window(params, radius) if domain is None else None
    o = core.REFERENCE if ops is None else ops
    picks = _first_failure(eq, names, elems, params, o, window)
    if picks is None:
        return EquationVerdict(True, radius, len(elems) ** len(names), None)
    position = 0
    for j in picks:
        position = position * len(elems) + j
    env = {name: elems[j] for name, j in zip(names, picks)}
    return EquationVerdict(False, radius, position + 1, env)


# ---------------------------------------------------------------------------
# Named equation families.

def preset(name: str, m: int | None = None, params: AlgebraParams | None = None) -> Equation:
    """Named equations: E m, EM m, WL m, Bterm, WLwitness.

    E m:  x^(m+1) ≈ x^m           (m >= 1)
    EM m: x \\/ !(x^m) ≈ top       (m >= 1)
    WL m: m.x \\/ m.!x ≈ top       (m >= 1)
    Bterm (needs params): t \\/ !t ≈ top for t = (n+1).x^max(n+1,p)
    WLwitness (needs params): the WL equation at m = n
    """
    if name in ("E", "EM", "WL"):
        if m is None or m < 1:
            raise ValueError(f"preset {name} needs m >= 1, got {m}")
        if name == "E":
            return parse_equation(f"x^{m + 1} ≈ x^{m}")
        if name == "EM":
            return parse_equation(f"x \\/ !(x^{m}) ≈ top")
        return parse_equation(f"{m}.x \\/ {m}.!x ≈ top")
    if name == "Bterm":
        if params is None:
            raise ValueError("preset Bterm needs params")
        t = f"{params.n + 1}.x^{max(params.n + 1, params.p)}"
        return parse_equation(f"{t} \\/ !({t}) ≈ top")
    if name == "WLwitness":
        if params is None:
            raise ValueError("preset WLwitness needs params")
        return preset("WL", params.n)
    raise ValueError(f"unknown preset {name!r}")


def load_equations(text: str) -> list[tuple[int, Equation]]:
    """Parse equations from text, one per line; '#' starts a comment."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        out.append((lineno, parse_equation(stripped)))
    return out
