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
assigns its last variable, and, while no operation raises, it calls its
operation once per distinct tuple of operand values.  When one raises,
the check drops the compiled loop and walks both trees on every
assignment in order, so it ends as a plain walk does.  The two innermost
variables run together, as blocks of interned ids: a node whose last
variable is the second-innermost one gets a row over a block of that
variable's candidates, and a node of the innermost level a plane, one
row over all innermost candidates per candidate in the block.  The two
sides compare as lists of rows.  Blocks start at one candidate and
double, so a check that fails early builds little.  A node whose one
varying operand is its level's variable runs its operation over all the
candidates in one pass per constant operand, or, as a meet or join under
an OpsBundle, reads its closed-form row and calls nothing; any other
maps its memo over its operands' rows.  eval_term walks the same case
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
        if not _IDENT_RE.match(name) or name in _CONSTANTS:
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

class _Ids(dict):
    """Value -> id.  A value met for the first time gets the next id, so
    equal values share one, and values[i] is the value of id i."""

    __slots__ = ("values",)

    def __init__(self):  # a dict starts empty: nothing for dict.__init__
        self.values = []

    def __missing__(self, value) -> int:
        i = self[value] = len(self.values)
        self.values.append(value)
        return i


def _step(fn, out, args, slots, values, intern, memo):
    """One compiled subterm outside the two innermost levels: set slots[out]
    to the id of fn applied to the values whose ids sit in the args slots.
    With a memo dict, fn runs once per distinct tuple of operand ids."""
    def step():
        key = tuple([slots[a] for a in args])
        got = None if memo is None else memo.get(key)
        if got is None:
            got = intern(fn(*[values[k] for k in key]))
            if memo is not None:
                memo[key] = got
        slots[out] = got
    return step


def _stretch(rows: list, n: int) -> list:
    """rows as n rows: a single row stands for every row."""
    return rows if len(rows) == n else rows * n


def _over(fn, args, c, const, operands) -> list:
    """fn's values with each of operands in turn as its varying operand,
    and const as operand c, when c is not None."""
    if c is None:
        return [fn(a) for a in operands]
    if args[0] == c:
        return [fn(const, a) for a in operands]
    return [fn(a, const) for a in operands]


def _row(fn, out, args, levels, sec, slots, grid, values, intern, memo):
    """One compiled subterm at one of the two innermost levels: set
    grid[out] to its rows of ids over the current block, where
    _first_failure does not make them whole.

    A subterm of the second-innermost level, sec, has one row, over the
    block's candidates of that variable.  One of the innermost level has a
    plane: a row over the innermost variable's candidates for each
    candidate in the block, or one row for all when nothing in it varies
    with sec.  Its varying operands, those of its own level, read their
    rows from grid.  Along a row the other operand, if any, is constant:
    an outer subterm, whose id sits in slots, or, under the innermost
    level, a subterm of level sec, whose row holds one id per row of the
    plane.

    The memo keys the varying operands' ids, as a pair when both vary, in
    a table per constant id when there is one, so each row is one map of a
    table's get over the varying ids.  fn runs only on the misses, once
    per distinct key while nothing raises.  Without a memo no key repeats
    across assignments, and a fresh one serves the block.
    """
    level = max(levels[a] for a in args)
    varying = [a for a in args if levels[a] == level]
    c = next((a for a in args if levels[a] < level), None)

    def compute(keys: list, k):
        # the ids of fn over keys, with k the constant operand's id
        if len(varying) == 2:
            return map(intern, [fn(values[a], values[b]) for a, b in keys])
        return map(intern, _over(fn, args, c, None if c is None else values[k],
                                 map(values.__getitem__, keys)))

    def row():
        m = {} if memo is None else memo
        consts = [None] if c is None else grid[c][0] if levels[c] == sec else [slots[c]]
        operands = [grid[a] for a in varying]
        n = max(len(consts), *map(len, operands))
        keys = _stretch(operands[0], n)
        if len(varying) == 2:
            keys = [list(zip(a, b)) for a, b in zip(keys, _stretch(operands[1], n))]
        tables = _stretch([m if k is None else m.get(k) or m.setdefault(k, {})
                           for k in consts], n)
        got = [list(map(t.get, ks)) for t, ks in zip(tables, keys)]
        if any(map(operator.contains, got, itertools.repeat(None))):
            missing: dict = {}  # constant id -> its table and its rows' keys
            for g, t, k, ks in zip(got, tables, _stretch(consts, n), keys):
                if None in g:
                    missing.setdefault(k, (t, set()))[1].update(ks)
            for k, (t, want) in missing.items():
                new = list(want.difference(t))  # not empty: a row missed
                t.update(zip(new, compute(new, k)))
            got = [list(map(t.get, ks)) for t, ks in zip(tables, keys)]
        grid[out] = got
    return row


def _first_difference(left: list[list[int]], right: list[list[int]]):
    """The first (row, position) at which two lists of rows of ids differ;
    None if none does."""
    if left == right:
        return None
    b = list(map(operator.ne, left, right)).index(True)
    return b, list(map(operator.ne, left[b], right[b])).index(True)


def _walk_failure(eq: Equation, names, elems, params, o) -> list[int] | None:
    """What _first_failure returns, by a plain walk of both trees on every
    assignment in canonical order: the left side, then the right."""
    for picks in itertools.product(range(len(elems)), repeat=len(names)):
        env = {name: elems[j] for name, j in zip(names, picks)}
        if _eval(eq.lhs, env, params, o) != _eval(eq.rhs, env, params, o):
            return list(picks)
    return None


def _first_failure(eq: Equation, names, elems, params, o, window=None) -> list[int] | None:
    """Positions in elems, one per name, of the first assignment in
    canonical order on which the two sides of eq differ; None if none does.

    eq is compiled first.  Every distinct subterm owns one slot.  A
    subterm's level is the position in names of its last variable, and
    its value is kept as ids: equal values share one, handed out per call,
    so the two sides compare by id.  Outside the two innermost levels a
    subterm is recomputed right after its variable is assigned, and its id
    sits in slots, so work on outer variables is hoisted out of the inner
    loops; closed subterms run once, here.

    The two innermost variables run as blocks.  For each assignment of the
    outer variables, the second-innermost variable's candidates are taken
    in blocks of consecutive ones: the first block is one candidate, and
    each later one twice the one before, up to all N, carried over from
    one outer assignment to the next.  So a check that fails early builds
    little, and one that holds builds O(log N) blocks more than one per
    outer assignment.  In a block, a subterm of the second-innermost level
    gets a row of ids over the block, and one of the innermost level a
    plane (see _row); the two sides compare as lists of rows, and the first
    unequal row and position are the counterexample.  A one-variable
    equation is a block of one row.  While nothing raises, a subterm calls
    its operation once per distinct tuple of operand ids, except when its
    operands are variables covering every level up to its own: no key can
    repeat there, so a memo would only cost memory.

    Candidates are interned first: ids 0..N-1 are their positions, the
    window indices when window is given.  A subterm whose one varying
    operand is its level's variable makes its rows whole: one pass of its
    operation over all N candidates per constant operand id, or an
    OpsBundle's closed-form meet or join row with a window element, kept
    per constant id (without a memo, the last one only) and sliced to the
    block.  The lattice's rows are set up only when such a meet or join
    exists.

    The compiled order differs from the walk's, so when an operation
    raises, the compiled search is dropped and _walk_failure's outcome is
    the check's: the walk's counterexample, or the exception the walk
    meets first.
    """
    ids = _Ids()
    values, intern = ids.values, ids.__getitem__
    full = window is not None and isinstance(o, core.OpsBundle)
    lattice = None  # structure._lattice_row(window), once a meet or join reads it
    N = len(elems)

    slots: list[int] = []
    levels: list[int] = []
    index: dict[Term, int] = {}
    var_slots = [-1] * len(names)
    last = len(names) - 1
    sec = last - 1 if last > 0 else None  # the second-innermost level
    inner = last if sec is None else sec  # the first level run as blocks
    steps: list[list] = [[] for _ in names]
    grid: dict[int, list[list[int]]] = {}  # the two innermost levels' rows

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
        if level not in (sec, last):
            steps[level].append(_step(fn, slot, args, slots, values, intern, memo))
        elif [a for a in args if levels[a] == level] == [var_slots[level]]:
            steps[level].append(whole(t, fn, slot, args, level, memo))
        else:
            steps[level].append(_row(fn, slot, args, levels, sec, slots, grid,
                                     values, intern, memo))
        return slot

    def whole(t: Term, fn, out: int, args, level: int, memo):
        # rows made whole, N ids per constant id
        nonlocal lattice
        v = var_slots[level]
        c = next((a for a in args if a != v), None)
        by_row = c is not None and levels[c] == sec
        closed, side = full and t.op in ("meet", "join"), t.op == "join"
        if closed and lattice is None:
            lattice = structure._lattice_row(window)
        done = {}

        def ids_of(k: int) -> list[int]:
            got = done.get(k)
            if got is None:
                if closed and k < N:
                    got = lattice(k)[side]
                else:
                    const = None if c is None else values[k]
                    got = list(map(intern, _over(fn, args, c, const, elems)))
                if memo is None:  # k recurs only in one assignment's blocks
                    done.clear()
                done[k] = got
            return got

        def row():
            if by_row:
                ks = grid[c][0]
                got = list(map(done.get, ks))
                grid[out] = list(map(ids_of, ks)) if None in got else got
                return
            got = ids_of(-1 if c is None else slots[c])  # -1: a unary's one key
            if level == sec:  # the block's ids are its candidates' positions
                block = grid[v][0]
                got = got if len(block) == N else got[block[0]:block[0] + len(block)]
            grid[out] = [got]
        return row

    def side(s: int, size: int) -> list[list[int]]:
        """Slot s's ids as size rows of N, whatever its level."""
        if levels[s] == last:
            return _stretch(grid[s], size)
        if levels[s] == sec:
            return [[k] * N for k in grid[s][0]]
        return [[slots[s]] * N] * size

    def run(lo: int, hi: int):
        """The first (candidate of level sec, candidate of the innermost
        level) at which the sides differ over the block lo..hi-1; None if
        they agree."""
        if sec is not None:
            grid[var_slots[sec]] = [elem_ids[lo:hi]]
            for step in steps[sec]:
                step()
        for step in steps[last]:
            step()
        found = _first_difference(side(lhs, hi - lo), side(rhs, hi - lo))
        return None if found is None else (lo + found[0], found[1])

    size = 1  # rows in the next block

    def blocks() -> list[int] | None:
        nonlocal size
        lo, count = 0, N if sec is not None else 1
        while lo < count:
            hi = min(lo + size, count)
            found = run(lo, hi)
            if found is not None:
                return list(found) if sec is not None else [found[1]]
            lo, size = hi, min(2 * size, N)
        return None

    def search(level: int) -> list[int] | None:
        if level == inner:
            return blocks()
        slot, todo = var_slots[level], steps[level]
        for j, vid in enumerate(elem_ids):
            slots[slot] = vid
            for step in todo:
                step()
            found = search(level + 1)
            if found is not None:
                return [j, *found]
        return None

    elem_ids = list(map(intern, elems))  # ids 0..N-1 before any closed subterm
    try:
        lhs, rhs = add(eq.lhs), add(eq.rhs)
        if not names:
            return [] if slots[lhs] != slots[rhs] else None
        grid[var_slots[last]] = [elem_ids]
        return search(0)
    except Exception:  # an operation raised: the plain walk's outcome is the check's
        pass
    return _walk_failure(eq, names, elems, params, o)


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
    elements are: while nothing raises, each operation runs once per
    distinct tuple of operands.  When an operation raises, the check walks
    both trees again on every assignment in order, so it returns or raises
    what a plain walk does.
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
