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
assigns its last variable.  The nodes that apply one operation share its
results, one table per operand layout (which operand, if any, stays
constant along a row), so while no operation raises, each runs once per
distinct tuple of operand values in each layout.  When one raises, the
check drops the compiled loop and walks both trees on every assignment
in order, so it ends as a plain walk does.  The two innermost variables
run together, as blocks of interned ids: a node whose last variable is
the second-innermost one gets a row over a block of that variable's
candidates, and a node of the innermost level a plane, one row over all
innermost candidates per candidate in the block.  A one-variable
equation runs its variable's candidates as blocks the same way.  The two
sides compare as lists of rows.  Blocks start at one candidate and
double, so a check that fails early builds little.  A node whose one
varying operand is its level's variable keeps, in its operation's table,
its row over all the candidates per constant operand, or, as a meet or
join under an OpsBundle, reads its closed-form row and calls nothing;
any other maps its operation's table over its operands' rows.  eval_term
walks the same case analysis recursively.  Both take their operations
from core.REFERENCE unless given another bundle.
"""

from __future__ import annotations

import itertools
import operator
import re

from resilat import core, structure
from resilat.core import AlgebraParams, ApElem, _Record


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


class Term(_Record):
    """A term node.  Its type's row: fields, in constructor order; symbol,
    its concrete syntax; strength, how tightly it binds; right, whether an
    infix operator associates to the right; and op, the OpsBundle method
    that computes it.  The parser, _render and _node read the rows.  A
    node equals only a node of its own type, so x*y and x /\\ y are
    different dict keys."""

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


class _Table(dict):
    """The results of one operation in one operand layout, shared by every
    subterm that applies the operation so.  It maps the id of the operand
    that stays constant along a row (None where none does) to a dict from
    the varying operand's id, or the pair of ids where both vary, to the
    result's id.  rows maps a constant id to its results over all N
    candidates, ids 0..N-1, once a whole row (see _first_failure) has read
    them; a constant's dict, made when first read, starts from its row."""

    __slots__ = ("rows",)

    def __init__(self):  # a dict starts empty: nothing for dict.__init__
        self.rows = {}

    def __missing__(self, k) -> dict:
        got = self[k] = dict(enumerate(self.rows[k])) if k in self.rows else {}
        return got


def _step(fn, out, args, slots, values, intern, memo):
    """One compiled subterm outside the two innermost levels: set slots[out]
    to the id of fn applied to the values whose ids sit in the args slots.
    memo is its operation's table with no operand constant, keyed by the
    operand's id, or by the pair of ids of a binary operation."""
    def step():
        ks = [slots[a] for a in args]
        key = tuple(ks) if len(ks) == 2 else ks[0]
        got = memo.get(key)
        if got is None:
            got = memo[key] = intern(fn(*map(values.__getitem__, ks)))
        slots[out] = got
    return step


def _stretch(rows: list, n: int) -> list:
    """rows as n rows: a single row stands for every row."""
    return rows if len(rows) == n else rows * n


def _results(fn, args, c, k, keys, values, intern) -> list[int]:
    """The ids of fn over keys, with k the constant operand's id.  c is
    the slot of the constant operand, or None when no operand is constant;
    then a key is the pair of operand ids of a binary fn, or the one
    operand's id."""
    if c is None and len(args) == 2:
        got = [fn(values[a], values[b]) for a, b in keys]
    elif c is None:
        got = [fn(values[a]) for a in keys]
    elif args[0] == c:
        const = values[k]
        got = [fn(const, values[a]) for a in keys]
    else:
        const = values[k]
        got = [fn(values[a], const) for a in keys]
    return list(map(intern, got))


def _row(fn, out, args, levels, sec, slots, grid, values, intern, table):
    """One compiled subterm at one of the two innermost levels: set
    grid[out] to its rows of ids over the current block, read from table,
    its operation's _Table for its operand layout.

    A subterm of the second-innermost level, sec, has one row, over the
    block's candidates of that variable.  One of the innermost level has a
    plane: a row over the innermost variable's candidates for each
    candidate in the block, or one row for all when nothing in it varies
    with sec.  Its varying operands, those of its own level, read their
    rows from grid.  Along a row the other operand, if any, is constant:
    an outer subterm, whose id sits in slots, or, under the innermost
    level, a subterm of level sec, whose row holds one id per row of the
    plane.

    Each row is one map of the constant's table's get over the varying
    keys.  The misses are filled in one batch per constant id, so while
    nothing raises fn runs once per distinct key, across every subterm
    that shares the table.
    """
    level = max(levels[a] for a in args)
    varying = [a for a in args if levels[a] == level]
    c = next((a for a in args if levels[a] < level), None)

    def row():
        consts = [None] if c is None else grid[c][0] if levels[c] == sec else [slots[c]]
        operands = [grid[a] for a in varying]
        n = max(len(consts), *map(len, operands))
        keys = _stretch(operands[0], n)
        if len(varying) == 2:
            keys = [list(zip(a, b)) for a, b in zip(keys, _stretch(operands[1], n))]
        tables = _stretch(list(map(table.__getitem__, consts)), n)
        got = [list(map(t.get, ks)) for t, ks in zip(tables, keys)]
        if any(map(operator.contains, got, itertools.repeat(None))):
            missing: dict = {}  # constant id -> its table and its rows' keys
            for g, t, k, ks in zip(got, tables, _stretch(consts, n), keys):
                if None in g:
                    missing.setdefault(k, (t, set()))[1].update(ks)
            for k, (t, want) in missing.items():
                new = list(want.difference(t))  # not empty: a row missed
                t.update(zip(new, _results(fn, args, c, k, new, values, intern)))
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

    The innermost variables run as blocks.  For each assignment of the
    outer variables, the candidates of the second-innermost variable, or
    of the one variable of a one-variable equation, are taken in blocks of
    consecutive ones: the first block is one candidate, and each later one
    twice the one before, up to all N, carried over from one outer
    assignment to the next.  So a check that fails early builds little,
    and one that holds builds O(log N) blocks more than one per outer
    assignment.  In a block, a subterm of the second-innermost level gets a
    row of ids over the block, and one of the innermost level a plane (see
    _row); the two sides compare as lists of rows, and the first unequal
    row and position are the counterexample.  A one-variable equation's
    subterms have one row each, over the block.

    Subterms that apply one operation share its results: one _Table per
    operation, its exponent or multiplier included, and operand layout,
    which says which operand, if any, stays constant along a row.  Outer
    and closed subterms read the layout with none constant.  So while
    nothing raises, each operation runs once per distinct tuple of operand
    ids in each layout.

    Candidates are interned first: ids 0..N-1 are their positions, the
    window indices when window is given.  A subterm whose one varying
    operand is its level's variable makes its rows whole: over a block of
    all N candidates, it reads its table's row for each constant operand
    id, made once by filling the table over all N, or, as a meet or join
    under an OpsBundle with a window element, the lattice's closed-form
    row, sliced to the block.  Over a smaller block it reads the table as
    any other subterm does.  The lattice's rows are set up only when such
    a meet or join exists.

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
    grid: dict[int, list[list[int]]] = {}  # the innermost levels' rows
    tables: dict[tuple, _Table] = {}  # (op, exponent or multiplier, layout) -> results

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
        if not args:  # bot or top
            slots.append(intern(fn()))
            return slot
        slots.append(-1)
        rowed = level >= 0 and level in (sec, last)
        c = next((a for a in args if levels[a] < level), None) if rowed else None
        layout = None if c is None else args.index(c)
        table = tables.setdefault((t.op, getattr(t, "k", None), layout), _Table())
        if not rowed:
            step = _step(fn, slot, args, slots, values, intern, table[None])
            if level < 0:
                step()
            else:
                steps[level].append(step)
        elif [a for a in args if levels[a] == level] == [var_slots[level]]:
            steps[level].append(whole(t, fn, slot, args, level, c, table))
        else:
            steps[level].append(_row(fn, slot, args, levels, sec, slots, grid,
                                     values, intern, table))
        return slot

    def whole(t: Term, fn, out: int, args, level: int, c, table: _Table):
        # the row step of a subterm whose one varying operand is v, its
        # level's variable: over all N candidates, its row per constant id
        nonlocal lattice
        v = var_slots[level]
        closed, side = full and t.op in ("meet", "join"), t.op == "join"
        if closed and lattice is None:
            lattice = structure._lattice_row(window)
        over_block = _row(fn, out, args, levels, sec, slots, grid, values, intern, table)
        rows = table.rows

        def ids_of(k) -> list[int]:
            got = rows.get(k)
            if got is None:
                if closed and k < N:
                    got = lattice(k)[side]
                elif k not in table:  # no dict is made for the row alone
                    got = _results(fn, args, c, k, range(N), values, intern)
                else:
                    t = table[k]
                    new = [j for j in range(N) if j not in t]
                    t.update(zip(new, _results(fn, args, c, k, new, values, intern)))
                    got = list(map(t.__getitem__, range(N)))
                rows[k] = got
            return got

        def row():
            block = grid[v][0]
            if len(block) < N and not closed:
                over_block()  # only the block's keys, so an early failure builds little
                return
            consts = [None] if c is None else grid[c][0] if levels[c] == sec else [slots[c]]
            got = list(map(rows.get, consts))
            if None in got:
                got = list(map(ids_of, consts))
            if len(block) < N:  # the block's ids are its candidates' positions
                got = [g[block[0]:block[0] + len(block)] for g in got]
            grid[out] = got
        return row

    def side(s: int, count: int, width: int) -> list[list[int]]:
        """Slot s's ids as count rows of width, whatever its level."""
        if levels[s] == last:
            return _stretch(grid[s], count)
        if levels[s] == sec:
            return [[k] * width for k in grid[s][0]]
        return [[slots[s]] * width] * count

    def run(lo: int, hi: int) -> list[int] | None:
        """The positions of the first (candidate of level sec, candidate of
        the innermost level) at which the sides differ over the block
        lo..hi-1, or of the innermost candidate alone in a one-variable
        equation; None if they agree."""
        if sec is None:
            grid[var_slots[last]] = [elem_ids[lo:hi]]
            count, width = 1, hi - lo
        else:
            grid[var_slots[sec]] = [elem_ids[lo:hi]]
            for step in steps[sec]:
                step()
            count, width = hi - lo, N
        for step in steps[last]:
            step()
        found = _first_difference(side(lhs, count, width), side(rhs, count, width))
        if found is None:
            return None
        return [lo + found[1]] if sec is None else [lo + found[0], found[1]]

    size = 1  # candidates in the next block

    def blocks() -> list[int] | None:
        nonlocal size
        lo = 0
        while lo < N:
            hi = min(lo + size, N)
            found = run(lo, hi)
            if found is not None:
                return found
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
    elements are: subterms that apply one operation share its results, so
    while nothing raises, each operation runs once per distinct tuple of
    operands in each operand layout, by which operand, the left, the right
    or neither, stays constant along the checker's rows.  When an
    operation raises, the check walks both trees again on every assignment
    in order, so it returns or raises what a plain walk does.
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
