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
subterm becomes one node, and every node keeps its value by one rule: as
rows of interned ids, recomputed only when the loop gives its last
variable new candidates.  The nodes that apply one operation share one
table of its results, keyed by the ids of its operands, so while no
operation raises, each runs once per distinct tuple of operand values.
When one raises, the check drops the compiled loop and walks both trees
on every assignment in order, so it ends as a plain walk does.  One
search loop takes an outer variable's candidates one at a time, the
innermost variable's all at once, and the second-innermost variable's,
or a one-variable equation's one, in blocks that start at one candidate
and double, so a check that fails early builds little.  A node of an
outer level has one row of one id, one of the second-innermost level a
row over the block, and one of the innermost level a plane, one row over
all innermost candidates per candidate in the block; the two sides
compare as lists of rows.  A node whose one varying operand is its
level's variable keeps, in its operation's table, its row over all the
candidates per value of the other operand, or, as a meet or join under
an OpsBundle, reads its closed-form row and calls nothing; any other
reads its operation's table along its operands' rows.  eval_term walks
the same case analysis recursively.  Both take their operations from
core.REFERENCE unless given another bundle.
"""

from __future__ import annotations

import collections
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

class _Table(dict):
    """The results of one operation, its exponent or multiplier included,
    shared by every subterm that applies it: left operand id (None for a
    unary operation) -> {right operand id: result id}.  Whole rows (see
    _row) are kept over ids 0..N-1, all the candidates: rows[k] with left
    id k, cols[k] with right id k.  A left id's dict, when first read,
    starts from its row.  closed, for a meet or a join under an OpsBundle,
    gives a window element's row in closed form."""

    __slots__ = ("fn", "values", "intern", "closed", "rows", "cols")

    def __init__(self, fn, values: list, intern):
        self.fn, self.values, self.intern = fn, values, intern
        self.closed, self.rows, self.cols = None, {}, {}

    def __missing__(self, a) -> dict:
        got = self[a] = dict(enumerate(self.rows[a])) if a in self.rows else {}
        return got

    def results(self, a, bs) -> list[int]:
        """The ids of fn on left id a and each right id in bs, unstored."""
        fn, values = self.fn, self.values
        if a is None:
            got = [fn(values[b]) for b in bs]
        else:
            x = values[a]
            got = [fn(x, values[b]) for b in bs]
        return list(map(self.intern, got))

    def fill(self, a, bs) -> dict:
        """Left id a's dict, its misses among bs computed in one batch."""
        t = self[a]
        new = list(bs - t.keys())
        t.update(zip(new, self.results(a, new)))
        return t

    def row(self, k, N: int, column: bool) -> list[int]:
        """cols[k] or rows[k], its misses computed in one batch.  A left id
        with no dict yet gets none for its row; a closed row serves either
        side, as meet and join commute."""
        kept = self.cols if column else self.rows
        got = kept.get(k)
        if got is None:
            if self.closed is not None and k < N:
                got = self.closed(k)
            elif column:
                x, fn, values = self.values[k], self.fn, self.values
                new = [a for a in range(N) if k not in self[a]]
                for a, r in zip(new, map(self.intern, [fn(values[a], x) for a in new])):
                    self[a][k] = r
                got = [self[a][k] for a in range(N)]
            elif k in self:
                got = list(map(self.fill(k, range(N)).__getitem__, range(N)))
            else:
                got = self.results(k, range(N))
            kept[k] = got
        return got


def _stretch(rows: list, n: int) -> list:
    """rows as n rows: a single row stands for every row."""
    return rows if len(rows) == n else rows * n


def _row(table: _Table, out, args, levels, grid, v, N: int):
    """One compiled subterm, of any level or closed: set grid[out] to its
    rows of ids over the current candidates, read from table.

    A variable's one row is its current candidates: one at an outer
    level, a block at the second-innermost level or a lone variable's, and
    all N at the innermost level under a block.  A subterm has one row,
    or, at the innermost level under a block, a plane: a row over the
    innermost candidates for each candidate in the block, or one row for
    all when nothing in it varies with the block.  Its varying operands,
    those of its own level, read their rows from grid.  Along a row the
    other operand, if any, is constant: an earlier level's subterm, whose
    one row holds one id, or one id per row of the plane.  The misses are
    filled in one batch per left id.  A closed subterm runs once, when it
    is compiled.

    A whole row's one varying operand is v, its level's variable.  Over
    all N candidates it is its table's row for its constant operand, kept
    from one outer assignment to the next, and a closed one is sliced to
    fewer candidates.
    """
    level = levels[out]
    left, right = args if len(args) == 2 else (None, *args)
    lvar = left is not None and levels[left] == level
    whole = [a for a in args if levels[a] == level] == [v]

    def ids(a) -> list:
        # a's rows where it varies at this level, else its id on each row
        return grid[a] if levels[a] == level else grid[a][0]

    def read(ls, rs) -> list[list]:
        if lvar:
            return [list(map(dict.get, map(table.__getitem__, l), r)) for l, r in zip(ls, rs)]
        return [list(map(table[l].get, r)) for l, r in zip(ls, rs)]

    def row():
        ls, rs = [None] if left is None else ids(left), ids(right)
        if whole and (len(block := grid[v][0]) == N or table.closed is not None):
            ks, kept = (rs, table.cols) if lvar else (ls, table.rows)
            got = list(map(kept.get, ks))
            if None in got:
                got = [table.row(k, N, lvar) for k in ks]
            if len(block) < N:  # the block's ids are its candidates' positions
                got = [g[block[0]:block[0] + len(block)] for g in got]
            grid[out] = got
            return
        if lvar and levels[right] < level:  # a constant right operand: its id at each position
            rs = list(map(itertools.repeat, rs))
        n = max(len(ls), len(rs))
        ls, rs = _stretch(ls, n), _stretch(rs, n)
        got = read(ls, rs)
        if any(map(operator.contains, got, itertools.repeat(None))):
            wants = collections.defaultdict(set)  # left id -> right ids
            for g, l, r in zip(got, ls, rs):
                if None not in g:
                    continue
                if lvar:  # the missing pairs alone, as each has its own left id
                    missing = map(operator.is_, g, itertools.repeat(None))
                    for a, b in itertools.compress(zip(l, r), missing):
                        wants[a].add(b)
                else:
                    wants[l].update(r)
            for a, bs in wants.items():
                table.fill(a, bs)
            got = read(ls, rs)
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

    eq is compiled first: every distinct subterm becomes one _row, and its
    value is kept in grid as rows of ids.  Equal values share an id,
    handed out per call, so the two sides compare by id.  A subterm's
    level is the position in names of its last variable, and it is
    recomputed right after that variable takes new candidates, so work on
    outer variables is hoisted out of the inner loops; closed subterms run
    once, here.

    search takes the variables in order.  An outer variable takes its
    candidates one at a time, the innermost one all N at once, and the
    second-innermost one, or the one variable of a one-variable equation,
    blocks of consecutive ones: the first block is one candidate, and each
    later one twice the one before, up to all N, carried over from one
    outer assignment to the next.  So a check that fails early builds
    little, and one that holds builds O(log N) blocks more than one per
    outer assignment.  Per block the two sides compare as lists of rows,
    one per candidate in the block, over the innermost candidates (see
    _row), and the first unequal row and position are the counterexample.
    A one-variable equation's sides have one row each, over the block.

    Subterms that apply one operation share its results: one _Table per
    operation, its exponent or multiplier included, keyed by the ids of
    the left and the right operand.  So while nothing raises, each
    operation runs once per distinct tuple of operand ids.

    Candidates are interned first: ids 0..N-1 are their positions, the
    window indices when window is given.  A subterm whose one varying
    operand is its level's variable makes its rows whole: over all N
    candidates, it reads its table's row for each id of its other
    operand, made once over all N, or, as a meet or join under an
    OpsBundle with a window element, the lattice's closed-form row,
    sliced to its variable's candidates.  Over fewer candidates any other
    whole row reads the table as every subterm does, so an early failure
    builds little.

    The compiled order differs from the walk's, so when an operation
    raises, the compiled search is dropped and _walk_failure's outcome is
    the check's: the walk's counterexample, or the exception the walk
    meets first.
    """
    ids = structure._Ids(elems)  # ids 0..N-1 are the candidates' positions
    values, intern = ids.values, ids.__getitem__
    N = len(elems)

    levels: list[int] = []
    index: dict[Term, int] = {}
    var_nodes = [-1] * len(names)
    last = len(names) - 1
    inner = max(last - 1, 0)  # the level run as blocks: the second-innermost, or the only one
    steps: list[list] = [[] for _ in names]
    grid: dict[int, list[list[int]]] = {}  # each subterm's rows
    tables: dict[tuple, _Table] = {}  # (op, exponent or multiplier) -> results

    def add(t: Term) -> int:
        node = index.get(t)
        if node is not None:
            return node
        if isinstance(t, Var):
            node = index[t] = len(levels)
            levels.append(names.index(t.name))
            var_nodes[levels[node]] = node
            return node
        children, fn = _node(t, params, o)
        args = tuple(add(c) for c in children)
        level = max((levels[a] for a in args), default=-1)
        node = index[t] = len(levels)
        levels.append(level)
        if not args:  # bot or top
            grid[node] = [[intern(fn())]]
            return node
        key = (t.op, getattr(t, "k", None))
        table = tables.get(key)
        if table is None:
            table = tables[key] = _Table(fn, values, intern)
            if t.op in ("meet", "join") and window is not None and isinstance(o, core.OpsBundle):
                rows, side = structure._lattice_row(window), t.op == "join"
                table.closed = lambda k: rows(k)[side]
        row = _row(table, node, args, levels, grid, var_nodes[level] if level >= 0 else None, N)
        if level < 0:
            row()
        else:
            steps[level].append(row)
        return node

    def side(s: int, count: int, width: int) -> list[list[int]]:
        """Subterm s's ids as count rows of width."""
        if levels[s] == last:
            return _stretch(grid[s], count)
        return [[k] * width for k in _stretch(grid[s][0], count)]

    size = 1  # candidates in the next block

    def search(level: int) -> tuple[int, int] | None:
        """The first (row, position) at which the sides differ over the
        candidates of the variables from level on, the earlier ones' set in
        grid; None if they agree."""
        nonlocal size
        if level > last:
            block = grid[var_nodes[inner]][0]
            count, width = (1, len(block)) if inner == last else (len(block), N)
            return _first_difference(side(lhs, count, width), side(rhs, count, width))
        v, todo, lo = var_nodes[level], steps[level], 0
        while lo < N:
            hi = min(lo + (1 if level < inner else size if level == inner else N), N)
            grid[v] = [list(range(lo, hi))]
            for step in todo:
                step()
            found = search(level + 1)
            if found is not None:
                return found
            if level == inner:
                size = min(2 * size, N)
            lo = hi
        return None

    try:
        lhs, rhs = add(eq.lhs), add(eq.rhs)
        if not names:
            return [] if grid[lhs] != grid[rhs] else None
        found = search(0)
    except Exception:  # an operation raised: the plain walk's outcome is the check's
        return _walk_failure(eq, names, elems, params, o)
    if found is None:
        return None
    # a variable's row holds its candidates' positions; the unequal row
    # picks the block's, the unequal position the innermost variable's
    at = {inner: found[0], last: found[1]}
    return [grid[v][0][at.get(level, 0)] for level, v in enumerate(var_nodes)]


# ---------------------------------------------------------------------------
# Window-based equation checking.

class EquationVerdict(_Record):
    """Outcome of an exhaustive window check, qualified by the radius."""

    __slots__ = fields = ("holds", "radius", "checked", "counterexample")


def equation_estimate(eq: Equation, params: AlgebraParams, radius: int, domain=None) -> int:
    """The checks check_equation makes when eq holds, which the budget
    gates on: the candidate count to the power of the variable count.
    Without a domain the count is the window's closed form, so nothing is
    enumerated before the budget is enforced."""
    w = structure.Window(params, radius)
    count = len(w) if domain is None else len(list(filter(domain, w.elements())))
    return count ** len(free_vars(eq.lhs) | free_vars(eq.rhs))


def check_equation(
    eq: Equation,
    params: AlgebraParams,
    radius: int,
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
    operands.  When an operation raises, the check walks both trees again
    on every assignment in order, so it returns or raises what a plain
    walk does.
    """
    if radius < 0:
        raise ValueError(f"window radius must be >= 0, got {radius}")
    names = sorted(free_vars(eq.lhs) | free_vars(eq.rhs))
    structure.enforce_budget("eq", params, radius, equation_estimate(eq, params, radius, domain),
                             force=force)
    window = structure.Window(params, radius)
    elems = window.elements() if domain is None else tuple(filter(domain, window.elements()))
    o = core.REFERENCE if ops is None else ops
    picks = _first_failure(eq, names, elems, params, o, window if domain is None else None)
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
