"""Finite windows, filters, quotients, and subalgebra membership.

The algebra is infinite (the lex factor is unbounded), so everything
here works over a window: the valid elements whose lex offset r lies in
[-R, R].  Windows are closed under meet and join but not under the
monoid operation or the residual, which can push |r| up to 2R; callers
that need closure under those must either enlarge R or test membership
of the results.  The check-count budget lives here too, next to the
windows whose sizes its estimates count, so that both the suites and
the equation checker obey it.

So do the per-window tables of one bundle: an id per distinct value of
every operation, the invalid marker's id, the order of those values and
their bits in the named filters.  Every id row, the meet and join rows
of window indices included, is bytes while its ids fit in a byte (at
most _BYTES of them) and a list past that.  The tables are themselves a
bundle, the one they tabulate, read from them in the window.  The filter
and complement scans and the induced-product report read the REFERENCE
tables whatever bundle a suite runs, and a scan on a cold window pays
their build first; the quotient classes are in closed form and read no
table.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_left, bisect_right
from functools import cache, lru_cache
from operator import or_

from resilat import core
from resilat.core import _INVALID, REFERENCE, AlgebraParams, ApElem, _Record
from resilat.core import OpsBundle, ParamsMismatchError

FILTER_IDS = ("Top", "FOmega", "Radical", "Improper")
SUBALGEBRA_IDS = ("L2", "ChangL2w", "HatLnp", "HatLn2", "A2", "Aq", "HatLq")
DEFAULT_BUDGET = 10**8
BUDGET_ENV = "RESILAT_BUDGET"
DEFAULT_GRID = tuple((n, p) for n in (1, 2, 3) for p in (1, 2, 3))


@lru_cache(maxsize=64)
def _window_elements(params: AlgebraParams, radius: int) -> tuple[ApElem, ...]:
    n, p, mk = params.n, params.p, core._mk
    out = []
    for alpha in range(p + 1):
        bound = n if alpha in (0, p) else n - 1
        for m in range(bound + 1):
            lo = 0 if m == 0 else -radius
            hi = 0 if m == bound else radius
            out += [mk(m, r, alpha, n, p) for r in range(lo, hi + 1)]
    return tuple(out)


class Window(_Record):
    """The valid elements with |r| <= R, in a fixed enumeration order:
    level ascending, then m ascending, then r ascending."""

    __slots__ = fields = ("params", "R")

    def __init__(self, params: AlgebraParams, R: int):
        if R < 0:
            raise ValueError(f"window radius must be >= 0, got {R}")
        super().__init__(params, R)

    def elements(self) -> tuple[ApElem, ...]:
        return _window_elements(self.params, self.R)

    def __len__(self) -> int:
        """The count of elements() in closed form, so a budget gate
        enumerates nothing: a level whose cap on m is c holds (2R+1)c + 1,
        and c is n on the two boundary levels and n-1 on the p-1 others."""
        n, p, R = self.params.n, self.params.p, self.R
        return 2 * ((2 * R + 1) * n + 1) + (p - 1) * ((2 * R + 1) * (n - 1) + 1)


# ---------------------------------------------------------------------------
# Per-window tables of one bundle.

def _mask(flags) -> int:
    """The int whose bit k is set when flags[k] is true."""
    return sum(1 << k for k, f in enumerate(flags) if f)


def _transpose(rows: list[int], width: int) -> list[int]:
    """The bit-matrix transpose: bit k of out[j] is bit j of rows[k].

    Every row must be below 2**width.  The rows are written out as one
    binary string, last row first, and each column is a strided slice of
    it, so the N x width bit loop runs in C.
    """
    if not rows:
        return [0] * width
    fmt = f"0{width}b"
    s = "".join([format(r, fmt) for r in reversed(rows)])
    return [int(s[c::width], 2) for c in range(width - 1, -1, -1)]


def _low(x: int) -> int:
    """Index of the lowest set bit of x > 0."""
    return (x & -x).bit_length() - 1


def _order_rows(values: list, n: int, p: int) -> list[int]:
    """ge[u] for each value id u: the mask of the ids at or above vals[u].

    The closed form of core.ap_leq: nonzero levels compare level, then
    pair; level 0 reverses the pair order; a level-0 value lies below a
    nonzero-level one whose pair is at or above its reflection
    (n-1-m, -r).  So each row is one or two bisects into per-level lists
    sorted by pair.  Every value sits on a level 0..p, as core's results
    and the mutants' results built by core._mk do, or is the invalid
    marker, which gets an empty row.
    """
    levels = [[] for _ in range(p + 1)]
    for u, v in enumerate(values):
        if v is not _INVALID:
            levels[v[2]].append(((v[0], v[1]), u))
    # keys[l] and suf[l], l >= 1: the ids on levels >= l merged by pair,
    # and suf[l][k] the mask of those from sorted position k on
    keys, suf = [None] * (p + 1), [None] * (p + 1)
    merged = []
    for level in range(p, 0, -1):
        merged = sorted(merged + levels[level])
        keys[level] = [q for q, _ in merged]
        suf[level] = list(itertools.accumulate(
            (1 << u for _, u in reversed(merged)), or_, initial=0))[::-1]
    # level 0, reversed: pre[k] is the mask of its first k ids by pair
    zero = sorted(levels[0])
    zkeys = [q for q, _ in zero]
    pre = list(itertools.accumulate((1 << u for _, u in zero), or_, initial=0))
    ge = []
    for v in values:
        if v is _INVALID:
            ge.append(0)
        elif v[2]:
            ge.append(suf[v[2]][bisect_left(keys[v[2]], (v[0], v[1]))])
        else:
            ge.append(pre[bisect_right(zkeys, (v[0], v[1]))]
                      | suf[1][bisect_left(keys[1], (n - 1 - v[0], -v[1]))])
    return ge


def _lattice_row(w: Window):
    """The function i -> (meet row, join row) of window element i: the
    window index of its meet and join with each window element.

    The window lists each level as a block ascending by pair.  The
    boundary levels hold the whole chain of pairs and the middle levels
    its first M, those up to (n-1,0), so a pair has one position in every
    block that holds it, and reflection (m,r) -> (n-1-m,-r) maps position
    k < M to M-1-k.  Against one block, a row's meet or join is a
    constant run and a run of that block's, or a reflected, descending,
    run of another's, split at one position: the closed forms of
    core.ap_meet and core.ap_join, case by case on the two levels.
    """
    elems, n, p = w.elements(), w.params.n, w.params.p
    levels = [a[2] for a in elems]
    starts = [bisect_left(levels, level) for level in range(p + 2)]
    M = bisect_right([(a[0], a[1]) for a in elems[:starts[1]]], (n - 1, 0))
    ids = list(range(len(elems)))

    def row(i: int) -> tuple[list[int], list[int]]:
        al = elems[i][2]
        sa = starts[al]
        j = i - sa  # the position of element i's pair in the chain
        t = max(0, M - 1 - j)  # the positions below its reflection
        meet, join = [], []
        for be in range(p + 1):
            s0, size = starts[be], starts[be + 1] - starts[be]
            if al and be >= al:
                meet += ids[sa:sa + j] + [i] * (size - j)
                join += [s0 + j] * j + ids[s0 + j:s0 + size]
            elif al and be:  # be < al, a middle level of size M
                u = min(j + 1, M)
                meet += ids[s0:s0 + u] + [s0 + j] * (M - u)
                join += [i] * u + ids[sa + u:sa + M]
            elif al:  # be == 0: a's reflection against level 0
                meet += [t] * t + ids[t:size]
                join += ids[sa + M - 1:sa + M - 1 - t:-1] + [i] * (size - t)
            elif be:  # al == 0: level be against a's reflection
                meet += ids[M - 1:M - 1 - t:-1] + [i] * (size - t)
                join += [s0 + t] * t + ids[s0 + t:s0 + size]
            else:  # both on level 0, pair order reversed
                meet += [i] * (j + 1) + ids[j + 1:size]
                join += ids[:j] + [i] * (size - j)
        return meet, join
    return row


_BYTES = 256  # the row format: a byte per id where a list holds a pointer


def _rows(rows: list, ids: int) -> list:
    """rows in the row format for ids distinct ids."""
    return list(map(bytes, rows)) if ids <= _BYTES else list(rows)


class _Ids(dict):
    """Value -> id.  The seed's values get ids 0, 1, ... in order, and a
    value met for the first time gets the next id, so equal values share
    one, and values[i] is the value of id i.  The seed must not repeat."""

    __slots__ = ("values",)

    def __init__(self, seed=()):
        super().__init__(zip(seed, itertools.count()))
        self.values = list(seed)

    def __missing__(self, value) -> int:
        i = self[value] = len(self.values)
        self.values.append(value)
        return i


class _Tables(OpsBundle):
    """The tables of the bundle ops over the window w, and the bundle
    they tabulate, read from them.

    Every distinct involution, product and residual of window elements
    has an id, window elements first, so ids 0..N-1 are the window
    indices; vals[u] is the value of id u, inv_id, mul_id and div_id hold
    ids, and bad is the invalid marker's id, or -1.  Bit u of filters[f]
    says vals[u] lies in the named filter f, which the marker never does.
    As a bundle, mul, div and inv read vals at those ids when every operand
    is a window element, and past the window t.ops computes; power and
    multiple walk the id tables.  ops must be pure, so a read is the value
    ops returns, and neg, oplus, meet, join and bterm are OpsBundle's over
    these.  These methods hide OpsBundle's mul, inv and div slots, so
    copy.copy, which sets every slot, fails on tables.
    """

    __slots__ = ("ops", "elems", "N", "idx", "vals", "bad", "mul_id", "div_id", "inv_id",
                 "up", "down", "ge", "meet_i", "join_i", "bot_i", "top_i", "filters")

    def __init__(self, w: Window, ops: OpsBundle):
        elems = w.elements()
        N = len(elems)
        self.ops, self.name = ops, ops.name
        self.elems, self.N = elems, N
        self.idx = {a: i for i, a in enumerate(elems)}
        # a result gets its id as it is computed, one lookup each
        ids = _Ids(elems)
        intern, values = ids.__getitem__, ids.values
        inv_id = list(map(intern, map(ops.inv, elems)))
        mul = ops.mul
        mul_id = [list(map(intern, [mul(a, b) for b in elems])) for a in elems]
        # The residual a/b is ~(a*~b).  Where ~b_j is the window element f,
        # a_i*~b_j has id mul_id[i][f], and ~ is applied once per distinct
        # product id; where ~b is invalid or leaves the window (under a
        # mutant), the bundle's div runs.  Both rest on the bundle being pure.
        neg = cache(lambda u: intern(ops.inv(values[u])))
        at = [f if f < N else None for f in inv_id]
        div_id = [[intern(ops.div(a, b)) if f is None else neg(row[f])
                   for b, f in zip(elems, at)] for a, row in zip(elems, mul_id)]
        self.vals, self.bad = values, ids.get(_INVALID, -1)
        self.inv_id = _rows([inv_id], len(values))[0]
        self.mul_id, self.div_id = _rows(mul_id, len(values)), _rows(div_id, len(values))
        # ge[u] holds the ids at or above value u, as a bitmask, from the
        # closed form of the order, a bisect or two per id; up[u] and
        # down[u], the window elements above and below it, are its low N
        # bits and the transpose of the window's rows.  The invalid marker
        # satisfies no order, so its masks are empty.
        self.ge = ge = _order_rows(values, w.params.n, w.params.p)
        low = (1 << N) - 1
        self.up = [g & low for g in ge]
        self.down = _transpose(ge[:N], len(values))
        # meets and joins of window elements stay in the window, and each
        # row is a few runs of window indices
        meet_i, join_i = zip(*map(_lattice_row(w), range(N)))
        self.meet_i, self.join_i = _rows(meet_i, N), _rows(join_i, N)
        self.bot_i = self.idx[core.ap_bot(w.params)]
        self.top_i = self.idx[core.ap_top(w.params)]
        self.filters = {f: _mask([v is not _INVALID and filter_member(f, v) for v in values])
                        for f in FILTER_IDS}

    # The bundle's operations on window elements, read from the tables.

    def mul(self, a, b):
        i, j = self.idx.get(a), self.idx.get(b)
        return self.ops.mul(a, b) if i is None or j is None else self.vals[self.mul_id[i][j]]

    def div(self, a, b):
        i, j = self.idx.get(a), self.idx.get(b)
        return self.ops.div(a, b) if i is None or j is None else self.vals[self.div_id[i][j]]

    def inv(self, a):
        i = self.idx.get(a)
        return self.ops.inv(a) if i is None else self.vals[self.inv_id[i]]

    # The bundle's power and multiple of a window element, walked on ids
    # for S8-S11 and _generated_mask: a step a_i*out is mul_id[i][out], and
    # ~(~a_i * ~out) is div_id[f][out] for ~a_i = elems[f].  Equal values
    # share an id, so a step that returns its id is the fixed point; past
    # the window the bundle runs the rest, a multiple by div from elems[f].

    def power(self, a, k: int):
        i = self.idx.get(a)
        if i is None or k < 0:
            return self.ops.power(a, k)
        return self._chain(self.mul_id[i], self.top_i, k, self.ops.mul, a)

    def multiple(self, k: int, a):
        f = self.inv_id[self.idx[a]] if a in self.idx else self.N
        if f >= self.N or k < 0:
            return self.ops.multiple(k, a)
        return self._chain(self.div_id[f], self.bot_i, k, self.ops.div,
                           self.elems[f])

    def _chain(self, row, out: int, k: int, op, a):
        """k steps out -> op(a, out) from the id out: row[out] while out
        is a window id, then _steps for the rest."""
        for left in range(k, 0, -1):
            nxt = row[out]
            if nxt == out:
                break
            out = nxt
            if out >= self.N:
                return core._steps(op, a, self.vals[out], left - 1)
        return self.vals[out]


@lru_cache(maxsize=64)
def _tables(params: AlgebraParams, radius: int, ops: OpsBundle) -> _Tables:
    return _Tables(Window(params, radius), ops)


# ---------------------------------------------------------------------------
# The check-count budget every exhaustive entry point obeys, and the
# check rate the JSON lines report.

class BudgetError(RuntimeError):
    """Estimated check count exceeds the budget; pass force to run anyway."""


def effective_budget(override: int | None = None) -> int:
    if override is not None:
        return int(override)
    env = os.environ.get(BUDGET_ENV)
    if env is not None and env.strip():
        return int(env)
    return DEFAULT_BUDGET


def enforce_budget(
    label: str,
    params: AlgebraParams,
    R: int,
    estimate: int,
    budget: int | None = None,
    force: bool = False,
) -> None:
    """Raise BudgetError when estimate exceeds the effective budget."""
    limit = effective_budget(budget)
    if estimate > limit and not force:
        raise BudgetError(
            f"{label} at n={params.n} p={params.p} R={R} needs about {estimate} "
            f"checks, over the budget of {limit}"
        )


def checks_per_s(checks: int, elapsed: float) -> float | None:
    """The check rate JSON lines report, rounded; None for no time."""
    return round(checks / elapsed, 1) if elapsed > 0 else None


# ---------------------------------------------------------------------------
# Implicative filters.

def filter_member(f: str, a: ApElem) -> bool:
    """Membership in one of the four named filters."""
    if f == "Top":
        return a == core.ap_top(a.params)
    if f == "FOmega":
        return a.alpha == a.p and a.m == a.n and a.r <= 0
    if f == "Radical":
        # the upset of <(0,0),p>: ap_leq from it asks only for level p, as
        # every valid pair lies at or above (0,0)
        return a.alpha == a.p
    if f == "Improper":
        return True
    raise ValueError(f"unknown filter id {f!r}")


def radical_member_via_term(a: ApElem, ops: OpsBundle = REFERENCE) -> bool:
    """Radical membership decided by the boolean term hitting top.

    Independent of filter_member(\"Radical\", ·), which reads the order
    above <(0,0),p> off the level; the two must agree everywhere.  The
    term is computed by ops: REFERENCE, or its tables, which read
    REFERENCE's values.
    """
    return ops.bterm(a) == core.ap_top(a)


def radical_member_via_powers(a: ApElem, ops: OpsBundle = REFERENCE) -> bool:
    """Third route: (n+1).a^k = top for every k up to max(n+1,p)+2,
    computed by ops as radical_member_via_term is."""
    n, p = a.n, a.p
    top = x = core.ap_top(a)
    for k in range(1, max(n + 1, p) + 3):
        power = ops.mul(a, x)
        if k >= 2 and power == x:  # every later power repeats it too
            break
        if ops.multiple(n + 1, power) != top:
            return False
        x = power
    return True


def max_nonradical(params: AlgebraParams, radius: int = 2) -> ApElem:
    """The greatest element outside the radical, found by window scan.

    For p >= 2 this is ((n-1,0),p-1); at p = 1 the level-0 order
    reversal makes it ((0,0),0) instead, so the element is computed
    rather than assumed.
    """
    t = _tables(params, radius, REFERENCE)
    outside = ~t.filters["Radical"] & ((1 << t.N) - 1)
    for c in range(t.N):
        if outside >> c & 1 and not outside & ~t.down[c]:
            return t.elems[c]
    raise RuntimeError("no maximum among non-radical elements")


# ---------------------------------------------------------------------------
# Congruences and quotients.

def congruent(a: ApElem, b: ApElem, f: str) -> bool:
    """a and b are identified by the filter f: (a->b)*(b->a) lands in f."""
    both = core.ap_mul(core.ap_div(a, b), core.ap_div(b, a))
    return filter_member(f, both)


def quotient_key(f: str, a: ApElem):
    """a's class under the congruence of the filter f, in closed form: a
    itself under Top, its shape (m, level), that of its r=0 representative,
    under FOmega, so the quotient is HatLnp, its level under Radical, so
    the quotient is L_{p+1}, and one constant under Improper.  S11 tests
    the keys against the residual congruence."""
    if f == "Top":
        return a
    if f == "FOmega":
        return a.m, a.alpha
    if f == "Radical":
        return a.alpha
    if f == "Improper":
        return None
    raise ValueError(f"unknown filter id {f!r}")


def quotient_classes(w: Window, f: str) -> list[list[ApElem]]:
    """The window partitioned by quotient_key, with no operation call and
    no table: classes in order of their first member, each listing its
    members in enumeration order, so classes[i][0] is the canonical
    representative."""
    classes: dict = {}
    for a in w.elements():
        classes.setdefault(quotient_key(f, a), []).append(a)
    return list(classes.values())


def quotient_induced_mul_report(w: Window, f: str) -> dict:
    """Evidence that the quotient carries a product, beyond class counts.

    Well-definedness: the quotient_key of x*y depends only on the classes
    of x and y, over all window pairs.  For the FOmega quotient the unique
    r=0 transversal means the class product is literally the product of
    the r=0 representatives, which is the whole isomorphism onto the r=0
    subalgebra at window scale.
    """
    t = _tables(w.params, w.R, REFERENCE)
    classes = quotient_classes(w, f)
    blocks = [[t.idx[x] for x in cls] for cls in classes]
    keys = [quotient_key(f, v) for v in t.vals]
    # one block of products per pair of classes
    well_defined = all(
        len({keys[t.mul_id[x][y]] for x in bi for y in bj}) == 1
        for bi in blocks
        for bj in blocks
    )
    return {
        "classes": len(classes),
        "well_defined": well_defined,
        "unique_r0_transversal": all(
            sum(1 for x in cls if x.r == 0) == 1 for cls in classes
        ),
    }


def rad_quotient_report(params: AlgebraParams, radius: int = 2) -> dict:
    """Class count of the quotient by the radical, against both the
    p-element and (p+1)-element readings.  The quotient is L_{p+1}, one
    class per level, so the p+1 reading holds; S11 asserts it."""
    count = len(quotient_classes(Window(params, radius), "Radical"))
    return {
        "classes": count,
        "equals_p": count == params.p,
        "equals_p_plus_1": count == params.p + 1,
    }


# ---------------------------------------------------------------------------
# Generated filters.

def _generated_mask(a: ApElem, w: Window) -> int:
    """The window part of the filter generated by a, as a bitmask over
    the window.

    Powers descend, so x >= a^k for some k iff x >= a^K once K clears
    every stabilization threshold; K = max(n+1, p, R+1) + 1 does, the
    R+1 part covering generators whose powers sink forever through the
    top-level tail.  Those powers leave the window and are compared with
    each element; every other one is a window element, whose up row is
    the answer.
    """
    t = _tables(w.params, w.R, REFERENCE)
    deep = t.power(a, max(a.n + 1, a.p, w.R + 1) + 1)
    if deep in t.idx:
        return t.up[t.idx[deep]]
    return _mask([core.ap_leq(deep, x) for x in t.elems])


def generated_filter(a: ApElem, w: Window) -> tuple[ApElem, ...]:
    """The window part of the filter generated by a, i.e. the upset of a
    sufficiently deep power (see _generated_mask)."""
    got = _generated_mask(a, w)
    return tuple(x for i, x in enumerate(w.elements()) if got >> i & 1)


def classify_generated_filter(a: ApElem, w: Window) -> str:
    """Which of the four named filters a generates, compared window-wise.

    Raises RuntimeError if the generated set matches none of them; that
    would be a genuine counterexample to the classification.
    """
    got = _generated_mask(a, w)
    t = _tables(w.params, w.R, REFERENCE)
    for fid in FILTER_IDS:
        if got == t.filters[fid] & ((1 << t.N) - 1):
            return fid
    raise RuntimeError(
        f"filter generated by {core.render_element(a)} matches no candidate"
    )


# ---------------------------------------------------------------------------
# Subalgebra membership and closure.

def subalg_member(s: str, a: ApElem, q: int | None = None) -> bool:
    """Membership in one of the named subalgebras.

    Aq and HatLq are families indexed by a divisor q of p: they keep the
    levels that are multiples of p/q.  ChangL2w is the two-tail set
    {((n,r),0), ((n,r),p): r <= 0}.
    """
    n, p, m, r, alpha = a.n, a.p, a.m, a.r, a.alpha
    if s == "L2":
        return (m, r) == (n, 0) and alpha in (0, p)
    if s == "ChangL2w":
        return m == n and r <= 0 and alpha in (0, p)
    if s == "HatLnp":
        return r == 0
    if s == "HatLn2":
        return r == 0 and alpha in (0, p)
    if s == "A2":
        return alpha in (0, p)
    if s in ("Aq", "HatLq"):
        if q is None:
            raise ValueError(f"subalgebra {s} needs the divisor q")
        if q < 1 or p % q != 0:
            raise ValueError(f"q={q} does not divide p={p}")
        step = p // q
        if s == "HatLq" and r != 0:
            return False
        return alpha % step == 0
    raise ValueError(f"unknown subalgebra id {s!r}")


class ClosureResult(_Record):
    """Outcome of iterated closure; truncation is an outcome, not an error.
    reason is "max_size", "max_iters", or None at the fixpoint."""

    __slots__ = fields = ("elements", "truncated", "iterations", "reason")


def closure(
    generators,
    params: AlgebraParams | None = None,
    max_size: int = 5000,
    max_iters: int = 50,
) -> ClosureResult:
    """Close a generating set under *, ->, meet, join and the constants.

    Involution comes for free as a -> bot.  Some generated subalgebras
    are infinite, so the size and iteration bounds are load-bearing;
    when one trips, the partial set is returned with the reason.
    """
    gens = list(generators)
    if params is None:
        if not gens:
            raise ValueError("need params or at least one generator")
        params = gens[0].params
    for g in gens:
        if g.params != params:
            raise ParamsMismatchError(
                f"generator {core.render_element(g)} has params ({g.n},{g.p}), "
                f"expected ({params.n},{params.p})"
            )
    current = {core.ap_bot(params), core.ap_top(params), *gens}
    reason = None
    iterations = 0
    for iterations in range(1, max_iters + 1):
        fresh = set()
        for a in current:
            for b in current:
                for op in (core.ap_mul, core.ap_div, core.ap_meet, core.ap_join):
                    c = op(a, b)
                    if c not in current:
                        fresh.add(c)
        if not fresh:
            reason = None
            break
        current |= fresh
        if len(current) > max_size:
            reason = "max_size"
            break
    else:
        reason = "max_iters"
    elems = tuple(sorted(current, key=lambda a: (a.alpha, a.m, a.r)))
    return ClosureResult(elems, reason is not None, iterations, reason)


def boolean_elements(w: Window) -> set[ApElem]:
    """Elements with a lattice complement inside the window."""
    t = _tables(w.params, w.R, REFERENCE)
    bot_i, top_i = t.bot_i, t.top_i
    return {
        t.elems[i]
        for i, (meets, joins) in enumerate(zip(t.meet_i, t.join_i))
        if any(z == bot_i and u == top_i for z, u in zip(meets, joins))
    }


# ---------------------------------------------------------------------------
# Order diagrams.

def _covers(up: list[int], down: list[int]) -> list[list[int]]:
    """For each i, the j that cover it, ascending: bit j of up[i] and bit
    i of down[j] say i <= j, and j covers i when i < j with nothing
    strictly between, so up[i] and down[j] share bits i and j alone."""
    return [[j for j, bit in enumerate(bin(a)[:1:-1])
             if bit == "1" and j != i and a & down[j] == 1 << i | 1 << j]
            for i, a in enumerate(up)]


def cover_edges(elems) -> tuple[tuple[int, int], ...]:
    """Hasse cover pairs (i, j) over a sequence of elements of one algebra:
    elems[i] is strictly below elems[j] with nothing in between.  The
    order comes from its closed form, _order_rows, with no ap_leq call."""
    if isinstance(elems, Window):
        elems = elems.elements()
    elems = tuple(elems)
    for b in elems:
        core._same_params(elems[0], b)
    up = _order_rows(elems, elems[0].n, elems[0].p) if elems else []
    covers = _covers(up, _transpose(up, len(elems)))
    return tuple((i, j) for i, cover in enumerate(covers) for j in cover)
