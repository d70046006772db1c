"""Finite windows, filters, quotients, and subalgebra membership.

The algebra is infinite (the lex factor is unbounded), so everything
here works over a window: the valid elements whose lex offset r lies in
[-R, R].  Windows are closed under meet and join but not under the
monoid operation or the residual, which can push |r| up to 2R; callers
that need closure under those must either enlarge R or test membership
of the results.  The check-count budget lives here too, next to the
windows whose sizes its estimates count, so that both the suites and
the equation checker obey it.

So do the per-window tables of every operation, the order and the named
filters under one bundle.  The filter, quotient and complement scans
read the REFERENCE tables whatever bundle a suite runs, and a scan on a
cold window pays their build first.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import lru_cache

from resilat import core
from resilat.core import _INVALID, REFERENCE, AlgebraParams, ApElem, LexPair
from resilat.core import OpsBundle, ParamsMismatchError

FILTER_IDS = ("Top", "FOmega", "Radical", "Improper")
SUBALGEBRA_IDS = ("L2", "ChangL2w", "HatLnp", "HatLn2", "A2", "Aq", "HatLq")
DEFAULT_BUDGET = 10**8
BUDGET_ENV = "RESILAT_BUDGET"


@lru_cache(maxsize=None)
def _window_elements(params: AlgebraParams, radius: int) -> tuple[ApElem, ...]:
    out = []
    for alpha in range(params.p + 1):
        bound = params.n if alpha in (0, params.p) else params.n - 1
        for m in range(bound + 1):
            lo = 0 if m == 0 else -radius
            hi = 0 if m == bound else radius
            for r in range(lo, hi + 1):
                out.append(core.ap_validate(LexPair(m, r), alpha, params))
    return tuple(out)


@dataclass(frozen=True)
class Window:
    """The valid elements with |r| <= R, in a fixed enumeration order:
    level ascending, then m ascending, then r ascending."""

    params: AlgebraParams
    R: int

    def __post_init__(self) -> None:
        if self.R < 0:
            raise ValueError(f"window radius must be >= 0, got {self.R}")

    def elements(self) -> tuple[ApElem, ...]:
        return _window_elements(self.params, self.R)

    def __len__(self) -> int:
        return len(self.elements())


# ---------------------------------------------------------------------------
# Per-window tables of one bundle.

def _leq(x: object, y: object) -> bool:
    if x is _INVALID or y is _INVALID:
        return False
    return core.ap_leq(x, y)


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


class _Tables:
    __slots__ = ("elems", "N", "idx", "mul", "div", "inv", "vals", "mul_id",
                 "div_id", "inv_id", "up", "down", "ge", "meet_i", "join_i",
                 "bot_i", "top_i", "filters")

    def __init__(self, w: Window, ops: OpsBundle):
        elems = w.elements()
        N = len(elems)
        self.elems = elems
        self.N = N
        self.idx = {a: i for i, a in enumerate(elems)}
        self.mul = [[ops.mul(a, b) for b in elems] for a in elems]
        self.div = [[ops.div(a, b) for b in elems] for a in elems]
        self.inv = [ops.inv(a) for a in elems]
        # Every distinct product, residual and involution gets an id,
        # window elements first, so ids 0..N-1 are the window indices;
        # vals[u] is the value of id u.
        self.vals = values = list(dict.fromkeys(
            itertools.chain(elems, self.inv, *self.mul, *self.div)
        ))
        ids = {v: u for u, v in enumerate(values)}
        # a bytes row holds an id in a byte, where a list holds a pointer
        row_of = bytes if len(values) <= 256 else list
        self.mul_id = [row_of([ids[v] for v in row]) for row in self.mul]
        self.div_id = [row_of([ids[v] for v in row]) for row in self.div]
        self.inv_id = [ids[v] for v in self.inv]
        # up[u] and down[u] are the window elements above and below value
        # u, and ge[u] the ids above it, as bitmasks.  The invalid marker
        # satisfies no order, so its masks are empty and it sits in none.
        # The order is called for each value against each window element
        # on either side, and for each pair of values outside the window.
        extra = values[N:]
        up = [_mask([_leq(v, e) for e in elems]) for v in values]
        down = _transpose(up[:N], N)
        down += [_mask([_leq(e, v) for e in elems]) for v in extra]
        high = _transpose(down[N:], N)  # bit x: window i below extra x
        ge = [up[i] | high[i] << N for i in range(N)]
        ge += [up[N + x] | _mask([_leq(v, y) for y in extra]) << N
               for x, v in enumerate(extra)]
        self.up, self.down, self.ge = up, down, ge
        # meets and joins of window elements stay in the window
        self.meet_i = [[self.idx[core.ap_meet(a, b)] for b in elems] for a in elems]
        self.join_i = [[self.idx[core.ap_join(a, b)] for b in elems] for a in elems]
        self.bot_i = self.idx[core.ap_bot(w.params)]
        self.top_i = self.idx[core.ap_top(w.params)]
        # filters[f]: the window elements in the named filter f
        self.filters = {f: _mask([filter_member(f, a) for a in elems])
                        for f in FILTER_IDS}


@lru_cache(maxsize=64)
def _tables(params: AlgebraParams, radius: int, ops: OpsBundle) -> _Tables:
    return _Tables(Window(params, radius), ops)


# ---------------------------------------------------------------------------
# The check-count budget every exhaustive entry point obeys.

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


# ---------------------------------------------------------------------------
# Implicative filters.

def filter_member(f: str, a: ApElem) -> bool:
    """Membership in one of the four named filters."""
    if f == "Top":
        return a == core.ap_top(a.params)
    if f == "FOmega":
        return a.alpha == a.p and a.m == a.n and a.r <= 0
    if f == "Radical":
        gen = core.ap_validate(LexPair(0, 0), a.p, a.params)
        return core.ap_leq(gen, a)
    if f == "Improper":
        return True
    raise ValueError(f"unknown filter id {f!r}")


def radical_member_via_term(a: ApElem) -> bool:
    """Radical membership decided by the boolean term hitting top.

    Independent of filter_member(\"Radical\", ·), which goes through the
    order; the two must agree everywhere.
    """
    return core.boolean_term(a) == core.ap_top(a.params)


def radical_member_via_powers(a: ApElem) -> bool:
    """Third route: (n+1).a^k = top for every k up to max(n+1,p)+2."""
    n, p = a.n, a.p
    top = core.ap_top(a.params)
    for k in range(1, max(n + 1, p) + 3):
        if core.ap_mult(n + 1, core.ap_pow(a, k)) != top:
            return False
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


def quotient_classes(w: Window, f: str) -> list[list[ApElem]]:
    """Partition of the window under the filter congruence.

    Classes appear in order of their first member; each class lists its
    members in enumeration order, so classes[i][0] is the canonical
    representative.  congruent(a_i, a_j, f) reads both residuals from
    the REFERENCE tables, so its product and filter test are made once
    per distinct pair of residual ids, not once per pair of elements.
    """
    t = _tables(w.params, w.R, REFERENCE)
    div_id, vals = t.div_id, t.vals
    inside: dict[tuple[int, int], bool] = {}
    classes: list[list[int]] = []
    for i in range(t.N):
        for cls in classes:
            key = (div_id[i][cls[0]], div_id[cls[0]][i])
            if key not in inside:
                both = core.ap_mul(vals[key[0]], vals[key[1]])
                inside[key] = filter_member(f, both)
            if inside[key]:
                cls.append(i)
                break
        else:
            classes.append([i])
    return [[t.elems[i] for i in cls] for cls in classes]


def hat_size(params: AlgebraParams) -> int:
    """Element count of the r = 0 subalgebra: 2(n+1) + n(p-1)."""
    return 2 * (params.n + 1) + params.n * (params.p - 1)


def _class_index(x: ApElem, reps: list[ApElem], f: str) -> int:
    for i, rep in enumerate(reps):
        if congruent(x, rep, f):
            return i
    raise RuntimeError(f"{core.render_element(x)} matches no class")


def quotient_induced_mul_report(w: Window, f: str) -> dict:
    """Evidence that the quotient carries a product, beyond class counts.

    Well-definedness: the class of x*y depends only on the classes of x
    and y, over all window pairs.  For the FOmega quotient the unique
    r=0 transversal means the class product is literally the product of
    the r=0 representatives, which is the whole isomorphism onto the
    r=0 subalgebra at window scale.
    """
    t = _tables(w.params, w.R, REFERENCE)
    classes = quotient_classes(w, f)
    blocks = [[t.idx[x] for x in cls] for cls in classes]
    # The class of each distinct product id is found once: a window
    # element is in the class it was put in, and a product outside the
    # window is tested against the representatives.
    class_of = {i: c for c, block in enumerate(blocks) for i in block}
    reps = [cls[0] for cls in classes]
    mul_id = t.mul_id
    for u in sorted(set(itertools.chain(*mul_id)) - class_of.keys()):
        class_of[u] = _class_index(t.vals[u], reps, f)
    # one block of products per pair of classes
    well_defined = all(
        len({class_of[mul_id[x][y]] for x in bi for y in bj}) == 1
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
    p-element and (p+1)-element readings.  Reported, not asserted."""
    count = len(quotient_classes(Window(params, radius), "Radical"))
    return {
        "classes": count,
        "equals_p": count == params.p,
        "equals_p_plus_1": count == params.p + 1,
    }


# ---------------------------------------------------------------------------
# Generated filters.

def generated_filter(a: ApElem, w: Window) -> tuple[ApElem, ...]:
    """The window part of the filter generated by a, i.e. the upset of a
    sufficiently deep power.

    Powers descend, so x >= a^k for some k iff x >= a^K once K clears
    every stabilization threshold; K = max(n+1, p, R+1) + 1 does, the
    R+1 part covering generators whose powers sink forever through the
    top-level tail.
    """
    K = max(a.n + 1, a.p, w.R + 1) + 1
    deep = core.ap_pow(a, K)
    return tuple(x for x in w.elements() if core.ap_leq(deep, x))


def classify_generated_filter(a: ApElem, w: Window) -> str:
    """Which of the four named filters a generates, compared window-wise.

    Raises RuntimeError if the generated set matches none of them; that
    would be a genuine counterexample to the classification.
    """
    t = _tables(w.params, w.R, REFERENCE)
    got = sum(1 << t.idx[x] for x in generated_filter(a, w))
    for fid in FILTER_IDS:
        if got == t.filters[fid]:
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


@dataclass(frozen=True)
class ClosureResult:
    """Outcome of iterated closure; truncation is an outcome, not an error."""

    elements: tuple[ApElem, ...]
    truncated: bool
    iterations: int
    reason: str | None  # "max_size", "max_iters", or None at fixpoint


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
                f"generator {core.render_element(g)} has params {g.params}, "
                f"expected {params}"
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

def cover_edges(elems) -> tuple[tuple[int, int], ...]:
    """Hasse cover pairs (i, j) over a sequence of elements: elems[i] is
    strictly below elems[j] with nothing in between."""
    if isinstance(elems, Window):
        elems = elems.elements()
    elems = tuple(elems)
    count = len(elems)
    above = [0] * count  # bit j of above[i]: elems[i] < elems[j]
    below = [0] * count
    for i in range(count):
        for j in range(count):
            if i != j and core.ap_leq(elems[i], elems[j]):
                above[i] |= 1 << j
                below[j] |= 1 << i
    edges = []
    for i in range(count):
        for j in range(count):
            if above[i] >> j & 1 and not (above[i] & below[j]):
                edges.append((i, j))
    return tuple(edges)
