"""Finite windows, filters, quotients, and subalgebra membership.

The algebra is infinite (the lex factor is unbounded), so everything
here works over a window: the valid elements whose lex offset r lies in
[-R, R].  Windows are closed under meet and join but not under the
monoid operation or the residual, which can push |r| up to 2R; callers
that need closure under those must either enlarge R or test membership
of the results.  The check-count budget lives here too, next to the
windows whose sizes its estimates count, so that both the suites and
the equation checker obey it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from resilat import core
from resilat.core import AlgebraParams, ApElem, LexPair, ParamsMismatchError

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


@lru_cache(maxsize=None)
def _window_index(params: AlgebraParams, radius: int) -> dict[ApElem, int]:
    elems = _window_elements(params, radius)
    return {a: i for i, a in enumerate(elems)}


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

    def index(self, a: ApElem) -> int:
        return _window_index(self.params, self.R)[a]

    def __contains__(self, a: object) -> bool:
        return a in _window_index(self.params, self.R)

    def __len__(self) -> int:
        return len(self.elements())


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
    outside = [a for a in Window(params, radius).elements()
               if not filter_member("Radical", a)]
    for c in outside:
        if all(core.ap_leq(a, c) for a in outside):
            return c
    raise RuntimeError("no maximum among non-radical elements")


def power_threshold_check(params: AlgebraParams, radius: int = 2) -> dict:
    """Nilpotency thresholds over a window, with the witness powers.

    Checks that a^k0 = bot exactly off the radical for k0 = max(n+1,p),
    that the maximal non-radical element survives every smaller power,
    and (when n < p) that its (p-1)-th power is its involution.  Also
    records whether the computed maximum matches the p >= 2 closed form
    ((n-1,0),p-1).
    """
    n, p = params.n, params.p
    k0 = max(n + 1, p)
    bot = core.ap_bot(params)
    w = Window(params, radius)

    part_a = all(
        (core.ap_pow(a, k0) == bot) == (not filter_member("Radical", a))
        for a in w.elements()
    )

    c = max_nonradical(params, radius)
    literal = core.ap_validate(LexPair(n - 1, 0), p - 1, params)
    c_powers = [core.ap_pow(c, k) for k in range(1, k0 + 1)]
    part_b = all(v != bot for v in c_powers[: k0 - 1])
    cyclic = None
    if n < p:
        cyclic = core.ap_pow(c, p - 1) == core.ap_inv(c)
    return {
        "k_threshold": k0,
        "part_a_holds": part_a,
        "part_b_holds": part_b,
        "max_nonradical": core.render_element(c),
        "max_matches_literal": c == literal,
        "max_powers": [core.render_element(v) for v in c_powers],
        "literal_powers": [
            core.render_element(core.ap_pow(literal, k)) for k in range(1, k0 + 1)
        ],
        "cyclic": cyclic,
    }


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
    representative.
    """
    classes: list[list[ApElem]] = []
    for a in w.elements():
        for cls in classes:
            if congruent(a, cls[0], f):
                cls.append(a)
                break
        else:
            classes.append([a])
    return classes


def hat_size(params: AlgebraParams) -> int:
    """Element count of the r = 0 subalgebra: 2(n+1) + n(p-1)."""
    return 2 * (params.n + 1) + params.n * (params.p - 1)


def _class_index(x: ApElem, classes: list[list[ApElem]], f: str) -> int:
    for i, cls in enumerate(classes):
        if congruent(x, cls[0], f):
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
    classes = quotient_classes(w, f)
    # one block of products per pair of classes; the class of each
    # distinct product value is found once
    blocks = [
        [core.ap_mul(x, y) for x in ci for y in cj]
        for ci in classes
        for cj in classes
    ]
    distinct = {v for block in blocks for v in block}
    class_of = {v: _class_index(v, classes, f) for v in distinct}
    well_defined = all(
        len({class_of[v] for v in block}) == 1 for block in blocks
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
    got = set(generated_filter(a, w))
    for fid in FILTER_IDS:
        if got == {x for x in w.elements() if filter_member(fid, x)}:
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
    elems = w.elements()
    bot = core.ap_bot(w.params)
    top = core.ap_top(w.params)
    out = set()
    for a in elems:
        for b in elems:
            if core.ap_meet(a, b) == bot and core.ap_join(a, b) == top:
                out.add(a)
                break
    return out


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
