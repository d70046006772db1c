"""Property suites S1-S16 over enumeration windows.

Each suite exhaustively checks one family of laws on a window and
reports the first counterexample in a canonical order.  The operations
under test come from an OpsBundle, whose raw product and involution can
be swapped for deliberately corrupted variants; the five entries in
MUTATIONS exist to prove the suites are not vacuous.

A corrupted operation can produce a pair/level combination outside the
universe, and the validating constructor then raises UniverseError.
Rather than crashing mid-suite, bundle operations replace such results
with an invalid marker that propagates, equals nothing, and satisfies
no order relation, so the violation surfaces as an ordinary
counterexample.

The suites read their operations from tables built once per (params, R,
bundle): every product, residual, involution, order bit, meet and join of
window elements.  Meets and joins stay in the window, so they are stored
as window indices.  Products can leave the window, so a check that
multiplies twice has no table for its second step.  S2 interns the
distinct first-step products into ids and multiplies each of them once by
every window element on either side; its N^3 associativity loop then
only compares ints.  S13's subalgebra members are window elements, so
its closure checks read the tables directly.  Each report times the
table build (tables_s) apart from the checks (elapsed) and carries the
estimate its budget gate used next to the checks it ran.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from resilat import core, structure, terms
from resilat.core import AlgebraParams, ApElem, UniverseError
from resilat.structure import (  # the budget names stay importable from here
    BUDGET_ENV,
    DEFAULT_BUDGET,
    BudgetError,
    Window,
    effective_budget,
    enforce_budget,
)

DEFAULT_GRID = tuple((n, p) for n in (1, 2, 3) for p in (1, 2, 3))


# ---------------------------------------------------------------------------
# Guarded operation bundles.

class _Invalid:
    __slots__ = ()

    def __repr__(self) -> str:
        return "<invalid>"


_INVALID = _Invalid()


def _eq(x: object, y: object) -> bool:
    """Equality where the invalid marker equals nothing, itself included."""
    if x is _INVALID or y is _INVALID:
        return False
    return x == y


def _leq(x: object, y: object) -> bool:
    if x is _INVALID or y is _INVALID:
        return False
    return core.ap_leq(x, y)


class OpsBundle:
    """Operations derived from a raw product and involution.

    Satisfies the evaluation protocol of the term module (mul, inv, div,
    neg, oplus, meet, join, power, multiple), plus bterm.  The lattice
    operations are never swapped; everything else routes through the two
    raws so a single corrupted constant shows up everywhere it should.

    A raw reports an out-of-universe result by raising UniverseError, as
    it does when it builds its results through core._mk; the bundle turns
    that into the invalid marker.  A raw that returns an element it did
    not validate is trusted.
    """

    def __init__(self, raw_mul, raw_inv, name: str = "reference"):
        self.raw_mul = raw_mul
        self.raw_inv = raw_inv
        self.name = name

    def __repr__(self) -> str:
        return f"OpsBundle({self.name})"

    def mul(self, a, b):
        if a is _INVALID or b is _INVALID:
            return _INVALID
        try:
            return self.raw_mul(a, b)
        except UniverseError:
            return _INVALID

    def inv(self, a):
        if a is _INVALID:
            return _INVALID
        try:
            return self.raw_inv(a)
        except UniverseError:
            return _INVALID

    def div(self, a, b):
        return self.inv(self.mul(a, self.inv(b)))

    def neg(self, a):
        if a is _INVALID:
            return _INVALID
        return self.div(a, core.ap_bot(a.params))

    def oplus(self, a, b):
        return self.inv(self.mul(self.inv(a), self.inv(b)))

    def meet(self, a, b):
        if a is _INVALID or b is _INVALID:
            return _INVALID
        return core.ap_meet(a, b)

    def join(self, a, b):
        if a is _INVALID or b is _INVALID:
            return _INVALID
        return core.ap_join(a, b)

    def power(self, a, k: int):
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        if a is _INVALID:
            return _INVALID
        out = core.ap_top(a.params)
        for _ in range(k):
            out = self.mul(a, out)
        return out

    def multiple(self, k: int, a):
        if k < 0:
            raise ValueError(f"negative multiple {k}")
        if a is _INVALID:
            return _INVALID
        out = core.ap_bot(a.params)
        for _ in range(k):
            out = self.oplus(a, out)
        return out

    def bterm(self, a):
        if a is _INVALID:
            return _INVALID
        return self.multiple(a.n + 1, self.power(a, max(a.n + 1, a.p)))


REFERENCE = OpsBundle(core.ap_mul, core.ap_inv)


# ---------------------------------------------------------------------------
# Documented single-constant mutations of the product and involution.
#
# The variants rebuild the reference case analysis and build their results
# through the validating constructor core._mk, as the reference does; an
# out-of-universe result raises UniverseError, which the bundle turns into
# the invalid marker.

def _mul_variant(case2_shift: int = 1, case2_sign: int = -1, case4_shift: int = 1):
    def raw(a: ApElem, b: ApElem) -> ApElem:
        n, p = a.n, a.p
        m, r, al = a.m, a.r, a.alpha
        k, s, be = b.m, b.r, b.alpha
        if al != 0 and be != 0:
            g = core.fin_star(al, be, p)
            if g != 0:
                pr = core.omega_star((m, r), (k, s), n)
                return core._mk(pr[0], pr[1], g, n, p)
            pr = min((n, 0), (2 * n - (m + k + case2_shift), case2_sign * (r + s)))
            return core._mk(pr[0], pr[1], 0, n, p)
        if al != 0:
            pr = core.omega_arrow((m, r), (k, s), n)
            return core._mk(pr[0], pr[1], 0, n, p)
        if be != 0:
            pr = core.omega_arrow((k, s), (m, r), n)
            return core._mk(pr[0], pr[1], 0, n, p)
        pr = min((n, 0), (m + k + case4_shift, r + s))
        return core._mk(pr[0], pr[1], 0, n, p)

    return raw


def _inv_variant(reflect_shift: int = 1, reflect_sign: int = -1):
    def raw(a: ApElem) -> ApElem:
        n, p = a.n, a.p
        if a.alpha in (0, p):
            return core._mk(a.m, a.r, p - a.alpha, n, p)
        return core._mk(
            n - reflect_shift - a.m, reflect_sign * a.r, p - a.alpha, n, p
        )

    return raw


MUTATIONS: dict[str, OpsBundle] = {
    "mul-case2-const": OpsBundle(
        _mul_variant(case2_shift=0), core.ap_inv, "mul-case2-const"
    ),
    "mul-case2-sign": OpsBundle(
        _mul_variant(case2_sign=1), core.ap_inv, "mul-case2-sign"
    ),
    "mul-case4-const": OpsBundle(
        _mul_variant(case4_shift=0), core.ap_inv, "mul-case4-const"
    ),
    "inv-reflect-const": OpsBundle(
        core.ap_mul, _inv_variant(reflect_shift=0), "inv-reflect-const"
    ),
    "inv-reflect-sign": OpsBundle(
        core.ap_mul, _inv_variant(reflect_sign=1), "inv-reflect-sign"
    ),
}


# ---------------------------------------------------------------------------
# The residual in one direct case analysis, used as the S14 oracle
# against the composite route inv(mul(a, inv(b))).

def closed_form_div(a: ApElem, b: ApElem) -> ApElem:
    core._same_params(a, b)
    n, p = a.n, a.p
    params = a.params
    m, r, al = a.m, a.r, a.alpha
    k, s, be = b.m, b.r, b.alpha
    if al == 0 and be == 0:
        # level 0 is order-reversed, so the pair residual runs backwards
        return core.ap_validate(core.omega_arrow((k, s), (m, r), n), p, params)
    if al == 0:
        pr = min((n, 0), (m + k + 1, r + s))
        return core.ap_validate(pr, p, params)
    if be == 0:
        if al == p:
            return core.ap_validate(core.omega_star((m, r), (k, s), n), 0, params)
        pr = min((n - 1, 0), (2 * n - 1 - (m + k), -(r + s)))
        return core.ap_validate(pr, p - al, params)
    if al <= be:
        return core.ap_validate(core.omega_arrow((m, r), (k, s), n), p, params)
    # al > be forces be < p; the middle-level cap clamps the pair
    pr = min((n - 1, 0), core.omega_arrow((m, r), (k, s), n))
    return core.ap_validate(pr, core.fin_arrow(al, be, p), params)


# ---------------------------------------------------------------------------
# Precomputed tables and the per-run context.

class _Tables:
    __slots__ = ("elems", "N", "idx", "mul", "div", "inv", "leq", "below",
                 "above", "meet_i", "join_i", "bot_i", "top_i")

    def __init__(self, w: Window, ops: OpsBundle):
        elems = w.elements()
        N = len(elems)
        self.elems = elems
        self.N = N
        self.idx = {a: i for i, a in enumerate(elems)}
        self.mul = [[ops.mul(a, b) for b in elems] for a in elems]
        self.div = [[ops.div(a, b) for b in elems] for a in elems]
        self.inv = [ops.inv(a) for a in elems]
        leq = [[core.ap_leq(a, b) for b in elems] for a in elems]
        self.leq = leq
        below = [0] * N
        above = [0] * N
        for i in range(N):
            row = leq[i]
            for j in range(N):
                if row[j]:
                    above[i] |= 1 << j
                    below[j] |= 1 << i
        self.below = below
        self.above = above
        # meets and joins of window elements stay in the window
        self.meet_i = [[self.idx[core.ap_meet(a, b)] for b in elems] for a in elems]
        self.join_i = [[self.idx[core.ap_join(a, b)] for b in elems] for a in elems]
        self.bot_i = self.idx[core.ap_bot(w.params)]
        self.top_i = self.idx[core.ap_top(w.params)]


@lru_cache(maxsize=64)
def _tables(params: AlgebraParams, radius: int, ops: OpsBundle) -> _Tables:
    return _Tables(Window(params, radius), ops)


class _Ctx:
    __slots__ = ("params", "R", "w", "elems", "N", "ops", "t", "sample", "seed")

    def __init__(self, w: Window, ops: OpsBundle, t: _Tables, sample, seed):
        self.params = w.params
        self.R = w.R
        self.w = w
        self.elems = t.elems
        self.N = t.N
        self.ops = ops
        self.t = t
        self.sample = sample
        self.seed = seed

    def indices(self, arity: int):
        """Index tuples: the full product, or seeded-random draws in
        sampled mode.  Either way the order is deterministic."""
        if self.sample is None:
            return itertools.product(range(self.N), repeat=arity)
        rng = random.Random(f"{self.seed}:{arity}")
        return (
            tuple(rng.randrange(self.N) for _ in range(arity))
            for _ in range(self.sample)
        )


def _fmt(v: object) -> str:
    return core.render_element(v) if isinstance(v, ApElem) else str(v)


def _ce(**kw) -> list[str]:
    return [f"{key}={_fmt(val)}" for key, val in kw.items()]


# ---------------------------------------------------------------------------
# Suite bodies.  Each returns (checks_run, counterexample | None, details).

def _s1(ctx: _Ctx):
    t, elems = ctx.t, ctx.elems
    checks = 0
    for i, j, k in ctx.indices(3):
        checks += 1
        if _leq(t.mul[i][j], elems[k]) != _leq(elems[j], t.div[i][k]):
            return checks, _ce(a=elems[i], b=elems[j], c=elems[k]), {}
    return checks, None, {}


def _s2(ctx: _Ctx):
    t, elems, ops = ctx.t, ctx.elems, ctx.ops
    mul_t = t.mul
    # Products of window elements land in W_2R (anywhere, under a mutant),
    # so the second step of (a*b)*c and a*(b*c) has no window table.  Each
    # distinct first-step product, the invalid marker included, gets an id
    # and is multiplied once on each side; the triple loop then compares
    # interned ids.  The two sides mark an invalid second step with
    # different negative ids, so that it equals nothing.
    prods = list(dict.fromkeys(v for row in mul_t for v in row))
    first = {v: u for u, v in enumerate(prods)}
    step = [[first[v] for v in row] for row in mul_t]
    ids: dict = {}

    def second(v: object, invalid: int) -> int:
        return invalid if v is _INVALID else ids.setdefault(v, len(ids))

    left = [[second(ops.mul(x, c), -1) for c in elems] for x in prods]
    right = [[second(ops.mul(a, x), -2) for x in prods] for a in elems]
    checks = 0
    for i, j, k in ctx.indices(3):
        checks += 1
        if left[step[i][j]][k] != right[i][step[j][k]]:
            return checks, _ce(a=elems[i], b=elems[j], c=elems[k]), {}
    pairs = 0
    for i, j in ctx.indices(2):
        checks += 1
        pairs += 1
        if not _eq(mul_t[i][j], mul_t[j][i]):
            return checks, _ce(a=elems[i], b=elems[j]), {}
    return checks, None, {"commutativity_pairs": pairs}


def _s3(ctx: _Ctx):
    t, elems = ctx.t, ctx.elems
    leq, mul_t, div_t = t.leq, t.mul, t.div
    checks = 0
    for i, j, k in ctx.indices(3):
        checks += 1
        if not leq[j][k]:
            continue
        if not _leq(mul_t[i][j], mul_t[i][k]):
            return checks, _ce(a=elems[i], b=elems[j], c=elems[k]), {}
        if not _leq(div_t[i][j], div_t[i][k]):
            return checks, _ce(a=elems[i], b=elems[j], c=elems[k]), {}
        if not _leq(div_t[k][i], div_t[j][i]):
            return checks, _ce(a=elems[i], b=elems[j], c=elems[k]), {}
    return checks, None, {"implications": "mul and div monotone, div antitone left"}


def _s4(ctx: _Ctx):
    t, elems, ops = ctx.t, ctx.elems, ctx.ops
    checks = 0
    for i in range(ctx.N):
        checks += 1
        if not _eq(ops.inv(t.inv[i]), elems[i]):
            return checks, _ce(a=elems[i]), {}
        checks += 1
        if not _eq(t.inv[i], t.div[i][t.bot_i]):
            return checks, _ce(a=elems[i]), {}
    for i, j in ctx.indices(2):
        checks += 1
        if t.leq[i][j] != _leq(t.inv[j], t.inv[i]):
            return checks, _ce(a=elems[i], b=elems[j]), {}
    return checks, None, {}


def _s5(ctx: _Ctx):
    t, elems = ctx.t, ctx.elems
    bot = core.ap_bot(ctx.params)
    checks = 0
    for i, j in ctx.indices(2):
        checks += 1
        if _eq(t.mul[i][j], bot) != _leq(elems[i], t.inv[j]):
            return checks, _ce(a=elems[i], b=elems[j]), {}
    return checks, None, {}


def _s6(ctx: _Ctx):
    t, elems = ctx.t, ctx.elems
    bot = core.ap_bot(ctx.params)
    checks = 0
    for i in range(ctx.N):
        a = elems[i]
        checks += 1
        if not (
            _eq(t.mul[i][t.top_i], a)
            and _eq(t.mul[t.top_i][i], a)
            and _eq(t.mul[i][t.bot_i], bot)
            and _eq(t.mul[t.bot_i][i], bot)
        ):
            return checks, _ce(a=a), {}
        checks += 1
        if not (t.leq[t.bot_i][i] and t.leq[i][t.top_i]):
            return checks, _ce(a=a), {}
    return checks, None, {}


def _s7(ctx: _Ctx):
    t, elems = ctx.t, ctx.elems
    N = ctx.N
    leq, below, above = t.leq, t.below, t.above
    meet_i, join_i = t.meet_i, t.join_i
    checks = 0
    for i in range(N):
        checks += 1
        if not leq[i][i]:
            return checks, _ce(a=elems[i]), {}
    for i in range(N):
        for j in range(N):
            checks += 1
            if leq[i][j] and leq[j][i] and i != j:
                return checks, _ce(a=elems[i], b=elems[j]), {"law": "antisymmetry"}
            if leq[i][j] and above[j] & ~above[i]:
                return checks, _ce(a=elems[i], b=elems[j]), {"law": "transitivity"}
            z = meet_i[i][j]
            if not (leq[z][i] and leq[z][j]) or (below[i] & below[j]) & ~below[z]:
                return checks, _ce(a=elems[i], b=elems[j]), {"law": "glb"}
            u = join_i[i][j]
            if not (leq[i][u] and leq[j][u]) or (above[i] & above[j]) & ~above[u]:
                return checks, _ce(a=elems[i], b=elems[j]), {"law": "lub"}
    for i, j, k in ctx.indices(3):
        checks += 1
        if meet_i[i][join_i[j][k]] != join_i[meet_i[i][j]][meet_i[i][k]]:
            return checks, _ce(a=elems[i], b=elems[j], c=elems[k]), {
                "law": "meet over join"
            }
        if join_i[i][meet_i[j][k]] != meet_i[join_i[i][j]][join_i[i][k]]:
            return checks, _ce(a=elems[i], b=elems[j], c=elems[k]), {
                "law": "join over meet"
            }
    return checks, None, {"distributive": True}


def _s8(ctx: _Ctx):
    params, ops = ctx.params, ctx.ops
    n, p = params.n, params.p
    bot = core.ap_bot(params)
    details = {"branch": "p<=n" if p <= n else "n<p"}
    checks = 0
    for a in ctx.elems:
        checks += 1
        v = ops.join(a, ops.inv(ops.power(a, p)))
        if v is _INVALID or not structure.filter_member("Radical", v):
            return checks, _ce(a=a, value=v), details
        rad = structure.filter_member("Radical", a)
        checks += 1
        if p <= n:
            if (not rad) != _eq(ops.power(a, n + 1), bot):
                return checks, _ce(a=a), details
        else:
            if (not rad) != _eq(ops.power(a, p), bot):
                return checks, _ce(a=a), details
    if n < p:
        c = structure.max_nonradical(params, ctx.R)
        checks += 1
        if not _eq(ops.power(c, p - 1), ops.inv(c)):
            return checks, _ce(c=c), details
        details["cyclic_witness"] = core.render_element(c)
    return checks, None, details


def _s9(ctx: _Ctx):
    params, ops = ctx.params, ctx.ops
    n, p = params.n, params.p
    k0 = max(n + 1, p)
    bot = core.ap_bot(params)
    checks = 0
    for a in ctx.elems:
        checks += 1
        if _eq(ops.power(a, k0), bot) == structure.filter_member("Radical", a):
            return checks, _ce(a=a), {"k_threshold": k0}
    c = structure.max_nonradical(params, ctx.R)
    literal = core.ap_validate(core.LexPair(n - 1, 0), p - 1, params)
    powers = [ops.power(c, k) for k in range(1, k0 + 1)]
    details = {
        "k_threshold": k0,
        "max_nonradical": core.render_element(c),
        "max_matches_literal": c == literal,
        "max_powers": [_fmt(v) for v in powers],
    }
    if p == 1:
        details["p1_note"] = (
            "at p=1 the (n-1,0) closed form is not the maximal non-radical "
            "element; thresholds are asserted for the computed maximum"
        )
    for k in range(1, k0):
        checks += 1
        if _eq(powers[k - 1], bot):
            return checks, _ce(c=c, k=k), details
    checks += 1
    if not _eq(powers[k0 - 1], bot):
        return checks, _ce(c=c, k=k0), details
    if p >= 2:
        checks += 1
        if c != literal:
            return checks, _ce(computed=c, literal=literal), details
    return checks, None, details


def _s10(ctx: _Ctx):
    params, ops = ctx.params, ctx.ops
    n, p = params.n, params.p
    k0 = max(n + 1, p)
    bot = core.ap_bot(params)
    top = core.ap_top(params)
    checks = 0
    for a in ctx.elems:
        tb = ops.bterm(a)
        checks += 1
        if not (_eq(tb, bot) or _eq(tb, top)):
            return checks, _ce(a=a, t=tb), {}
        rad = structure.filter_member("Radical", a)
        checks += 1
        if _eq(tb, top) != rad:
            return checks, _ce(a=a, t=tb), {}
        checks += 1
        if structure.radical_member_via_term(a) != rad:
            return checks, _ce(a=a), {"route": "term"}
        checks += 1
        if structure.radical_member_via_powers(a) != rad:
            return checks, _ce(a=a), {"route": "powers"}
        checks += 1
        if not _eq(ops.join(tb, ops.neg(tb)), top):
            return checks, _ce(a=a, t=tb), {"law": "t \\/ !t = top"}
        v = ops.join(a, ops.neg(ops.power(a, p)))
        for k in (1, 2, 3):
            checks += 1
            if not _eq(ops.multiple(n + 1, ops.power(v, k)), top):
                return checks, _ce(a=a, k=k), {"law": "(n+1).(x \\/ !(x^p))^k = top"}
        mv = ops.multiple(k0, ops.power(a, k0))
        checks += 1
        if not (_eq(mv, bot) or _eq(mv, top)) or _eq(mv, top) != rad:
            return checks, _ce(a=a, value=mv), {"law": "max.x^max boolean-radical"}
    return checks, None, {"k_threshold": k0}


def _s11(ctx: _Ctx):
    params, t, elems, ops = ctx.params, ctx.t, ctx.elems, ctx.ops
    n, p = params.n, params.p
    proper = ("Top", "FOmega", "Radical")
    member = {
        f: [structure.filter_member(f, a) for a in elems] for f in proper
    }
    top = core.ap_top(params)
    bot = core.ap_bot(params)
    checks = 0
    for f in proper:
        mf = member[f]
        checks += 1
        if not mf[t.top_i]:
            return checks, [f"filter={f}", "top missing"], {}
        for i, j in ctx.indices(2):
            if mf[i] and mf[j]:
                checks += 1
                v = t.mul[i][j]
                if v is _INVALID or not structure.filter_member(f, v):
                    return checks, [f"filter={f}"] + _ce(a=elems[i], b=elems[j]), {}
            if mf[i] and t.leq[i][j]:
                checks += 1
                if not mf[j]:
                    return checks, [f"filter={f}"] + _ce(a=elems[i], b=elems[j]), {
                        "law": "upward closure"
                    }
    for i in range(ctx.N):
        checks += 1
        if (member["Top"][i] and not member["FOmega"][i]) or (
            member["FOmega"][i] and not member["Radical"][i]
        ):
            return checks, _ce(a=elems[i]), {"law": "filter chain"}
    cmax = structure.max_nonradical(params, ctx.R)
    for i, a in enumerate(elems):
        checks += 1
        if member["Radical"][i] == core.ap_leq(a, cmax):
            return checks, _ce(a=a, max_nonradical=cmax), {"law": "complement split"}
    # power support facts at a depth past both chain heights
    deep = max(n, p) + 1
    for a in elems:
        if a.alpha in (0, p) and a.m < n:
            pr = core.LexPair(a.m, a.r)
            acc = pr
            for _ in range(deep - 1):
                acc = core.omega_star(acc, pr, n)
            checks += 1
            if acc != (0, 0):
                return checks, _ce(a=a), {"law": "pair power collapse"}
    zero_p = core.ap_validate(core.LexPair(0, 0), p, params)
    checks += 1
    if not _eq(ops.power(zero_p, deep), zero_p):
        return checks, _ce(a=zero_p), {"law": "idempotent radical generator"}
    literal = core.ap_validate(core.LexPair(n - 1, 0), p - 1, params)
    checks += 1
    if not _eq(ops.power(literal, deep), bot):
        return checks, _ce(a=literal), {"law": "deep power bottoms out"}
    # every principal filter matches one of the four candidates
    counts = {f: 0 for f in structure.FILTER_IDS}
    for a in elems:
        checks += 1
        try:
            fid = structure.classify_generated_filter(a, ctx.w)
        except RuntimeError:
            return checks, _ce(a=a), {"law": "generated filter classification"}
        counts[fid] += 1
        if a == top:
            expected = "Top"
        elif a.alpha == p and a.m == n and a.r < 0:
            expected = "FOmega"
        elif a.alpha == p:
            expected = "Radical"
        else:
            expected = "Improper"
        if fid != expected:
            return checks, _ce(a=a, got=fid, expected=expected), {}
    details = {"generated_filter_counts": counts}
    # quotient class counts
    checks += 1
    fom_classes = len(structure.quotient_classes(ctx.w, "FOmega"))
    details["fomega_classes"] = fom_classes
    if fom_classes != structure.hat_size(params):
        return checks, [f"fomega_classes={fom_classes}"], details
    checks += 1
    top_classes = len(structure.quotient_classes(ctx.w, "Top"))
    if top_classes != ctx.N:
        return checks, [f"top_classes={top_classes}"], details
    checks += 1
    improper_classes = len(structure.quotient_classes(ctx.w, "Improper"))
    if improper_classes != 1:
        return checks, [f"improper_classes={improper_classes}"], details
    checks += 1
    induced = structure.quotient_induced_mul_report(ctx.w, "FOmega")
    details["fomega_induced_mul"] = induced
    if not (induced["well_defined"] and induced["unique_r0_transversal"]):
        return checks, ["induced product on the FOmega quotient broke"], details
    details["rad_quotient"] = structure.rad_quotient_report(params, ctx.R)
    return checks, None, details


def _s12(ctx: _Ctx):
    params = ctx.params
    expected = {core.ap_bot(params), core.ap_top(params)}
    got = structure.boolean_elements(ctx.w)
    checks = ctx.N * ctx.N
    if got != expected:
        extra = sorted(
            got.symmetric_difference(expected), key=lambda a: (a.alpha, a.m, a.r)
        )
        return checks, [_fmt(a) for a in extra], {}
    return checks, None, {"count": len(got)}


def _s13(ctx: _Ctx):
    t, elems = ctx.t, ctx.elems
    p = ctx.params.p
    # Members are window elements, so every operation on them is a table
    # read: mul and div hold the bundle's results, meets and joins stay in
    # the window and are looked up by index.
    meet_t = [[elems[z] for z in row] for row in t.meet_i]
    join_t = [[elems[z] for z in row] for row in t.join_i]
    tables = (t.mul, t.div, meet_t, join_t)
    targets: list[tuple[str, int | None]] = [
        ("L2", None), ("ChangL2w", None), ("HatLnp", None),
        ("HatLn2", None), ("A2", None),
    ]
    for q in range(1, p + 1):
        if p % q == 0:
            targets.append(("Aq", q))
            targets.append(("HatLq", q))
    checks = 0
    for sid, q in targets:
        members = [i for i, a in enumerate(elems) if structure.subalg_member(sid, a, q)]
        label = sid if q is None else f"{sid}(q={q})"
        for i in members:
            a, c = elems[i], t.inv[i]
            checks += 1
            if c is _INVALID or not structure.subalg_member(sid, c, q):
                return checks, [f"subalgebra={label}"] + _ce(a=a, inv=c), {}
            for j in members:
                b = elems[j]
                for table in tables:
                    checks += 1
                    c = table[i][j]
                    if c is _INVALID:
                        return checks, [f"subalgebra={label}"] + _ce(a=a, b=b), {}
                    if abs(c.r) <= ctx.R and not structure.subalg_member(sid, c, q):
                        return (
                            checks,
                            [f"subalgebra={label}"] + _ce(a=a, b=b, result=c),
                            {},
                        )
    return checks, None, {"targets": [s if q is None else f"{s}(q={q})"
                                      for s, q in targets]}


def _s14(ctx: _Ctx):
    t, elems = ctx.t, ctx.elems
    checks = 0
    for i, j in ctx.indices(2):
        checks += 1
        if not _eq(closed_form_div(elems[i], elems[j]), t.div[i][j]):
            return checks, _ce(a=elems[i], b=elems[j]), {}
    return checks, None, {}


def _s15(ctx: _Ctx):
    t, elems, ops = ctx.t, ctx.elems, ctx.ops
    N = ctx.N
    # the right-hand side written out as ~(a * ~c), never via the packaged residual
    sep = [
        [ops.inv(ops.mul(elems[i], ops.inv(elems[k]))) for k in range(N)]
        for i in range(N)
    ]
    checks = 0
    for i, k in ctx.indices(2):
        checks += 1
        if not _eq(sep[i][k], t.div[i][k]):
            return checks, _ce(a=elems[i], c=elems[k]), {"law": "residual agreement"}
    for i, j, k in ctx.indices(3):
        checks += 1
        if _leq(t.mul[i][j], elems[k]) != _leq(elems[j], sep[i][k]):
            return checks, _ce(a=elems[i], b=elems[j], c=elems[k]), {}
    return checks, None, {}


def _s16(ctx: _Ctx):
    params = ctx.params
    kmax = max(params.n + 1, params.p)
    # run_suite has already gated S16's estimate against the budget
    v1 = terms.check_equation(
        terms.preset("WL", kmax), params, ctx.R, ops=ctx.ops, force=True
    )
    checks = v1.checked
    details: dict = {"k": kmax}
    if not v1.holds:
        return checks, ["x=" + _fmt(v1.counterexample["x"])], details
    v2 = terms.check_equation(
        terms.preset("WLwitness", params=params),
        params,
        ctx.R,
        domain=lambda a: structure.subalg_member("HatLn2", a),
        ops=ctx.ops,
        force=True,
    )
    checks += v2.checked
    if v2.holds:
        return checks, [f"no witness against the m={params.n} equation"], details
    details["witness"] = _fmt(v2.counterexample["x"])
    return checks, None, details


# ---------------------------------------------------------------------------
# Registry.

@dataclass(frozen=True)
class _SuiteEntry:
    sid: str
    title: str
    runner: Callable[[_Ctx], tuple]
    # Estimated checks from |W| and draws(k), the number of k-tuples the
    # ctx.indices loops visit: N**k exhaustively, sample when sampled.
    # Every other loop runs in full either way.
    cost: Callable[[int, Callable[[int], int]], int]


SUITES: dict[str, _SuiteEntry] = {
    e.sid: e
    for e in (
        _SuiteEntry("S1", "residuation", _s1, lambda N, d: d(3)),
        _SuiteEntry("S2", "associativity", _s2, lambda N, d: d(3) + d(2)),
        _SuiteEntry("S3", "monotonicity", _s3, lambda N, d: d(3)),
        _SuiteEntry("S4", "involution", _s4, lambda N, d: d(2) + 2 * N),
        _SuiteEntry("S5", "annihilation", _s5, lambda N, d: d(2)),
        _SuiteEntry("S6", "unit-absorb", _s6, lambda N, d: 2 * N),
        _SuiteEntry("S7", "lattice-glb-lub-distributivity", _s7,
                    lambda N, d: d(3) + N**2 + N),
        _SuiteEntry("S8", "local-nilpotency", _s8, lambda N, d: 2 * N + 1),
        _SuiteEntry("S9", "power-thresholds", _s9, lambda N, d: 2 * N + 8),
        _SuiteEntry("S10", "boolean-radical-term", _s10, lambda N, d: 9 * N),
        _SuiteEntry("S11", "filters", _s11, lambda N, d: 6 * d(2) + N**2),
        _SuiteEntry("S12", "boolean-elements", _s12, lambda N, d: N**2),
        _SuiteEntry("S13", "subalgebra-closure", _s13, lambda N, d: 40 * N**2),
        _SuiteEntry("S14", "residual-closed-form", _s14, lambda N, d: d(2)),
        _SuiteEntry("S15", "residuation-generic", _s15, lambda N, d: d(3) + d(2)),
        _SuiteEntry("S16", "wl-membership", _s16, lambda N, d: 2 * N),
    )
}


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    title: str
    n: int
    p: int
    R: int
    checks_run: int
    estimate: int  # the check count the budget was gated on
    verdict: str  # "pass" | "fail"
    first_counterexample: tuple[str, ...] | None
    details: dict
    elapsed: float
    tables_s: float

    def text_line(self) -> str:
        """One summary line; deliberately free of timing so output is
        byte-stable across runs."""
        line = (
            f"{self.suite} {self.title} n={self.n} p={self.p} R={self.R} "
            f"{self.verdict} checks={self.checks_run}"
        )
        if self.first_counterexample:
            line += " counterexample " + " ".join(self.first_counterexample)
        return line

    def json_line(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "title": self.title,
                "n": self.n,
                "p": self.p,
                "R": self.R,
                "checks_run": self.checks_run,
                "estimate": self.estimate,
                "verdict": self.verdict,
                "first_counterexample": (
                    list(self.first_counterexample)
                    if self.first_counterexample
                    else None
                ),
                "details": self.details,
                "elapsed": round(self.elapsed, 6),
                "tables_s": round(self.tables_s, 6),
                "checks_per_s": (
                    round(self.checks_run / self.elapsed, 1) if self.elapsed > 0 else None
                ),
            }
        )


def run_suite(
    sid: str,
    params: AlgebraParams,
    R: int = 2,
    ops: OpsBundle | None = None,
    budget: int | None = None,
    force: bool = False,
    sample: int | None = None,
    seed: int = 0,
) -> SuiteReport:
    """Run one suite on the (params, R) window.

    sample switches to seeded-random assignments and needs R >= 4; below
    that, windows are small enough that exhaustion is both feasible and
    the stronger claim.  A sampled run's budget estimate counts sample
    draws for each sampled loop and every other loop in full.
    """
    entry = SUITES.get(sid)
    if entry is None:
        raise ValueError(f"unknown suite {sid!r}")
    if sample is not None:
        if R < 4:
            raise ValueError("sampled mode is for R >= 4; run exhaustively instead")
        if sample < 1:
            raise ValueError(f"sample must be positive, got {sample}")
    w = Window(params, R)
    N = len(w)
    draws = (lambda k: N**k) if sample is None else (lambda k: sample)
    estimate = entry.cost(N, draws)
    enforce_budget(sid, params, R, estimate, budget, force)
    bundle = REFERENCE if ops is None else ops
    start = time.perf_counter()
    tables = _tables(params, R, bundle)
    built = time.perf_counter()
    ctx = _Ctx(w, bundle, tables, sample, seed)
    checks, ce, details = entry.runner(ctx)
    elapsed = time.perf_counter() - built
    return SuiteReport(
        suite=sid,
        title=entry.title,
        n=params.n,
        p=params.p,
        R=R,
        checks_run=checks,
        estimate=estimate,
        verdict="pass" if ce is None else "fail",
        first_counterexample=tuple(ce) if ce else None,
        details=details,
        elapsed=elapsed,
        tables_s=built - start,
    )


def run_grid(
    suites=None,
    grid=None,
    R: int = 2,
    ops: OpsBundle | None = None,
    budget: int | None = None,
    force: bool = False,
    sample: int | None = None,
    seed: int = 0,
) -> list[SuiteReport]:
    """Every suite at every grid point, in a fixed order."""
    sids = list(SUITES) if suites is None else list(suites)
    points = DEFAULT_GRID if grid is None else tuple(grid)
    reports = []
    for n, p in points:
        params = AlgebraParams(n, p)
        for sid in sids:
            reports.append(
                run_suite(sid, params, R, ops=ops, budget=budget,
                          force=force, sample=sample, seed=seed)
            )
    return reports


def mutation_check(
    params: AlgebraParams | None = None,
    R: int = 2,
    suites=None,
) -> dict[str, list[str]]:
    """Which suites catch each documented mutation.

    Returns mutation name -> list of failing suite ids; an empty list
    means the mutation slipped through, i.e. the suites are vacuous
    somewhere.
    """
    params = AlgebraParams(2, 3) if params is None else params
    sids = list(SUITES) if suites is None else list(suites)
    out: dict[str, list[str]] = {}
    for name, bundle in MUTATIONS.items():
        caught = []
        for sid in sids:
            if run_suite(sid, params, R, ops=bundle).verdict == "fail":
                caught.append(sid)
        out[name] = caught
    return out
