"""Property suites S1-S16 over enumeration windows.

Each suite exhaustively checks one family of laws on a window and
reports the first counterexample in a canonical order.  The operations
under test come from a core.OpsBundle, REFERENCE by default; each of
the five MUTATIONS overrides one case of the product or involution, to
prove the suites are not vacuous.

A corrupted operation can leave the universe; the bundle then returns
core's invalid marker instead of raising, so the violation surfaces as
an ordinary counterexample rather than a crash mid-suite.

The suites read their operations from the tables of resilat.structure,
built once per (params, R, bundle): every product, residual, involution,
meet and join of window elements, and the order of those values.  Meets
and joins stay in the window, so they are stored as window indices.
Products can leave the window, so a check that multiplies twice has no
table for its second step.  S2 interns the distinct first-step products
into ids and multiplies each once by every window element on either
side; its N^3 associativity loop then only compares ints.  S13's
subalgebra members are window elements, so its closure checks read the
tables directly.  The structure scans that S8, S9, S11 and S12 call read
the REFERENCE tables under every bundle, and run_suite builds those
along with the suite's own.  Each report times the table build
(tables_s) apart from the checks (elapsed) and carries the estimate its
budget gate used next to the checks it ran.

The order is tabulated as bitmasks over interned ids.  The distinct
products, residuals and involutions get ids, window elements first; up[u]
holds the window elements above value u, down[u] those below it, and
ge[u] the ids above it.  The invalid marker gets empty masks.  That costs
about P**2 order calls for P ids (P is about 1.7N on the default grid),
against about 2N**3 for comparing each triple, and every suite reads the
order from it.  Exhaustive S1 and S3 (and S15, through S1) compare whole
rows of bits and read the first counterexample off the lowest differing
bit; sampled runs and the pair suites test one bit per comparison.  The
masks serve every draw of every order suite on the window, which in a
sampled run at R=4 and 2000 draws is more order calls than the P**2.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass
from typing import Callable

from resilat import core, structure, terms
from resilat.core import _INVALID, REFERENCE, AlgebraParams, ApElem, OpsBundle
from resilat.structure import Window, _low, _tables, _Tables, _transpose, enforce_budget
from resilat.structure import _leq, _mask  # noqa: F401  (still harness names)

DEFAULT_GRID = tuple((n, p) for n in (1, 2, 3) for p in (1, 2, 3))


def _eq(x: object, y: object) -> bool:
    """Equality where the invalid marker equals nothing, itself included."""
    if x is _INVALID or y is _INVALID:
        return False
    return x == y


# ---------------------------------------------------------------------------
# Documented single-constant mutations of the product and involution.
#
# Each mutant is the reference outside one case of core.ap_mul or
# core.ap_inv and its own formula inside it.  A product mutant sends the
# operands in its case to level 0 at pair(a, b), capped at (n, 0); an
# involution mutant sends a middle-level element to the flipped level at
# pair(a).  Results in the case are built by core._mk, so one outside the
# universe raises UniverseError, which the bundle turns into the marker.

def _case2(a: ApElem, b: ApElem) -> bool:  # nonzero levels, level product 0
    return a.alpha != 0 != b.alpha and core.fin_star(a.alpha, b.alpha, a.p) == 0


def _case4(a: ApElem, b: ApElem) -> bool:  # both levels 0
    return a.alpha == 0 == b.alpha


def _mul_override(case, pair):
    def raw(a: ApElem, b: ApElem) -> ApElem:
        if not case(a, b):
            return core.ap_mul(a, b)
        core._same_params(a, b)
        m, r = min((a.n, 0), pair(a, b))
        return core._mk(m, r, 0, a.n, a.p)

    return raw


def _inv_override(pair):
    def raw(a: ApElem) -> ApElem:
        if a.alpha in (0, a.p):
            return core.ap_inv(a)
        m, r = pair(a)
        return core._mk(m, r, a.p - a.alpha, a.n, a.p)

    return raw


MUTATIONS = {name: OpsBundle(mul, inv, name) for name, mul, inv in [
    ("mul-case2-const", _mul_override(
        _case2, lambda a, b: (2 * a.n - (a.m + b.m), -(a.r + b.r))), core.ap_inv),
    ("mul-case2-sign", _mul_override(
        _case2, lambda a, b: (2 * a.n - (a.m + b.m + 1), a.r + b.r)), core.ap_inv),
    ("mul-case4-const", _mul_override(
        _case4, lambda a, b: (a.m + b.m, a.r + b.r)), core.ap_inv),
    ("inv-reflect-const", core.ap_mul, _inv_override(lambda a: (a.n - a.m, -a.r))),
    ("inv-reflect-sign", core.ap_mul, _inv_override(lambda a: (a.n - 1 - a.m, a.r))),
]}


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
# The per-run context.

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
    t, elems, N = ctx.t, ctx.elems, ctx.N
    # a*b_j <= c_k is bit k of up[a*b_j], and b_j <= a->c_k is bit j of
    # down[a->c_k]
    up, down, mul_id, div_id = t.up, t.down, t.mul_id, t.div_id
    if ctx.sample is not None:
        checks = 0
        for i, j, k in ctx.indices(3):
            checks += 1
            if up[mul_id[i][j]] >> k & 1 != down[div_id[i][k]] >> j & 1:
                return checks, _ce(a=elems[i], b=elems[j], c=elems[k]), {}
        return checks, None, {}
    # Row i as bit rows over k: the transpose of the down rows lines up
    # with the up rows.  The lowest differing bit is the first
    # counterexample in (i, j, k) order.
    for i in range(N):
        cols = _transpose([down[u] for u in div_id[i]], N)
        for j, u in enumerate(mul_id[i]):
            x = up[u] ^ cols[j]
            if x:
                k = _low(x)
                ce = _ce(a=elems[i], b=elems[j], c=elems[k])
                return (i * N + j) * N + k + 1, ce, {}
    return N**3, None, {}


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
    t, elems, N = ctx.t, ctx.elems, ctx.N
    details = {"implications": "mul and div monotone, div antitone left"}
    # value u <= value v is bit v of ge[u]
    up, ge, mul_id, div_id = t.up, t.ge, t.mul_id, t.div_id
    if ctx.sample is not None:
        checks = 0
        for i, j, k in ctx.indices(3):
            checks += 1
            if not up[j] >> k & 1:
                continue
            if not (
                ge[mul_id[i][j]] >> mul_id[i][k] & 1
                and ge[div_id[i][j]] >> div_id[i][k] & 1
                and ge[div_id[k][i]] >> div_id[j][i] & 1
            ):
                return checks, _ce(a=elems[i], b=elems[j], c=elems[k]), {}
        return checks, None, details
    # For each i, three masks per id v over k: v <= a*c_k, v <= a->c_k
    # and c_k->a <= v.  A triple breaks a law when c_k lies above b_j but
    # outside the mask at a*b_j, at a->b_j or at b_j->a.
    P = len(ge)
    le = _transpose(ge, P)  # le[v]: the ids below value v
    for i in range(N):
        mul_row, div_row = mul_id[i], div_id[i]
        div_col = [row[i] for row in div_id]
        mul_up = _transpose([le[u] for u in mul_row], P)
        div_up = _transpose([le[u] for u in div_row], P)
        col_down = _transpose([ge[u] for u in div_col], P)
        for j in range(N):
            bad = up[j] & ~(
                mul_up[mul_row[j]] & div_up[div_row[j]] & col_down[div_col[j]]
            )
            if bad:
                k = _low(bad)
                ce = _ce(a=elems[i], b=elems[j], c=elems[k])
                return (i * N + j) * N + k + 1, ce, {}
    return N**3, None, details


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
    up, ge, inv_id = t.up, t.ge, t.inv_id
    for i, j in ctx.indices(2):
        checks += 1
        if up[i] >> j & 1 != ge[inv_id[j]] >> inv_id[i] & 1:
            return checks, _ce(a=elems[i], b=elems[j]), {}
    return checks, None, {}


def _s5(ctx: _Ctx):
    t, elems = ctx.t, ctx.elems
    bot = core.ap_bot(ctx.params)
    down, inv_id = t.down, t.inv_id
    checks = 0
    for i, j in ctx.indices(2):
        checks += 1
        if _eq(t.mul[i][j], bot) != down[inv_id[j]] >> i & 1:
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
        if not (t.up[t.bot_i] >> i & 1 and t.up[i] >> t.top_i & 1):
            return checks, _ce(a=a), {}
    return checks, None, {}


def _s7(ctx: _Ctx):
    t, elems = ctx.t, ctx.elems
    N = ctx.N
    up, down = t.up, t.down
    meet_i, join_i = t.meet_i, t.join_i
    checks = 0
    for i in range(N):
        checks += 1
        if not up[i] >> i & 1:
            return checks, _ce(a=elems[i]), {}
    for i in range(N):
        for j in range(N):
            checks += 1
            i_le_j = up[i] >> j & 1
            if i_le_j and up[j] >> i & 1 and i != j:
                return checks, _ce(a=elems[i], b=elems[j]), {"law": "antisymmetry"}
            if i_le_j and up[j] & ~up[i]:
                return checks, _ce(a=elems[i], b=elems[j]), {"law": "transitivity"}
            z, lower = meet_i[i][j], down[i] & down[j]
            if not lower >> z & 1 or lower & ~down[z]:
                return checks, _ce(a=elems[i], b=elems[j]), {"law": "glb"}
            u, upper = join_i[i][j], up[i] & up[j]
            if not upper >> u & 1 or upper & ~up[u]:
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
    member = t.filters  # bit i: elems[i] is in the filter
    top = core.ap_top(params)
    bot = core.ap_bot(params)
    pairs = list(ctx.indices(2))  # one draw serves every filter
    checks = 0
    for f in proper:
        mf = member[f]
        checks += 1
        if not mf >> t.top_i & 1:
            return checks, [f"filter={f}", "top missing"], {}
        for i, j in pairs:
            if not mf >> i & 1:
                continue
            if mf >> j & 1:
                checks += 1
                v = t.mul[i][j]
                if v is _INVALID or not structure.filter_member(f, v):
                    return checks, [f"filter={f}"] + _ce(a=elems[i], b=elems[j]), {}
            if t.up[i] >> j & 1:
                checks += 1
                if not mf >> j & 1:
                    return checks, [f"filter={f}"] + _ce(a=elems[i], b=elems[j]), {
                        "law": "upward closure"
                    }
    # the first element breaking the chain, then the first that the
    # maximal non-radical element does not split off the radical
    top_f, fomega, radical = (member[f] for f in proper)
    broken = top_f & ~fomega | fomega & ~radical
    if broken:
        i = _low(broken)
        return checks + i + 1, _ce(a=elems[i]), {"law": "filter chain"}
    checks += ctx.N
    cmax = structure.max_nonradical(params, ctx.R)
    unsplit = ~(radical ^ t.down[t.idx[cmax]]) & ((1 << ctx.N) - 1)
    if unsplit:
        i = _low(unsplit)
        return checks + i + 1, _ce(a=elems[i], max_nonradical=cmax), {
            "law": "complement split"
        }
    checks += ctx.N
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
    t, elems = ctx.t, ctx.elems
    # OpsBundle.div is ~(a * ~c) written out, so the residual table is the
    # written-out right-hand side; it disagrees with itself only where it
    # is invalid.  The residuation loop is S1's.
    checks = 0
    for i, k in ctx.indices(2):
        checks += 1
        if t.div[i][k] is _INVALID:
            return checks, _ce(a=elems[i], c=elems[k]), {"law": "residual agreement"}
    more, ce, details = _s1(ctx)
    return checks + more, ce, details


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


# Suites whose structure scans read the REFERENCE tables whatever the bundle.
_READS_REFERENCE = frozenset({"S8", "S9", "S11", "S12"})

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
    if sid in _READS_REFERENCE:
        _tables(params, R, REFERENCE)  # timed as a build, not as checks
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
