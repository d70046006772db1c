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
built once per (params, R, bundle): every product, residual and
involution of window elements as the id of its value, each distinct
value stored once, every meet and join of window elements, and the
order of those values.  Meets and joins stay in the window, so they are
stored as window indices.  Products can leave the window, so a check
that multiplies twice has no table for its second step.  Exhaustive S2
takes the distinct first-step product ids; one in the window has its
second steps in the product table, and only the others are multiplied
by every window element on either side.  Sampled S2 reads the same way
per drawn triple: a second step whose first step is in the window comes
from the product table, and the bundle multiplies only the others.  S13's subalgebra
members are window elements, so its closure checks read the id tables
directly: each member's four rows, read at the members, are tested at
once against the set of ids that pass, and only a member that fails is
walked.  S8-S11 walk each power and multiple of a window element on the
id tables, one read per step while the chain stays in the window.  The
tables are a bundle too, the one they tabulate: S10 and S16 pass them
where a bundle is taken, so S16's equations read the tables, and S10's
two radical routes compute with REFERENCE's tables.  Those routes and
the structure scans that S8, S9, S11 and S12 call read the REFERENCE
tables under every bundle, and run_suite builds those along with the
suite's own.  Each report times the table build (tables_s) apart from
the checks (elapsed) and carries the estimate its budget gate used next
to the checks it ran.

The order is tabulated as bitmasks over interned ids.  The distinct
products, residuals and involutions get ids as they are computed, one
dict lookup each, window elements first, so ids 0..N-1 are the window
indices.  ge[u] holds the ids above value u; up[u] and down[u] hold the
window elements above and below it.  The invalid marker, id t.bad,
gets empty masks and no filter bit.  The masks come from the closed
form of the order, a bisect or two per id, where comparing each triple
would cost about 2N**3 order calls.  The build's operation calls are
the N**2 products and an involution per distinct product.  Every suite
reads the order from the masks, a sampled run's draws included.

The N**3 suites S1, S2, S3 and S7 (and S15, through S1) each test one
predicate per triple, which a sampled run applies to its draws.  An
exhaustive run first tests whole rows: holds(i) decides row i over every
(j, k) at once, _first_row skips the rows that hold, and the predicate
walks the first that fails, so the checks and the first counterexample
are the plain loop's.  S1's row compares the up rows of row i's products
with the transposed down rows of its residuals.  S3's row tests its
three laws only on the window's cover pairs, c_k covering b_j,
reading ge bits; the order is transitive, so they imply the laws on
every pair b_j <= c_k.  S2 and S7 compose their rows
with bytes.translate, a row read through another, while their ids fit in
a byte (window elements, for S7); past 256 they walk every triple.  S7's
N**2 pair laws, which every run checks in full, go a row at a time too:
a row that passes its row test is skipped, and any other is walked pair
by pair.

A sampled run draws its pairs and triples once per window (_draws), with
the tables and timed as part of tables_s; every suite on the window reads
the same draws.  The budget gates the 5*sample draws before any build.
Draws repeat: S14 runs its oracle once per distinct drawn pair, in order
of first draw, and counts its checks up to the first draw that fails.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import time
from collections import defaultdict
from functools import lru_cache, reduce
from operator import itemgetter, or_
from typing import Callable

from resilat import core, structure, terms
from resilat.core import _INVALID, REFERENCE, AlgebraParams, ApElem, OpsBundle, _Record
from resilat.structure import DEFAULT_GRID, Window, _low, _tables, _transpose
from resilat.structure import checks_per_s, enforce_budget


def _eq(x: object, y: object) -> bool:
    """Equality where the invalid marker equals nothing, itself included."""
    if x is _INVALID or y is _INVALID:
        return False
    return x == y


# ---------------------------------------------------------------------------
# The two chains' products as functions, an independent route to the
# cases that core.ap_mul writes out: _case2, S11's pair powers and the
# tests' oracles read them.

def omega_star(a: tuple[int, int], b: tuple[int, int], n: int) -> tuple[int, int]:
    """Chain product max{(0,0), (m+k-n, r+s)}."""
    return max((0, 0), (a[0] + b[0] - n, a[1] + b[1]))


def fin_star(a: int, b: int, p: int) -> int:
    return max(0, a + b - p)


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
    return a.alpha != 0 != b.alpha and fin_star(a.alpha, b.alpha, a.p) == 0


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
    m, r, al, n, p = a
    k, s, be, nb, pb = b
    if nb != n or pb != p:
        core._same_params(a, b)
    if al == p and be == 0:  # the chain product max{(0,0), (m+k-n, r+s)}
        m, r = m + k - n, r + s
        if m < 0 or m == 0 and r < 0:
            m = r = 0
        return core._mk(m, r, 0, n, p)
    if al == 0 and be == 0:
        # level 0 is order-reversed, so the pair residual runs backwards
        m, r, cap, level = n - k + m, r - s, n, p
    elif al == 0:
        m, r, cap, level = m + k + 1, r + s, n, p
    elif be == 0:
        m, r, cap, level = 2 * n - 1 - (m + k), -(r + s), n - 1, p - al
    else:  # the chain residual, on a middle level when al > be
        m, r, cap, level = n - m + k, s - r, n, p
        if al > be:
            cap, level = n - 1, p - al + be
    if m > cap or m == cap and r > 0:
        m, r = cap, 0
    return core._mk(m, r, level, n, p)


# ---------------------------------------------------------------------------
# The per-run context.

_ARITIES = (2, 3)  # a sampled window draws pairs and triples


@lru_cache(maxsize=2)  # run_grid goes window by window: one per arity
def _draws(seed: int, arity: int, N: int, sample: int) -> tuple:
    """The seeded-random index tuples of one sampled loop: arity*sample
    values of Random(f"{seed}:{arity}").randrange(N), in order.

    randrange(N) is getrandbits(k) for k = N.bit_length(), drawn again
    while the value is >= N.  For k <= 32 each getrandbits(k) takes the
    top k bits of one 32-bit Mersenne Twister word, and getrandbits(32*M)
    returns the next M words, least significant first.  So one block of
    words, each shifted right by 32 - k, with the values >= N dropped, is
    the same sequence; another block tops it up when rejections leave too
    few.  For k <= 8 a value is its word's top byte shifted right by 8 - k:
    the block's little-endian bytes hold word w's top byte at 4w + 3, and
    one bytes.translate maps those bytes to values and drops the rejected.
    """
    assert 0 < N < 2**32
    rng = random.Random(f"{seed}:{arity}")
    k = N.bit_length()
    shift, want = 32 - k, arity * sample
    small = k <= 8
    if small:
        table = bytes(b >> (8 - k) for b in range(256))
        drop = bytes(b for b in range(256) if b >> (8 - k) >= N)
    vals: bytearray | list[int] = bytearray() if small else []
    while len(vals) < want:
        M = ((want - len(vals)) << k) // N + 1  # the words it takes, expected
        block = rng.getrandbits(32 * M)
        if small:
            vals += block.to_bytes(4 * M, "little")[3::4].translate(table, drop)
        else:
            words = memoryview(block.to_bytes(4 * M, sys.byteorder)).cast("I")
            if sys.byteorder == "big":  # the most significant word comes first
                words = words[::-1]
            vals += [v for w in words if (v := w >> shift) < N]
    del vals[want:]
    return tuple(zip(*[iter(vals)] * arity))


class _Ctx(_Record):
    """What a suite body reads: the window, the tables of the bundle under
    test (t.ops), and the sample size (None when exhaustive) and seed."""

    __slots__ = fields = ("w", "t", "sample", "seed")

    params = property(lambda self: self.w.params)
    R = property(lambda self: self.w.R)
    elems = property(lambda self: self.t.elems)
    N = property(lambda self: self.t.N)

    def indices(self, arity: int):
        """Index tuples: the full product, or seeded-random draws in
        sampled mode.  Either way the order is deterministic."""
        if self.sample is None:
            return itertools.product(range(self.N), repeat=arity)
        return _draws(self.seed, arity, self.N, self.sample)


_BYTES = 256  # ids a bytes row holds, when exhaustive S2 and S7 compose rows


def _first_row(holds: Callable[[int], bool], N: int):
    """The checks an exhaustive (i, j, k) loop makes before the first i
    whose row fails holds, and that row's triples, to walk for its first
    counterexample; N**3 checks and no triples when every row holds."""
    i = next((i for i in range(N) if not holds(i)), N)
    return i * N * N, itertools.product(range(i, min(i + 1, N)), range(N), range(N))


def _fmt(v: object) -> str:
    return core.render_element(v) if isinstance(v, ApElem) else str(v)


def _ce(**kw) -> list[str]:
    return [f"{key}={_fmt(val)}" for key, val in kw.items()]


# ---------------------------------------------------------------------------
# Suite bodies.  Each returns (checks_run, counterexample | None, details).

def _s1(ctx: _Ctx):
    t, elems, N = ctx.t, ctx.elems, ctx.N
    # a*b_j <= c_k is bit k of up[a*b_j], and b_j <= a->c_k is bit j of
    # down[a->c_k]; row i holds when its up rows are the transposed down
    # rows of its residuals
    up, down, mul_id, div_id = t.up, t.down, t.mul_id, t.div_id

    def holds(i: int) -> bool:
        return [up[u] for u in mul_id[i]] == _transpose([down[u] for u in div_id[i]], N)

    checks, triples = 0, ctx.indices(3)
    if ctx.sample is None:
        checks, triples = _first_row(holds, N)
    for i, j, k in triples:
        checks += 1
        if up[mul_id[i][j]] >> k & 1 != down[div_id[i][k]] >> j & 1:
            return checks, _ce(a=elems[i], b=elems[j], c=elems[k]), {}
    return checks, None, {}


def _s2(ctx: _Ctx):
    t, elems, N = ctx.t, ctx.elems, ctx.N
    ops, vals, mul_id = t.ops, t.vals, t.mul_id
    # equal values share an id, and the invalid marker's id equals nothing
    bad = t.bad
    checks = 0
    if ctx.sample is not None:
        # A first step with id f < N is window element f, so its second
        # step is in the product table (the bundle is pure); the bundle
        # multiplies only first steps past the window or invalid.
        for i, j, k in ctx.indices(3):
            checks += 1
            f, g = mul_id[i][j], mul_id[j][k]
            if f < N and g < N:
                same = mul_id[f][k] == mul_id[i][g] != bad
            else:
                same = _eq(vals[mul_id[f][k]] if f < N else ops.mul(vals[f], elems[k]),
                           vals[mul_id[i][g]] if g < N else ops.mul(elems[i], vals[g]))
            if not same:
                return checks, _ce(a=elems[i], b=elems[j], c=elems[k]), {}
    else:
        # Products of window elements land in W_2R (anywhere, under a
        # mutant).  In the window, a distinct first-step product id u has
        # its second steps in the product table (the bundle is pure), and
        # any other u, the invalid marker's included, is multiplied once
        # on each side.  Second steps are interned by value, an invalid
        # one under a key of its side, so that it equals nothing.
        prods = list(dict.fromkeys(itertools.chain(*mul_id)))
        first = {u: x for x, u in enumerate(prods)}
        step = [list(map(first.__getitem__, row)) for row in mul_id]
        ids = defaultdict(lambda: len(ids))
        intern = ids.__getitem__
        left = [list(map(intern, map(vals.__getitem__, mul_id[u]) if u < N
                         else [ops.mul(vals[u], c) for c in elems]))
                for u in prods]
        if _INVALID in ids:
            ids["left"] = ids.pop(_INVALID)
        right = [list(map(intern, [vals[row[u]] if u < N else ops.mul(a, vals[u])
                                   for u in prods]))
                 for a, row in zip(elems, mul_id)]
        triples = ctx.indices(3)
        if len(prods) <= _BYTES and len(ids) <= _BYTES:
            # row i over (j, k): left[step[i][j]] for each j, against the
            # step rows read through right[i]
            left = [bytes(r) for r in left]
            right = [bytes(r).ljust(256) for r in right]
            steps = bytes(itertools.chain.from_iterable(step))
            skipped, triples = _first_row(lambda i: b"".join(
                [left[x] for x in step[i]]) == steps.translate(right[i]), N)
            checks += skipped
        for i, j, k in triples:
            checks += 1
            if left[step[i][j]][k] != right[i][step[j][k]]:
                return checks, _ce(a=elems[i], b=elems[j], c=elems[k]), {}
    pairs = 0
    for i, j in ctx.indices(2):
        checks += 1
        pairs += 1
        if not mul_id[i][j] == mul_id[j][i] != bad:
            return checks, _ce(a=elems[i], b=elems[j]), {}
    return checks, None, {"commutativity_pairs": pairs}


def _s3(ctx: _Ctx):
    t, elems, N = ctx.t, ctx.elems, ctx.N
    # value u <= value v is bit v of ge[u]
    up, ge, mul_id, div_id = t.up, t.ge, t.mul_id, t.div_id

    def holds(i: int) -> bool:
        # The three laws on the pairs (j, k) where c_k covers b_j, bit by
        # bit: a*b_j <= a*c_k, a->b_j <= a->c_k and c_k->a <= b_j->a.  The
        # order is transitive, so these imply the laws on every b_j <= c_k.
        # Every element lies in a cover pair (bottom is below top), and an
        # invalid value, in no ge mask, fails there.
        mul_row, div_row = mul_id[i], div_id[i]
        div_col = [row[i] for row in div_id]
        return all(ge[mul_row[j]] >> mul_row[k] & ge[div_row[j]] >> div_row[k]
                   & ge[div_col[k]] >> div_col[j] & 1 for j, k in pairs)

    checks, triples = 0, ctx.indices(3)
    if ctx.sample is None:
        pairs = [(j, k) for j, cover in enumerate(structure._covers(up[:N], t.down[:N]))
                 for k in cover]
        checks, triples = _first_row(holds, N)
    for i, j, k in triples:
        checks += 1
        if up[j] >> k & 1 and not (
            ge[mul_id[i][j]] >> mul_id[i][k] & 1
            and ge[div_id[i][j]] >> div_id[i][k] & 1
            and ge[div_id[k][i]] >> div_id[j][i] & 1
        ):
            return checks, _ce(a=elems[i], b=elems[j], c=elems[k]), {}
    return checks, None, {"implications": "mul and div monotone, div antitone left"}


def _s4(ctx: _Ctx):
    t, elems = ctx.t, ctx.elems
    vals, up, ge, inv_id = t.vals, t.up, t.ge, t.inv_id
    checks = 0
    for i in range(ctx.N):
        checks += 1
        if not _eq(t.ops.inv(vals[inv_id[i]]), elems[i]):
            return checks, _ce(a=elems[i]), {}
        checks += 1
        if not _eq(vals[inv_id[i]], vals[t.div_id[i][t.bot_i]]):
            return checks, _ce(a=elems[i]), {}
    for i, j in ctx.indices(2):
        checks += 1
        if up[i] >> j & 1 != ge[inv_id[j]] >> inv_id[i] & 1:
            return checks, _ce(a=elems[i], b=elems[j]), {}
    return checks, None, {}


def _s5(ctx: _Ctx):
    # a window element's id is its index, and the invalid marker's is N
    # or more, so ids compare as the values do
    t, elems = ctx.t, ctx.elems
    mul_id, down, inv_id, bot_i = t.mul_id, t.down, t.inv_id, t.bot_i
    checks = 0
    for i, j in ctx.indices(2):
        checks += 1
        if (mul_id[i][j] == bot_i) != down[inv_id[j]] >> i & 1:
            return checks, _ce(a=elems[i], b=elems[j]), {}
    return checks, None, {}


def _s6(ctx: _Ctx):
    t, elems = ctx.t, ctx.elems
    mul_id, bot_i, top_i = t.mul_id, t.bot_i, t.top_i
    checks = 0
    for i in range(ctx.N):
        checks += 1
        if not (
            mul_id[i][top_i] == i
            and mul_id[top_i][i] == i
            and mul_id[i][bot_i] == bot_i
            and mul_id[bot_i][i] == bot_i
        ):
            return checks, _ce(a=elems[i]), {}
        checks += 1
        if not (t.up[bot_i] >> i & 1 and t.up[i] >> top_i & 1):
            return checks, _ce(a=elems[i]), {}
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
    ups, downs = up[:N], down[:N]

    def holds(i: int) -> bool:
        # Row i's pair laws over every j at once: i is the one element
        # both above and below i; every up row of an element above i lies
        # in up[i]; and each meet's down row, and each join's up row, is
        # the common one.  down is up transposed, and the order reflexive,
        # so these imply the four laws the loop below checks per j.
        ui, di = up[i], down[i]
        above = itertools.compress(up, map("1".__eq__, bin(ui)[:1:-1]))
        return (ui & di == 1 << i and not reduce(or_, above, 0) & ~ui
                and list(map(down.__getitem__, meet_i[i])) == list(map(di.__and__, downs))
                and list(map(up.__getitem__, join_i[i])) == list(map(ui.__and__, ups)))

    for i in range(N):
        if holds(i):
            checks += N
            continue
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
    triples = ctx.indices(3)
    if ctx.sample is None and N <= _BYTES:
        # For fixed i each law is an N x N block over (j, k) of table rows
        # read through other rows: one bytes.translate per row.
        meet_b, join_b = [bytes(r) for r in meet_i], [bytes(r) for r in join_i]
        meet_t, join_t = [r.ljust(256) for r in meet_b], [r.ljust(256) for r in join_b]
        meets, joins = b"".join(meet_b), b"".join(join_b)

        def holds(i: int) -> bool:
            mb, jb = meet_b[i], join_b[i]
            return (joins.translate(meet_t[i])
                    == b"".join([mb.translate(join_t[z]) for z in meet_i[i]])
                    and meets.translate(join_t[i])
                    == b"".join([jb.translate(meet_t[u]) for u in join_i[i]]))

        skipped, triples = _first_row(holds, N)
        checks += skipped
    for i, j, k in triples:
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
    params, t, ops = ctx.params, ctx.t, ctx.t.ops
    n, p = params.n, params.p
    bot = core.ap_bot(params)
    details = {"branch": "p<=n" if p <= n else "n<p"}
    checks = 0
    for a in ctx.elems:
        checks += 1
        v = ops.join(a, ops.inv(t.power(a, p)))
        if v is _INVALID or not structure.filter_member("Radical", v):
            return checks, _ce(a=a, value=v), details
        rad = structure.filter_member("Radical", a)
        checks += 1
        if (not rad) != _eq(t.power(a, n + 1 if p <= n else p), bot):
            return checks, _ce(a=a), details
    if n < p:
        c = structure.max_nonradical(params, ctx.R)
        checks += 1
        if not _eq(t.power(c, p - 1), ops.inv(c)):
            return checks, _ce(c=c), details
        details["cyclic_witness"] = core.render_element(c)
    return checks, None, details


def _s9(ctx: _Ctx):
    params, t = ctx.params, ctx.t
    n, p = params.n, params.p
    k0 = max(n + 1, p)
    bot = core.ap_bot(params)
    checks = 0
    for a in ctx.elems:
        checks += 1
        if _eq(t.power(a, k0), bot) == structure.filter_member("Radical", a):
            return checks, _ce(a=a), {"k_threshold": k0}
    c = structure.max_nonradical(params, ctx.R)
    literal = core.ap_validate(core.LexPair(n - 1, 0), p - 1, params)
    powers = [t.power(c, k) for k in range(1, k0 + 1)]
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
    for k in range(1, k0 + 1):  # bottom first at k0
        checks += 1
        if _eq(powers[k - 1], bot) != (k == k0):
            return checks, _ce(c=c, k=k), details
    if p >= 2:
        checks += 1
        if c != literal:
            return checks, _ce(computed=c, literal=literal), details
    return checks, None, details


def _s10(ctx: _Ctx):
    params, t = ctx.params, ctx.t
    # the two radical routes compute with REFERENCE, read from its tables
    ref = _tables(params, ctx.R, REFERENCE)
    n, p = params.n, params.p
    k0 = max(n + 1, p)
    bot = core.ap_bot(params)
    top = core.ap_top(params)
    checks = 0
    for a in ctx.elems:
        deep = t.power(a, k0)
        tb = t.multiple(n + 1, deep)
        checks += 1
        if not (_eq(tb, bot) or _eq(tb, top)):
            return checks, _ce(a=a, t=tb), {}
        rad = structure.filter_member("Radical", a)
        checks += 1
        if _eq(tb, top) != rad:
            return checks, _ce(a=a, t=tb), {}
        checks += 1
        if structure.radical_member_via_term(a, ref) != rad:
            return checks, _ce(a=a), {"route": "term"}
        checks += 1
        if structure.radical_member_via_powers(a, ref) != rad:
            return checks, _ce(a=a), {"route": "powers"}
        checks += 1
        if not _eq(t.join(tb, t.neg(tb)), top):
            return checks, _ce(a=a, t=tb), {"law": "t \\/ !t = top"}
        v = t.join(a, t.neg(t.power(a, p)))
        for k in (1, 2, 3):
            checks += 1
            if not _eq(t.multiple(n + 1, t.power(v, k)), top):
                return checks, _ce(a=a, k=k), {"law": "(n+1).(x \\/ !(x^p))^k = top"}
        mv = t.multiple(k0, deep)
        checks += 1
        if not (_eq(mv, bot) or _eq(mv, top)) or _eq(mv, top) != rad:
            return checks, _ce(a=a, value=mv), {"law": "max.x^max boolean-radical"}
    return checks, None, {"k_threshold": k0}


def _quotient_break(w: Window, f: str) -> tuple[list[str] | None, int]:
    """The first window pair whose congruence under the filter f is not
    equal quotient_keys, over all N**2 pairs, or None, and the count of
    key classes.  a, b are congruent when a->b and b->a lie in f, an upset
    closed under * with x*y <= x, y: row i is div_id[i] of the REFERENCE
    tables read through f's bit per id, ANDed with its transposed column."""
    t = _tables(w.params, w.R, REFERENCE)
    bits = format(t.filters[f], f"0{len(t.vals)}b")[::-1].encode().ljust(256, b"0")
    rows = [int((r.translate(bits) if isinstance(r, bytes)
                 else bytes(map(bits.__getitem__, r)))[::-1], 2) for r in t.div_id]
    keys = [structure.quotient_key(f, a) for a in t.elems]
    same = defaultdict(int)
    for i, k in enumerate(keys):
        same[k] |= 1 << i
    for i, (row, col, k) in enumerate(zip(rows, _transpose(rows, t.N), keys)):
        if diff := row & col ^ same[k]:
            return [f"filter={f}"] + _ce(a=t.elems[i], b=t.elems[_low(diff)]), len(same)
    return None, len(same)


def _s11(ctx: _Ctx):
    params, t, elems = ctx.params, ctx.t, ctx.elems
    n, p = params.n, params.p
    proper = structure.FILTER_IDS[:3]
    member = t.filters  # bit u: vals[u] is in the filter
    mul_id = t.mul_id
    top = core.ap_top(params)
    bot = core.ap_bot(params)
    pairs = list(ctx.indices(2))  # one draw serves every filter
    checks = 0
    # per filter and drawn pair: closure under *, the bit of the product's
    # id (the invalid marker's is never set), then upward closure
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
                if not mf >> mul_id[i][j] & 1:
                    return checks, [f"filter={f}"] + _ce(a=elems[i], b=elems[j]), {}
            if t.up[i] >> j & 1:
                checks += 1
                if not mf >> j & 1:
                    return checks, [f"filter={f}"] + _ce(a=elems[i], b=elems[j]), {
                        "law": "upward closure"
                    }
    # the first window element breaking the chain, then the first that
    # the maximal non-radical element does not split off the radical
    low = (1 << ctx.N) - 1
    top_f, fomega, radical = (member[f] & low for f in proper)
    broken = top_f & ~fomega | fomega & ~radical
    if broken:
        i = _low(broken)
        return checks + i + 1, _ce(a=elems[i]), {"law": "filter chain"}
    checks += ctx.N
    cmax = structure.max_nonradical(params, ctx.R)
    unsplit = ~(radical ^ t.down[t.idx[cmax]]) & low
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
            acc = pr = (a.m, a.r)
            for _ in range(deep - 1):
                acc = omega_star(acc, pr, n)
            checks += 1
            if acc != (0, 0):
                return checks, _ce(a=a), {"law": "pair power collapse"}
    zero_p = core.ap_validate(core.LexPair(0, 0), p, params)
    checks += 1
    if not _eq(t.power(zero_p, deep), zero_p):
        return checks, _ce(a=zero_p), {"law": "idempotent radical generator"}
    literal = core.ap_validate(core.LexPair(n - 1, 0), p - 1, params)
    checks += 1
    if not _eq(t.power(literal, deep), bot):
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
    # each quotient's keys against its congruence, then the count of
    # classes it grouped: HatLnp's under FOmega and L_{p+1}'s under Radical
    induced = structure.quotient_induced_mul_report(ctx.w, "FOmega")
    details["fomega_classes"] = induced["classes"]
    for f, want in (("FOmega", structure.hat_size(params)), ("Top", ctx.N),
                    ("Improper", 1), ("Radical", p + 1)):
        checks += 1
        ce, got = _quotient_break(ctx.w, f)
        if ce:
            return checks, ce, {"law": "quotient key"}
        if got != want:
            return checks, [f"{f.lower()}_classes={got}"], details
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
    t, elems, N = ctx.t, ctx.elems, ctx.N
    p = ctx.params.p
    vals, bad = t.vals, t.bad
    # Members are window elements, so every operation on them is a table
    # read: mul and div give value ids, and meets and joins stay in the
    # window, whose indices are the first ids.  An id past the window is
    # the invalid marker, which fails, or a valid value past the window's
    # radius, which passes.  A member's four rows, read at the members, are
    # tested at once against the set of passing ids, and only a member
    # that fails is walked.
    tables = (t.mul_id, t.div_id, t.meet_i, t.join_i)
    past = [u != bad for u in range(N, len(vals))]
    # the families Aq and HatLq, last, once per divisor q of p
    targets = [(s, None) for s in structure.SUBALGEBRA_IDS[:-2]]
    targets += [(s, q) for q in range(1, p + 1) if p % q == 0
                for s in structure.SUBALGEBRA_IDS[-2:]]
    checks = 0
    for sid, q in targets:
        member = [structure.subalg_member(sid, a, q) for a in elems]
        closed = member + past
        passing = set(itertools.compress(itertools.count(), closed)).issuperset
        members = list(itertools.compress(range(N), member))
        # every named subalgebra holds bot and top, so pick gives a tuple
        pick = itemgetter(*members)
        label = sid if q is None else f"{sid}(q={q})"
        for i in members:
            u = t.inv_id[i]
            a, c = elems[i], vals[u]
            checks += 1
            if not (member[u] if u < N
                    else u != bad and structure.subalg_member(sid, c, q)):
                return checks, [f"subalgebra={label}"] + _ce(a=a, inv=c), {}
            rows = [table[i] for table in tables]
            if passing(itertools.chain.from_iterable(map(pick, rows))):
                checks += 4 * len(members)
                continue
            for j in members:
                for row in rows:
                    checks += 1
                    u = row[j]
                    if closed[u]:
                        continue
                    ce = _ce(a=a, b=elems[j]) if u == bad else _ce(a=a, b=elems[j], result=vals[u])
                    return checks, [f"subalgebra={label}"] + ce, {}
    return checks, None, {"targets": [s if q is None else f"{s}(q={q})"
                                      for s, q in targets]}


def _s14(ctx: _Ctx):
    t, elems, N = ctx.t, ctx.elems, ctx.N
    vals, div_id = t.vals, t.div_id
    draws = ctx.indices(2)
    # Draws repeat pairs, so a sampled run checks each distinct pair once,
    # in order of its first draw, and counts the checks up to that draw.
    for i, j in draws if ctx.sample is None else dict.fromkeys(draws):
        if closed_form_div(elems[i], elems[j]) != vals[div_id[i][j]]:  # never invalid
            at = i * N + j if ctx.sample is None else draws.index((i, j))
            return at + 1, _ce(a=elems[i], b=elems[j]), {}
    return N * N if ctx.sample is None else len(draws), None, {}


def _s15(ctx: _Ctx):
    t, elems = ctx.t, ctx.elems
    # The residual table is ~(a * ~c) read off the product and involution
    # tables, so it disagrees with the written-out right-hand side only
    # where it is invalid.  The residuation loop is S1's.
    div_id, bad = t.div_id, t.bad
    checks = 0
    for i, k in ctx.indices(2):
        checks += 1
        if div_id[i][k] == bad:
            return checks, _ce(a=elems[i], c=elems[k]), {"law": "residual agreement"}
    more, ce, details = _s1(ctx)
    return checks + more, ce, details


def _s16(ctx: _Ctx):
    params = ctx.params
    kmax = max(params.n + 1, params.p)
    # the equations read the bundle's tables; run_suite has already gated
    # S16's estimate against the budget
    v1 = terms.check_equation(
        terms.preset("WL", kmax), params, ctx.R, ops=ctx.t, force=True
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
        ops=ctx.t,
        force=True,
    )
    checks += v2.checked
    if v2.holds:
        return checks, [f"no witness against the m={params.n} equation"], details
    details["witness"] = _fmt(v2.counterexample["x"])
    return checks, None, details


# ---------------------------------------------------------------------------
# Registry.

class _SuiteEntry(_Record):
    """A suite's id, title and runner, and its cost: the estimated checks
    from |W| and draws(k), the number of k-tuples the ctx.indices loops
    visit, N**k exhaustively and sample when sampled.  Every other loop
    runs in full either way."""

    __slots__ = fields = ("sid", "title", "runner", "cost")


# Suites whose structure scans read the REFERENCE tables whatever the bundle.
_READS_REFERENCE = frozenset({"S8", "S9", "S10", "S11", "S12"})

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


class SuiteReport(_Record):
    """One suite's outcome at one window.  estimate is the check count the
    budget was gated on; verdict is "pass" or "fail"; first_counterexample
    is a tuple of name=value strings or None; elapsed times the checks and
    tables_s the table build."""

    __slots__ = fields = ("suite", "title", "n", "p", "R", "checks_run", "estimate",
                          "verdict", "first_counterexample", "details", "elapsed",
                          "tables_s")

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
        """The fields in order, timings rounded, and the check rate."""
        out = dict(zip(self.fields, self._values()))
        out["elapsed"], out["tables_s"] = round(self.elapsed, 6), round(self.tables_s, 6)
        out["checks_per_s"] = checks_per_s(self.checks_run, self.elapsed)
        return json.dumps(out)


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
    if sample is not None:  # the draws below, whatever the suite reads of them
        enforce_budget(f"{sid} draws", params, R, sum(_ARITIES) * sample, budget, force)
    bundle = REFERENCE if ops is None else ops
    start = time.perf_counter()
    tables = _tables(params, R, bundle)
    if sid in _READS_REFERENCE:
        _tables(params, R, REFERENCE)  # timed as a build, not as checks
    if sample is not None:
        for arity in _ARITIES:  # the window's draws, made once for every suite
            _draws(seed, arity, N, sample)
    built = time.perf_counter()
    checks, ce, details = entry.runner(_Ctx(w, tables, sample, seed))
    elapsed = time.perf_counter() - built
    return SuiteReport(sid, entry.title, params.n, params.p, R, checks, estimate,
                       "pass" if ce is None else "fail", tuple(ce) if ce else None,
                       details, elapsed, built - start)


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
