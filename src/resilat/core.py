"""Exact arithmetic for the bounded residuated lattices A(n, p).

The algebra is glued from two chains: the MV-chain over lexicographic
integer pairs with top (n, 0), and the finite Lukasiewicz chain
{0, ..., p}.  An element is a pair <(m, r), alpha> where alpha picks a
level and (m, r) lives in the full chain on the boundary levels 0 and p
but only in the short segment [(0,0), (n-1,0)] on the middle levels.
Everything is integer arithmetic; there are no floats anywhere.

OpsBundle, the one table of operations, derives all but the lattice
operations from a product, an involution and the residual ~(a . ~b).
REFERENCE, its instance over ap_mul and ap_inv, takes that residual in
one case analysis, ap_div; ap_neg, ap_oplus, ap_pow, ap_mult and
boolean_term are its methods.
"""

from __future__ import annotations

import re
from functools import cache
from operator import attrgetter
from typing import NamedTuple


class UniverseError(ValueError):
    """A pair/level combination that is not an element of the algebra."""


class ParamsMismatchError(ValueError):
    """Operands belong to algebras with different (n, p)."""


# Bound once: a lookup of object.__setattr__ or tuple.__new__ at each
# call searches the type's attributes for the same C function every time.
_setattr = object.__setattr__
_new_tuple = tuple.__new__


class _Record:
    """An immutable record whose fields are its slots, given positionally.
    It equals only a record of its own type with equal fields, and hashes
    likewise.  Every record of the package is one: a subclass names its
    fields in __slots__ = fields = (...), and validates in __init__."""

    __slots__ = fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the type and the fields read in one C call, which == and hash
        # compare: records key the window and table caches
        cls._key = staticmethod(attrgetter("__class__", *cls.fields))

    def __init__(self, *values):
        if len(values) != len(self.fields):
            raise TypeError(f"{type(self).__name__} takes {len(self.fields)} fields")
        for name, value in zip(self.fields, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._values()))})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__


class AlgebraParams(_Record):
    """Height n of the pair chain and size p of the finite chain, both >= 1."""

    __slots__ = fields = ("n", "p")

    def __init__(self, n: int, p: int):
        if n < 1:
            raise ValueError(f"n must be a positive integer, got {n}")
        if p < 1:
            raise ValueError(f"p must be a positive integer, got {p}")
        # set here, not by _Record.__init__'s loop, at half the cost: inputs
        # are built by the thousand, each with its own params
        _setattr(self, "n", n)
        _setattr(self, "p", p)


class LexPair(NamedTuple):
    """Integer pair (m, r); tuple comparison is exactly the lex order."""

    m: int
    r: int


# ---------------------------------------------------------------------------
# Elements of the glued algebra.

class ApElem(NamedTuple):
    """Element <(m, r), alpha> of the algebra with parameters (n, p).

    An element is an immutable 5-tuple: it equals the plain tuple
    (m, r, alpha, n, p) and hashes like it, so equality is structural,
    parameters included, and both run in C.  It is not ordered by the
    Python operators; the order of the algebra is ap_leq.

    Construction itself does not validate.  _mk is the single place
    universe membership is checked: every operation builds its result
    there, and so do ap_validate, parse_element and the harness's mutant
    operations, so an element outside the universe raises UniverseError
    where it is made.  Inside the package only _mk, ap_bot and ap_top
    build an element.
    """

    m: int
    r: int
    alpha: int
    n: int
    p: int

    @property
    def params(self) -> AlgebraParams:
        return _params(self.n, self.p)

    def __repr__(self) -> str:
        return f"(({self.m},{self.r}),{self.alpha})"

    def __lt__(self, other):
        raise TypeError("elements are not ordered by Python operators; use ap_leq")

    __le__ = __gt__ = __ge__ = __lt__


@cache
def _params(n: int, p: int) -> AlgebraParams:
    """The one shared AlgebraParams per (n, p)."""
    return AlgebraParams(n, p)


def _mk(m: int, r: int, alpha: int, n: int, p: int) -> ApElem:
    """Validating constructor; all operation results pass through here.

    The pair tests are the lex comparisons (m, r) < (0, 0) and
    (m, r) > (bound, 0) written out, so no pair tuple is built, and the
    element is made by tuple.__new__ bound once at import (_new_tuple):
    it skips the namedtuple's generated __new__, and the bound name skips
    looking __new__ up on the type at every call.
    """
    if not 0 <= alpha <= p:
        raise UniverseError(f"level {alpha} outside [0,{p}]")
    if m < 0 or m == 0 and r < 0:
        raise UniverseError(f"pair ({m},{r}) below (0,0)")
    bound = n if alpha == 0 or alpha == p else n - 1
    if m > bound or m == bound and r > 0:
        raise UniverseError(
            f"pair ({m},{r}) above ({bound},0), the cap for level {alpha}"
        )
    return _new_tuple(ApElem, (m, r, alpha, n, p))


def ap_validate(first: tuple[int, int], second: int, params: AlgebraParams) -> ApElem:
    """Build a validated element <first, second> or raise UniverseError."""
    return _mk(first[0], first[1], second, params.n, params.p)


def ap_bot(params: AlgebraParams) -> ApElem:
    """The least element <(n,0), 0>.  Only params.n and params.p are
    read, so an element of the algebra serves as params too."""
    return _new_tuple(ApElem, (params.n, 0, 0, params.n, params.p))


def ap_top(params: AlgebraParams) -> ApElem:
    """The greatest element <(n,0), p>, read from params like ap_bot."""
    return _new_tuple(ApElem, (params.n, 0, params.p, params.n, params.p))


def _same_params(a: ApElem, b: ApElem) -> None:
    if a.n != b.n or a.p != b.p:
        raise ParamsMismatchError(
            f"mixed parameters ({a.n},{a.p}) vs ({b.n},{b.p})"
        )


# ---------------------------------------------------------------------------
# Order and lattice.

def ap_leq(a: ApElem, b: ApElem) -> bool:
    """The order, three cases on the levels.

    Nonzero levels compare level-then-pair; level 0 against level 0
    reverses the pair order; a level-0 element sits below a nonzero-level
    one exactly when the pair sum reaches (n-1, 0).
    """
    m, r, al, n, p = a
    k, s, be, nb, pb = b
    if nb != n or pb != p:
        _same_params(a, b)
    if al != 0:
        return al <= be and (m < k or m == k and r <= s)
    if be == 0:
        return k < m or k == m and s <= r
    m += k
    return m > n - 1 or m == n - 1 and r + s >= 0


def ap_join(a: ApElem, b: ApElem) -> ApElem:
    """Least upper bound, by closed-form cases on the two levels."""
    m, r, al, n, p = a
    k, s, be, nb, pb = b
    if nb != n or pb != p:
        _same_params(a, b)
    if al != 0 and be != 0:
        if m < k or m == k and r < s:
            m, r = k, s
        return _mk(m, r, al if al >= be else be, n, p)
    if al == 0 and be == 0:
        if k < m or k == m and s < r:  # pair order reversed at level 0
            m, r = k, s
        return _mk(m, r, 0, n, p)
    if al == 0:
        m, r, al, k, s = k, s, be, m, r  # now (m, r) holds the nonzero level
    # the level-0 pair reflected; at or above (n-1,0) it reflects below
    # (0,0), and the max keeps (m, r)
    k, s = n - 1 - k, -s
    if m < k or m == k and r < s:
        m, r = k, s
    return _mk(m, r, al, n, p)


def ap_meet(a: ApElem, b: ApElem) -> ApElem:
    """Greatest lower bound, dual cases to ap_join."""
    m, r, al, n, p = a
    k, s, be, nb, pb = b
    if nb != n or pb != p:
        _same_params(a, b)
    if al != 0 and be != 0:
        if k < m or k == m and s < r:
            m, r = k, s
        return _mk(m, r, al if al <= be else be, n, p)
    if al == 0 and be == 0:
        if m < k or m == k and r < s:
            m, r = k, s
        return _mk(m, r, 0, n, p)
    if al == 0:
        m, r, k, s = k, s, m, r  # now (k, s) holds the level-0 pair
    # the nonzero-level pair reflected is at most (n-1,0), so a level-0
    # pair at or above (n-1,0) is the max
    m, r = n - 1 - m, -r
    if m < k or m == k and r < s:
        m, r = k, s
    return _mk(m, r, 0, n, p)


# ---------------------------------------------------------------------------
# Monoid operation and involution.

def ap_mul(a: ApElem, b: ApElem) -> ApElem:
    """The monoid product, four cases on the levels.

    Both levels nonzero with nonzero level product: componentwise chain
    products, the pair max{(0,0), (m+k-n, r+s)} on level al+be-p.  Both
    nonzero but level product 0: collapse to level 0 with a reflected
    pair.  One level 0: the chain residual of the pairs, nonzero-level
    pair first.  Both 0: pair sum shifted by one.  The last three land
    on level 0 with the pair capped at (n,0), the lex min written out.
    """
    m, r, al, n, p = a
    k, s, be, nb, pb = b
    if nb != n or pb != p:
        _same_params(a, b)
    if al != 0 and be != 0:
        if al + be > p:
            m, r = m + k - n, r + s
            if m < 0 or m == 0 and r < 0:
                m = r = 0
            return _mk(m, r, al + be - p, n, p)
        m, r = 2 * n - (m + k + 1), -(r + s)
    elif al != 0:
        m, r = n - m + k, s - r
    elif be != 0:
        m, r = n - k + m, r - s
    else:
        m, r = m + k + 1, r + s
    if m > n or m == n and r > 0:
        m, r = n, 0
    return _mk(m, r, 0, n, p)


def ap_inv(a: ApElem) -> ApElem:
    """The involution: flip the level; reflect the pair on middle levels."""
    m, r, al, n, p = a
    if al == 0 or al == p:
        return _mk(m, r, p - al, n, p)
    return _mk(n - 1 - m, -r, p - al, n, p)


def ap_div(a: ApElem, b: ApElem) -> ApElem:
    """The residual a / b = ~(a . ~b); a.b =< c iff b =< a/c.

    ap_mul's four cases on (a, ~b), then the involution: ~b has level
    p-be and, on a middle level, the pair (n-1-k, -s).  ~ takes a level-0
    product to level p with its pair unchanged, so every case lands there
    but one: for al > be the product is the chain product on level
    al-be, which ~ moves to level p-al+be, reflecting the pair unless
    that level is 0.
    """
    m, r, al, n, p = a
    k, s, be, nb, pb = b
    if nb != n or pb != p:
        _same_params(a, b)
    if be != 0 and be != p:
        k, s = n - 1 - k, -s
    if al != 0 and be != p:
        if al > be:
            m, r = m + k - n, r + s
            if m < 0 or m == 0 and r < 0:
                m = r = 0
            if al == p and be == 0:
                return _mk(m, r, 0, n, p)
            return _mk(n - 1 - m, -r, p - al + be, n, p)
        m, r = 2 * n - (m + k + 1), -(r + s)
    elif al != 0:
        m, r = n - m + k, s - r
    elif be != p:
        m, r = n - k + m, r - s
    else:
        m, r = m + k + 1, r + s
    if m > n or m == n and r > 0:
        m, r = n, 0
    return _mk(m, r, p, n, p)


# ---------------------------------------------------------------------------
# The operation table.

class _Invalid:
    # equal to nothing, itself included; hashed by identity, so a dict or a set finds it
    __slots__ = ()
    __hash__ = object.__hash__

    def __eq__(self, other):
        return False

    def __ne__(self, other):
        return True

    def __repr__(self) -> str:
        return "<invalid>"


_INVALID = _Invalid()


class OpsBundle:
    """Operations derived from a product and an involution.

    Satisfies the evaluation protocol of the term module (mul, inv, div,
    neg, oplus, meet, join, power, multiple), plus bterm.  The lattice
    operations are never swapped; the rest routes through mul, inv and
    div, the residual ~(a . ~b), so a single corrupted constant shows up
    everywhere it should.

    The pair (ap_mul, ap_inv) is closed on the universe and used as it is,
    with ap_div, the same residual in one case analysis, for div.  Any
    other pair is guarded, both raws, so ap_mul passes on a corrupted
    involution's marker, and div is inv(mul(a, inv(b))) over the guarded
    pair: a raw raising UniverseError (as results built by _mk do) gives
    the invalid marker, which propagates, equals nothing and satisfies no
    order.  An unvalidated result is trusted.

    Both raws must be pure: equal arguments give equal results.  The
    window tables rely on it, reading a/b as the involution of a product
    already in the product table, applied once per distinct product; so
    do power and multiple, which stop at the first step that returns the
    value it was given (past the marker, which equals nothing, no raw call
    runs), and multiple, which computes ~a once per chain, not every step.
    neg, power and multiple build bot and top from the operand's own n and
    p, ap_bot(a), without the params property.
    """

    __slots__ = ("mul", "inv", "div", "name")

    def __init__(self, mul, inv, name: str = "reference"):
        div = ap_div
        if mul is not ap_mul or inv is not ap_inv:
            raw_mul, raw_inv = mul, inv

            def mul(a, b):
                if a is _INVALID or b is _INVALID:
                    return _INVALID
                try:
                    return raw_mul(a, b)
                except UniverseError:
                    return _INVALID

            def inv(a):
                if a is _INVALID:
                    return _INVALID
                try:
                    return raw_inv(a)
                except UniverseError:
                    return _INVALID

            def div(a, b):
                return inv(mul(a, inv(b)))

        self.mul = mul
        self.inv = inv
        self.div = div
        self.name = name

    def __repr__(self) -> str:
        return f"OpsBundle({self.name})"

    def neg(self, a):
        """Negation a / bot; coincides with the involution on this algebra."""
        if a is _INVALID:
            return _INVALID
        return self.div(a, ap_bot(a))

    def oplus(self, a, b):
        """Dual sum ~(~a . ~b): the residual ~a / b."""
        return self.div(self.inv(a), b)

    def meet(self, a, b):
        if a is _INVALID or b is _INVALID:
            return _INVALID
        return ap_meet(a, b)

    def join(self, a, b):
        if a is _INVALID or b is _INVALID:
            return _INVALID
        return ap_join(a, b)

    def power(self, a, k: int):
        """k-th product power; a^0 is top."""
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        if a is _INVALID:
            return _INVALID
        return _steps(self.mul, a, ap_top(a), k)

    def multiple(self, k: int, a):
        """k-fold dual sum; 0.a is bot.  A step a + out is the residual
        ~a / out, and a is fixed along the chain, so ~a is computed once,
        and at k = 0 no raw runs."""
        if k < 0:
            raise ValueError(f"negative multiple {k}")
        if a is _INVALID:
            return _INVALID
        bot = ap_bot(a)
        return _steps(self.div, self.inv(a), bot, k) if k else bot

    def bterm(self, a):
        """(n+1).a^max(n+1, p); lands in {bot, top}, top exactly on the radical."""
        if a is _INVALID:
            return _INVALID
        return self.multiple(a.n + 1, self.power(a, max(a.n + 1, a.p)))


def _steps(op, a, out, k: int):
    """k steps out -> op(a, out), up to the first that returns the value
    it was given: a fixed point, which every later step repeats."""
    for _ in range(k):
        nxt = op(a, out)
        if nxt == out:
            break
        out = nxt
    return out


REFERENCE = OpsBundle(ap_mul, ap_inv)

ap_neg = REFERENCE.neg
ap_oplus = REFERENCE.oplus
ap_pow = REFERENCE.power
ap_mult = REFERENCE.multiple
boolean_term = REFERENCE.bterm


# ---------------------------------------------------------------------------
# Element literals, shared by the CLI and test fixtures.

_LITERAL_RE = re.compile(
    r"^\(\(\s*([+-]?\d+)\s*,\s*([+-]?\d+)\s*\)\s*,\s*([+-]?\d+)\s*\)$"
)


def parse_element(text: str, params: AlgebraParams) -> ApElem:
    """Parse '((m,r),a)' (or the aliases 'bot'/'top') and validate."""
    t = text.strip()
    if t == "bot":
        return ap_bot(params)
    if t == "top":
        return ap_top(params)
    match = _LITERAL_RE.match(t)
    if match is None:
        raise ValueError(
            f"bad element literal {text!r}, expected ((m,r),a) or bot/top"
        )
    m, r, alpha = (int(g) for g in match.groups())
    return ap_validate(LexPair(m, r), alpha, params)


def render_element(a: ApElem) -> str:
    """The literal form ((m,r),a)."""
    return f"(({a.m},{a.r}),{a.alpha})"
