"""Exact arithmetic for the bounded residuated lattices A(n, p).

The algebra is glued from two chains: the MV-chain over lexicographic
integer pairs with top (n, 0), and the finite Lukasiewicz chain
{0, ..., p}.  An element is a pair <(m, r), alpha> where alpha picks a
level and (m, r) lives in the full chain on the boundary levels 0 and p
but only in the short segment [(0,0), (n-1,0)] on the middle levels.
Everything is integer arithmetic; there are no floats anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple


class UniverseError(ValueError):
    """A pair/level combination that is not an element of the algebra."""


class ParamsMismatchError(ValueError):
    """Operands belong to algebras with different (n, p)."""


@dataclass(frozen=True)
class AlgebraParams:
    """Height n of the pair chain and size p of the finite chain, both >= 1."""

    n: int
    p: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if self.p < 1:
            raise ValueError(f"p must be a positive integer, got {self.p}")


class LexPair(NamedTuple):
    """Integer pair (m, r); tuple comparison is exactly the lex order."""

    m: int
    r: int


# ---------------------------------------------------------------------------
# The pair chain [(0,0), (n,0)] under the lex order.

def omega_star(a: tuple[int, int], b: tuple[int, int], n: int) -> LexPair:
    """Chain product max{(0,0), (m+k-n, r+s)}."""
    return LexPair(*max((0, 0), (a[0] + b[0] - n, a[1] + b[1])))


def omega_arrow(a: tuple[int, int], b: tuple[int, int], n: int) -> LexPair:
    """Chain residual min{(n,0), (n-m+k, s-r)}."""
    return LexPair(*min((n, 0), (n - a[0] + b[0], b[1] - a[1])))


def omega_neg(a: tuple[int, int], n: int) -> LexPair:
    """Chain negation (n-m, -r), an involution."""
    return LexPair(n - a[0], -a[1])


# ---------------------------------------------------------------------------
# The finite chain {0, ..., p}.

def fin_star(a: int, b: int, p: int) -> int:
    return max(0, a + b - p)


def fin_arrow(a: int, b: int, p: int) -> int:
    return min(p, p - a + b)


def fin_neg(a: int, p: int) -> int:
    return p - a


# ---------------------------------------------------------------------------
# Elements of the glued algebra.

@dataclass(frozen=True, slots=True)
class ApElem:
    """Element <(m, r), alpha> of the algebra with parameters (n, p).

    Construction itself does not validate.  _mk is the single place
    universe membership is checked: every operation builds its result
    there, and so do ap_validate, parse_element and the harness's mutant
    operations, so an element outside the universe raises UniverseError
    where it is made.  Equality is structural, including the parameters.
    """

    m: int
    r: int
    alpha: int
    n: int
    p: int

    @property
    def first(self) -> LexPair:
        return LexPair(self.m, self.r)

    @property
    def second(self) -> int:
        return self.alpha

    @property
    def params(self) -> AlgebraParams:
        return AlgebraParams(self.n, self.p)

    def __repr__(self) -> str:
        return f"(({self.m},{self.r}),{self.alpha})"


def _mk(m: int, r: int, alpha: int, n: int, p: int) -> ApElem:
    """Validating constructor; all operation results pass through here."""
    if not 0 <= alpha <= p:
        raise UniverseError(f"level {alpha} outside [0,{p}]")
    if (m, r) < (0, 0):
        raise UniverseError(f"pair ({m},{r}) below (0,0)")
    bound = n if alpha == 0 or alpha == p else n - 1
    if (m, r) > (bound, 0):
        raise UniverseError(
            f"pair ({m},{r}) above ({bound},0), the cap for level {alpha}"
        )
    return ApElem(m, r, alpha, n, p)


def ap_validate(first: tuple[int, int], second: int, params: AlgebraParams) -> ApElem:
    """Build a validated element <first, second> or raise UniverseError."""
    return _mk(first[0], first[1], second, params.n, params.p)


def ap_bot(params: AlgebraParams) -> ApElem:
    """The least element <(n,0), 0>."""
    return ApElem(params.n, 0, 0, params.n, params.p)


def ap_top(params: AlgebraParams) -> ApElem:
    """The greatest element <(n,0), p>."""
    return ApElem(params.n, 0, params.p, params.n, params.p)


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
    _same_params(a, b)
    if a.alpha != 0:
        return a.alpha <= b.alpha and (a.m, a.r) <= (b.m, b.r)
    if b.alpha == 0:
        return (b.m, b.r) <= (a.m, a.r)
    return (a.n - 1, 0) <= (a.m + b.m, a.r + b.r)


def ap_join(a: ApElem, b: ApElem) -> ApElem:
    """Least upper bound, by closed-form cases on the two levels."""
    _same_params(a, b)
    n, p = a.n, a.p
    if a.alpha != 0 and b.alpha != 0:
        pr = max((a.m, a.r), (b.m, b.r))
        return _mk(pr[0], pr[1], max(a.alpha, b.alpha), n, p)
    if a.alpha == 0 and b.alpha == 0:
        pr = min((a.m, a.r), (b.m, b.r))  # pair order reversed at level 0
        return _mk(pr[0], pr[1], 0, n, p)
    if a.alpha == 0:
        a, b = b, a  # now a holds the nonzero level
    if (b.m, b.r) >= (n - 1, 0):
        return _mk(a.m, a.r, a.alpha, n, p)
    pr = max((a.m, a.r), (n - 1 - b.m, -b.r))
    return _mk(pr[0], pr[1], a.alpha, n, p)


def ap_meet(a: ApElem, b: ApElem) -> ApElem:
    """Greatest lower bound, dual cases to ap_join."""
    _same_params(a, b)
    n, p = a.n, a.p
    if a.alpha != 0 and b.alpha != 0:
        pr = min((a.m, a.r), (b.m, b.r))
        return _mk(pr[0], pr[1], min(a.alpha, b.alpha), n, p)
    if a.alpha == 0 and b.alpha == 0:
        pr = max((a.m, a.r), (b.m, b.r))
        return _mk(pr[0], pr[1], 0, n, p)
    if a.alpha == 0:
        a, b = b, a
    if (b.m, b.r) >= (n - 1, 0):
        return _mk(b.m, b.r, 0, n, p)
    pr = max((n - 1 - a.m, -a.r), (b.m, b.r))
    return _mk(pr[0], pr[1], 0, n, p)


# ---------------------------------------------------------------------------
# Monoid operation, involution, residual.

def ap_mul(a: ApElem, b: ApElem) -> ApElem:
    """The monoid product, four cases on the levels.

    Both levels nonzero with nonzero level product: componentwise chain
    products.  Both nonzero but level product 0: collapse to level 0
    with a reflected pair.  One level 0: the chain residual of the pairs,
    nonzero-level pair first.  Both 0: pair sum shifted by one, capped.
    """
    _same_params(a, b)
    n, p = a.n, a.p
    m, r, al = a.m, a.r, a.alpha
    k, s, be = b.m, b.r, b.alpha
    if al != 0 and be != 0:
        g = fin_star(al, be, p)
        if g != 0:
            pr = omega_star((m, r), (k, s), n)
            return _mk(pr[0], pr[1], g, n, p)
        pr = min((n, 0), (2 * n - (m + k + 1), -(r + s)))
        return _mk(pr[0], pr[1], 0, n, p)
    if al != 0:
        pr = omega_arrow((m, r), (k, s), n)
        return _mk(pr[0], pr[1], 0, n, p)
    if be != 0:
        pr = omega_arrow((k, s), (m, r), n)
        return _mk(pr[0], pr[1], 0, n, p)
    pr = min((n, 0), (m + k + 1, r + s))
    return _mk(pr[0], pr[1], 0, n, p)


def ap_inv(a: ApElem) -> ApElem:
    """The involution: flip the level; reflect the pair on middle levels."""
    n, p = a.n, a.p
    if a.alpha in (0, p):
        return _mk(a.m, a.r, p - a.alpha, n, p)
    return _mk(n - 1 - a.m, -a.r, p - a.alpha, n, p)


def ap_div(a: ApElem, b: ApElem) -> ApElem:
    """The residual a / b = ~(a . ~b); a.b =< c iff b =< a/c."""
    return ap_inv(ap_mul(a, ap_inv(b)))


# ---------------------------------------------------------------------------
# Derived terms.

def ap_neg(a: ApElem) -> ApElem:
    """Negation a / bot; coincides with the involution on this algebra."""
    return ap_div(a, ap_bot(a.params))


def ap_oplus(a: ApElem, b: ApElem) -> ApElem:
    """Dual sum ~(~a . ~b).

    Written out deliberately: the factors are ~a and ~b, not ~a twice;
    the symmetric form is what the recursion (k+1).x = x + k.x needs.
    """
    return ap_inv(ap_mul(ap_inv(a), ap_inv(b)))


def ap_pow(a: ApElem, k: int) -> ApElem:
    """k-th product power; a^0 is top."""
    if k < 0:
        raise ValueError(f"negative exponent {k}")
    out = ap_top(a.params)
    for _ in range(k):
        out = ap_mul(a, out)
    return out


def ap_mult(k: int, a: ApElem) -> ApElem:
    """k-fold dual sum; 0.a is bot."""
    if k < 0:
        raise ValueError(f"negative multiple {k}")
    out = ap_bot(a.params)
    for _ in range(k):
        out = ap_oplus(a, out)
    return out


def boolean_term(a: ApElem) -> ApElem:
    """(n+1).a^max(n+1, p); lands in {bot, top}, top exactly on the radical."""
    return ap_mult(a.n + 1, ap_pow(a, max(a.n + 1, a.p)))


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
