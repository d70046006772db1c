"""Operation bundles that more than one test file runs."""

from resilat import core, harness

# a case-2 product whose left operand has the larger m is one lower in r,
# so a*b and b*a differ there: at (2,3) on 18 ordered pairs of the R=1
# window.  A table read with its operands swapped changes an outcome.
NONCOMMUTATIVE = core.OpsBundle(
    harness._mul_override(
        lambda a, b: harness._case2(a, b) and a.m > b.m,
        lambda a, b: (2 * a.n - (a.m + b.m + 1), -(a.r + b.r) - 1)),
    core.ap_inv, "case2-larger-m-left")


def _mul_invalid_past_r2(a, b):
    """The product, except that an operand with |r| > 2 gives a level
    outside the universe, which raises as the validating constructor
    does: at R=2 only second steps go invalid, on either side or both;
    at R=4 first steps do too."""
    if abs(a.r) > 2 or abs(b.r) > 2:
        return core.ap_validate(core.LexPair(a.m, a.r), a.p + 1, a.params)
    return core.ap_mul(a, b)


INVALID_PAST_R2 = core.OpsBundle(_mul_invalid_past_r2, core.ap_inv, "invalid-past-r2")
