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
