"""Filters, the radical, and what the quotients look like.

Three proper implicative filters matter here: {top}, the band FOmega of
top-level (n,r) elements with r <= 0, and the radical (everything at
level p).  Each induces a congruence, given in closed form by
quotient_key: the FOmega quotient collapses the infinite lex tails onto
the finite r=0 algebra (an element's class is its shape (m, level)), and
the radical quotient is the chain L_{p+1} (its class is its level).
"""

from resilat import AlgebraParams, Window, parse_element
from resilat.structure import (
    boolean_elements,
    classify_generated_filter,
    closure,
    filter_member,
    quotient_classes,
    quotient_induced_mul_report,
    rad_quotient_report,
)

P = AlgebraParams(2, 3)
w = Window(P, 2)

for text in ["((2,0),3)", "((2,-4),3)", "((0,5),3)", "((1,0),2)"]:
    a = parse_element(text, P)
    tags = [f for f in ("Top", "FOmega", "Radical") if filter_member(f, a)]
    print(f"{a}: in {tags or ['no proper filter']}")

print(f"\nFOmega quotient of the R=2 window: "
      f"{len(quotient_classes(w, 'FOmega'))} classes "
      f"(the r=0 algebra has {len(Window(P, 0))} elements)")
print(f"induced product report: {quotient_induced_mul_report(w, 'FOmega')}")
print(f"radical quotient report: {rad_quotient_report(P)}")

# principal filters only ever land on the four named ones
for text in ["((2,0),3)", "((2,-1),3)", "((0,1),3)", "((1,0),1)"]:
    a = parse_element(text, P)
    print(f"filter generated by {a}: {classify_generated_filter(a, w)}")

# only bot and top are complemented: the algebra is directly indecomposable
print(f"\ncomplemented elements: {sorted(map(repr, boolean_elements(w)))}")

# closing a single middle generator rebuilds the whole r=0 subalgebra
result = closure([parse_element("((1,0),1)", P)])
print(f"closure of ((1,0),1): {len(result.elements)} elements, "
      f"truncated={result.truncated}")
