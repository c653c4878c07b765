"""
Closed-form bounds, computed exactly
====================================

Every bound here is evaluated in exact integer arithmetic: ceilings of
logarithms come from power comparisons, never from floating point.
"""

from mixedgraphs import (
    ColorSignature,
    MixedGraph,
    acyclic_upper_from_arb,
    acyclic_upper_from_chi,
    arb_upper_from_chi,
    ceil_log,
    counting_inequality_check,
    degree_bounds,
    nr_upper,
    planar_upper,
)

# ceil_log(b, x) is the least s with b^s >= x.
print("ceil_log(2, 1000) =", ceil_log(2, 1000))

# Acyclic chromatic number k bounds the colored chromatic number.
print("\nchromatic upper bounds (p = 2):")
for k in (3, 5):
    print(f"  k={k}: {nr_upper(k, 2)}")
print("  planar graphs:", planar_upper(2))

# The reverse direction: chromatic number k bounds arboricity and the
# acyclic chromatic number.
print("\nfrom chi = 80 over p = 2:")
print("  arboricity <=", arb_upper_from_chi(80, 2))
print("  acyclic    <=", acyclic_upper_from_chi(80, 2))

# And arboricity r bounds the acyclic chromatic number via the digit
# pipeline's palette.
print("from chi = 5 and arboricity 3:", acyclic_upper_from_arb(5, 3, 2))

# Maximum degree squeezes chi from both sides; the upper form needs
# degree at least 5.
report = degree_bounds(5, 2)
print(f"\nmax degree 5, p = 2: {report.lower} <= chi <= {report.upper}")
report4 = degree_bounds(4, 2)
print("max degree 4: lower", report4.lower, "- upper applies?",
      report4.upper is not None)

# A counting argument: at most p^C(k,2) * k^n of the p^e colorings of an
# underlying graph have chi <= k.  When that is fewer than p^e, some
# coloring of the underlying graph needs more than k colors; the check
# says nothing about the coloring at hand.
g = MixedGraph(ColorSignature(1, 0), 6)
for u in range(6):
    for v in range(u + 1, 6):
        g.add_arc(u, v, 1)
verdict = counting_inequality_check(g, 2)
print("\ncan every orientation of K_6 be colored with 2 colors?",
      verdict.satisfied, "-", verdict.detail)
