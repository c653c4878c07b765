"""
From forests to acyclic colorings
=================================

Arboricity measures how many forests cover a graph.  Splitting a graph
into digit layers (one per base-p digit of each edge's forest index)
turns exact homomorphisms on the layers into an acyclic coloring of
the original graph, with a k^(s+1) palette guarantee.
"""

import random

from mixedgraphs import (
    ColorSignature,
    MixedGraph,
    acyclic_from_homomorphisms,
    check_acyclic_coloring,
    digit_graphs,
    greedy_forests,
    nash_williams_density,
)

sig = ColorSignature(1, 0)

# A random orientation of a dense-ish graph.
rng = random.Random(12)
g = MixedGraph(sig, 8)
for u in range(8):
    for v in range(u + 1, 8):
        if rng.random() < 0.55:
            g.add_arc(*(u, v) if rng.random() < 0.5 else (v, u), 1)
print("graph: order 8 with", g.e_count, "arcs")

# Exact arboricity maximizes ceil(e' / (v' - 1)) over induced subgraphs;
# the densest subset returned attains it.
arb, densest = nash_williams_density(g)
print("exact arboricity:", arb, "- densest subset:", densest)

# The decomposition comes from matroid-union augmenting paths and uses
# exactly the arboricity many forests.
fd = greedy_forests(g)
print("decomposition uses", fd.count, "forests")

# Each layer regards the same underlying edges through different kinds:
# layer 0 fixes one kind everywhere, layer l >= 1 encodes digit l of
# the forest index.
layers = digit_graphs(g, fd)
print("digit layers:", len(layers))

# Exact minimal images of every layer multiply into an acyclic coloring.
result = acyclic_from_homomorphisms(g, fd)
assert result.exact  # every layer search finished within its budget
chis = [layer.k for layer in result.layers]
print("layer chromatic numbers:", chis)
print("palette used:", result.palette, "<= bound", max(chis) ** len(chis))
assert check_acyclic_coloring(g, result.colors) is None
print("acyclic coloring verified")
