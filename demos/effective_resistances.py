#!/usr/bin/env python3
"""Effective resistances as sampling weights.

Treat each edge weight as an electrical conductance. The effective
resistance R_e between an edge's endpoints measures how essential the
edge is: bridges have w_e * R_e = 1 (they must be kept), while edges in
dense neighborhoods have small leverage and can be subsampled. Summed
over the graph, w_e * R_e counts vertices minus connected components.
"""

import numpy as np

import odnsparse as od

# Triangle with unit weights: by symmetry every edge sees 2/3 resistance
# (1 ohm direct, in parallel with a 2-ohm two-hop path).
triangle = od.generate_odn("complete", 3, weight=1.0)
print("triangle, unit weights:")
resistance, probability = od.effective_resistances(od.decompose(triangle))
for i, j, w, r, p in zip(triangle.rows, triangle.cols, triangle.vals,
                         resistance, probability):
    print(f"  edge ({i},{j}): R={r:.6f} leverage={w * r:.6f} p={p:.6f}")

# A path is all bridges: every leverage is exactly 1.
path = od.generate_odn("path", 6, weight=1.0)
levs = path.vals * od.effective_resistances(od.decompose(path))[0]
print(f"\npath on 6 vertices: leverages = {np.round(levs, 12)}")

# Foster's identity: sum of leverages = n - number_of_components.
for name, m in [
    ("complete n=30", od.generate_odn("complete", 30, seed=3)),
    ("sparse random n=40", od.generate_odn("erdos-renyi", 40, density=0.15, seed=4)),
]:
    d = od.decompose(m)
    count, _ = d.components
    total = (m.vals * od.effective_resistances(d)[0]).sum()
    print(f"{name}: sum(w*R) = {total:.10f}, n - c = {m.n - count}")
