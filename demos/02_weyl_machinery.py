"""Weyl groups, characters, dimensions, and the intertwining operator.

Signed Weyl-orbit sums of exponentials drive everything: the Weyl
denominator identity, the character formula, and the operator D whose
action on the Weyl function counts the group order.
"""

import numpy as np

from liekernel import (
    build_root_system,
    casimir_eigenvalue,
    character,
    dimension,
    generate_weyl_group,
    weyl_function,
)
from liekernel.weyl import weight_orbit, weyl_order_from_intertwiner

for family, rank in [("A", 1), ("A", 2), ("B", 2), ("A", 3), ("C", 3)]:
    rs = build_root_system(family, rank)
    group = generate_weyl_group(rs)
    print(f"{rs.name}: N(W) = {group.order}, from the intertwiner identity: "
          f"{weyl_order_from_intertwiner(rs):.10f}")

print()
rs = build_root_system("A", 2)
print("rank-2 unitary representations (label, dimension, Laplacean eigenvalue):")
for l in ([0, 0], [1, 0], [0, 1], [1, 1], [2, 0], [3, 0]):
    print(f"  l={l}: d={dimension(rs, l):3d}  lambda={casimir_eigenvalue(rs, l):.6f}")

phi = np.array([0.9, 0.4])
print()
print("character values at phi =", phi)
for l in ([1, 0], [1, 1]):
    print(f"  chi_{l}(phi) = {character(rs, l, phi):.10f}")
print("  chi_[1,1](0), the exact limit on the walls there:", character(rs, [1, 1], np.zeros(2)))

print()
print("the signed Weyl orbit of exp(i rho.phi) rebuilds the Weyl denominator:")
group = generate_weyl_group(rs)
val = np.exp(1j * (group.matrices @ rs.rho) @ phi) @ group.parities
want = (2j) ** rs.p * weyl_function(rs, phi)
print(f"  sum = {val:.10f}   (2i)^p w(phi) = {want:.10f}")

print()
print("D multiplies exp(i v.phi) by prod_alpha i alpha.v; on the Weyl function it extracts N(W):")
# rho is the sum of the fundamental weights, so its weight coordinates are all ones
orbit = weight_orbit(group, np.ones(rs.rank, dtype=int))
print("  orbit of rho in weight coordinates:", [tuple(int(c) for c in v) for v in orbit.T])
dw = np.prod(1j * ((rs.positive_roots @ rs.weights.T) @ orbit), axis=0) @ group.parities / (2j) ** rs.p
scale = 2.0**rs.p / float(np.prod(rs.positive_roots @ rs.rho))
print("  (2^p / prod alpha.rho) Dw|_0 =", (scale * dw).real)
