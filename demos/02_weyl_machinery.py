"""Weyl groups, characters, dimensions, and the intertwining operator.

The exponential-sum calculus drives everything: the Weyl denominator
identity, the character formula, and the operator D whose action on the
Weyl function counts the group order.
"""

import numpy as np

from liekernel import (
    ExpSum,
    apply_intertwiner,
    build_root_system,
    casimir_eigenvalue,
    character,
    dimension,
    generate_weyl_group,
    symmetrize,
    weyl_function,
)
from liekernel.weyl import weyl_order_from_intertwiner

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
print("  chi_[1,1](0) by the exact wall limit:", character(rs, [1, 1], np.zeros(2), limit=True))

print()
print("signed symmetrization of exp(i rho.phi) rebuilds the Weyl denominator:")
group = generate_weyl_group(rs)
denom = symmetrize(group, ExpSum.single(1.0, rs.rho), signed=True)
val = denom.evaluate(phi)
want = (2j) ** rs.p * weyl_function(rs, phi)
print(f"  sum = {val:.10f}   (2i)^p w(phi) = {want:.10f}")

print()
print("D flips symmetry classes; on the Weyl function it extracts N(W):")
w_sum = ExpSum(denom.coeffs / (2j) ** rs.p, denom.freqs)
dw = apply_intertwiner(rs, w_sum)
scale = 2.0**rs.p / float(np.prod(rs.positive_roots @ rs.rho))
print("  (2^p / prod alpha.rho) Dw|_0 =", (scale * dw.evaluate(np.zeros(2))).real)
