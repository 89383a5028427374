"""The central identity: the sum over classical paths and the spectral
expansion are the same function, to machine precision.

Heat mode makes both series absolutely convergent, so the comparison is
sharp; the same code evaluates real-time kernels with a damping epsilon.
"""

import numpy as np

from liekernel import (
    KernelRequest,
    RadialPoint,
    TimeParameter,
    build_root_system,
    compact_pathsum,
    compact_spectral,
    integrate_central_su2,
    radial_convolve,
)

a1 = build_root_system("A", 1)
a2 = build_root_system("A", 2)

print("rank 1, heat mode: path sum vs spectral expansion")
for tau in (0.1, 0.5, 1.0):
    for phi in (0.6, 1.4, 2.0):
        req = KernelRequest(rs=a1, phi=RadialPoint.real([phi]), time=TimeParameter.heat(tau))
        a = compact_pathsum(req).value
        b = compact_spectral(req).value
        print(f"  tau={tau:4.1f} phi={phi:3.1f}:  path={a.real:+.12e}  "
              f"spectral={b.real:+.12e}  rel diff={abs(a - b) / abs(b):.1e}")

print()
print("rank 2 (two-dimensional alcove), same identity:")
for tau in (0.2, 0.8):
    phi = RadialPoint.real([0.8, 0.5])
    req = KernelRequest(rs=a2, phi=phi, time=TimeParameter.heat(tau))
    a = compact_pathsum(req).value
    b = compact_spectral(req).value
    print(f"  tau={tau}: rel diff = {abs(a - b) / abs(b):.1e}")

print()
print("real time needs care: the spectral series only converges with damping")
req = KernelRequest(rs=a1, phi=RadialPoint.real([1.2]), time=TimeParameter.real(1.0))
kv = compact_pathsum(req)
print(f"  path sum at t=1.0, eps=0: {kv.value:.6e}  tag={kv.tag.value}")
print(f"  warning: {kv.warning}")

print()
print("heat kernel facts on the rank-1 group:")


def kernel(tau):
    def f(x):
        req = KernelRequest(rs=a1, phi=RadialPoint.real([x]), time=TimeParameter.heat(tau))
        return compact_pathsum(req).value
    return f


total = integrate_central_su2(a1, kernel(0.5))
print(f"  integral against the invariant measure at tau=0.5: {total:.10f}")

grid = np.linspace(0.0, 2 * np.pi, 161)
k1 = np.array([kernel(0.3)(x) for x in grid])
k2 = np.array([kernel(0.5)(x) for x in grid])
k12 = np.array([kernel(0.8)(x) for x in grid])
conv = radial_convolve(a1, k1, k2)
print(f"  semigroup: max |K_0.3 * K_0.5 - K_0.8| = {np.abs(conv - k12).max():.2e}")
