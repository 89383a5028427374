"""Named invariant checks, runnable from the command line.

Each check returns (passed, residual, detail); the suite is the library's
self-test surface, covering the identities the construction is supposed to
guarantee.
"""

from __future__ import annotations

import numpy as np

from . import kernel as kmod
from .domains import domain_count, parse_group
from .lattice import RadialPoint, domain_sublattice, winding_lattice
from .rootsys import build_root_system, cartan_matrix, rescale
from .volumes import coset_volume, group_volume, torus_volume, torus_volume_quadrature
from .weyl import (
    character,
    dimension,
    generate_weyl_group,
    weyl_function,
    weyl_order_from_intertwiner,
)

_SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3), ("D", 4)]


def _check_rho_identity():
    worst = 0.0
    for fam, rank in _SYSTEMS:
        rs = build_root_system(fam, rank)
        worst = max(worst, abs(float(rs.rho @ rs.rho) / rs.lam - rs.n / 24.0))
    return worst < 1e-12, worst, "rho^2/lambda == n/24 over all supported systems"


def _check_root_weight_duality():
    worst = 0.0
    for fam, rank in _SYSTEMS:
        rs = build_root_system(fam, rank)
        want = np.diag((rs.simple_roots**2).sum(axis=1) / 2.0)
        worst = max(worst, float(np.abs(rs.simple_roots @ rs.weights.T - want).max()))
    return worst < 1e-12, worst, "gamma_i . w_j == gamma_i^2/2 delta_ij"


def _check_rescale_roundtrip():
    rs = build_root_system("B", 2)
    back = rescale(rescale(rs, 1.7), 1 / 1.7)
    worst = float(np.abs(back.simple_roots - rs.simple_roots).max())
    worst = max(worst, float(np.abs(cartan_matrix(back) - cartan_matrix(rs)).max()))
    return worst < 1e-12, worst, "rescale(c) then rescale(1/c) is the identity"


def _check_weyl_orders():
    want = {("A", 1): 2, ("A", 2): 6, ("B", 2): 8, ("A", 3): 24, ("C", 3): 48}
    bad = 0
    for (fam, rank), order in want.items():
        if generate_weyl_group(build_root_system(fam, rank)).order != order:
            bad += 1
    return bad == 0, float(bad), "N(W) = 2, 6, 8, 24, 48 for A1, A2, B2, A3, C3"


def _check_weyl_function_parity():
    rng = np.random.default_rng(11)
    worst = 0.0
    for fam, rank in [("A", 2), ("B", 2), ("C", 3)]:
        rs = build_root_system(fam, rank)
        group = generate_weyl_group(rs)
        for _ in range(5):
            phi = rng.uniform(-2, 2, rank)
            w0 = weyl_function(rs, phi)
            for elem in group:
                worst = max(worst, abs(weyl_function(rs, elem.matrix @ phi) - elem.parity * w0))
    return worst < 1e-10, worst, "w(sigma phi) = parity(sigma) w(phi)"


def _check_intertwiner_order():
    worst = 0.0
    for fam, rank in [("A", 1), ("A", 2), ("B", 2)]:
        rs = build_root_system(fam, rank)
        order = generate_weyl_group(rs).order
        worst = max(worst, abs(weyl_order_from_intertwiner(rs) - order))
    return worst < 1e-9, worst, "(2^p/prod alpha.rho) (D w)(0) = N(W)"


def _check_dimensions():
    rs = build_root_system("A", 2)
    vals = [dimension(rs, l) for l in ([0, 0], [1, 0], [1, 1], [3, 0])]
    ok = vals == [1, 3, 8, 10]
    worst = 0.0
    for l, d in zip(([0, 0], [1, 0], [1, 1], [3, 0]), vals):
        lim = character(rs, l, np.zeros(2), limit=True)
        worst = max(worst, abs(lim - d))
    return ok and worst < 1e-12, worst, "dimension formula vs character limit on A2"


def _check_identity_value():
    tau = 2.0
    worst = 0.0
    for fam, rank in _SYSTEMS:
        rs = build_root_system(fam, rank)
        lam_l, dims, _, _ = kmod._spectral_data(rs, tau, 1e-20, None)
        want = float((dims**2 * np.exp(-lam_l * tau)).sum()) / group_volume(rs)
        req = kmod.KernelRequest(
            rs=rs, phi=RadialPoint.real(np.zeros(rank)), time=kmod.TimeParameter.heat(tau),
            tol=1e-20, wall_limit=True,
        )
        for route in (kmod.compact_pathsum, kmod.compact_spectral):
            worst = max(worst, abs(route(req).value - want) / want)
    return worst < 1e-12, worst, "both routes at the identity == V_G^-1 sum_l d_l^2 exp(-lambda_l tau)"


def _check_volume_factorization():
    worst = 0.0
    for fam, rank in _SYSTEMS:
        rs = build_root_system(fam, rank)
        vg, vt, vgt = group_volume(rs), torus_volume(rs), coset_volume(rs)
        worst = max(worst, abs(vg - vt * vgt) / vg)
        rs2 = rescale(rs, 1.3)
        worst = max(worst, abs(group_volume(rs2) - vg) / vg)
    return worst < 1e-10, worst, "V_G = V_T V_G/T and rescale invariance"


def _check_volume_quadrature():
    rs = build_root_system("A", 1)
    vt = torus_volume(rs)
    worst = abs(torus_volume_quadrature(rs) - vt) / vt
    return worst < 1e-8, worst, "torus volume quadrature agrees with the closed form"


def _check_sublattice_purity():
    worst = 0.0
    for name in ("SU(2,1)", "SL(3,R)", "SU(2,2)", "Sp(6,R)"):
        from .domains import enumerate_domains, root_system_of

        fam = parse_group(name)
        lat = winding_lattice(root_system_of(fam))
        for dom in enumerate_domains(fam):
            sub = domain_sublattice(lat, dom)
            for j, s in enumerate(dom.signature):
                if s == "I" and sub.dim:
                    worst = max(worst, float(np.abs(sub.generators[:, j]).max()))
    return worst == 0.0, worst, "sublattice generators vanish exactly on imaginary axes"


def _check_dual_series_su2():
    rs = build_root_system("A", 1)
    worst = 0.0
    for tau in (0.1, 0.5, 1.0):
        req = kmod.KernelRequest(rs=rs, phi=RadialPoint.real([1.3]), time=kmod.TimeParameter.heat(tau))
        a = kmod.compact_pathsum(req).value
        b = kmod.compact_spectral(req).value
        worst = max(worst, abs(a - b) / abs(b))
    return worst < 1e-8, worst, "path sum == spectral expansion on the rank-1 compact group"


def _check_dual_series_su3():
    rs = build_root_system("A", 2)
    worst = 0.0
    for tau in (0.1, 0.5):
        req = kmod.KernelRequest(rs=rs, phi=RadialPoint.real([0.8, 0.5]), time=kmod.TimeParameter.heat(tau))
        a = kmod.compact_pathsum(req).value
        b = kmod.compact_spectral(req).value
        worst = max(worst, abs(a - b) / abs(b))
    return worst < 1e-8, worst, "path sum == spectral expansion on the rank-2 unitary group"


def _check_normalization_su2():
    rs = build_root_system("A", 1)

    def kern(x):
        req = kmod.KernelRequest(
            rs=rs, phi=RadialPoint.real([x]), time=kmod.TimeParameter.heat(0.5), wall_limit=True
        )
        return kmod.compact_pathsum(req).value

    worst = abs(kmod.integrate_central_su2(rs, kern) - 1.0)
    return worst < 1e-6, worst, "heat kernel integrates to 1 against the invariant measure"


def _check_d1_identity():
    from .domains import enumerate_domains

    rs = build_root_system("A", 1)
    fam = parse_group("SU(1,1)")
    d1 = [d for d in enumerate_domains(fam) if d.label == "D1"][0]
    worst = 0.0
    for t in (kmod.TimeParameter.heat(0.4), kmod.TimeParameter.real(0.7)):
        for phi in (0.6, 2.5):
            a = kmod.noncompact_pathsum(
                kmod.KernelRequest(rs=rs, phi=RadialPoint.real([phi]), time=t, domain=d1)
            ).value
            b = kmod.compact_pathsum(
                kmod.KernelRequest(rs=rs, phi=RadialPoint.real([phi]), time=t)
            ).value
            worst = max(worst, abs(a - b))
    return worst < 1e-12, worst, "open-form D1 kernel identical to the compact kernel"


def _check_d0_closed_form():
    from .domains import enumerate_domains

    rs = build_root_system("A", 1)
    fam = parse_group("SU(1,1)")
    d0 = [d for d in enumerate_domains(fam) if d.label == "D0"][0]
    worst = 0.0
    for t in (0.5, 1.0):
        for theta in np.linspace(0.1, 3.0, 7):
            tp = kmod.TimeParameter.real(t)
            a = kmod.noncompact_pathsum(
                kmod.KernelRequest(rs=rs, phi=RadialPoint.mixed([theta], "I"), time=tp, domain=d0)
            ).value
            b = kmod.su11_kernel_d0(theta, tp)
            worst = max(worst, abs(a - b))
    return worst < 1e-10, worst, "engine matches the closed form on the open rank-1 domain"


def _check_resolvent_poles():
    poles = kmod.su2_resolvent_poles(4.5)
    worst = 0.0
    for n in range(1, 7):
        lam_n = (n**2 - 1) / 8.0
        worst = max(worst, min(abs(p - lam_n) for p in poles))
    return worst < 1e-9, worst, "rank-1 resolvent poles sit at (n^2-1)/8"


def _check_domain_counts():
    cases = {
        "SU(2,1)": 2, "SL(3,R)": 2, "SO(4,1)": 2, "SO(3,2)": 3, "SU(3,1)": 2,
        "SU(2,2)": 3, "SO(3,3)": 3, "SO(5,1)": 1, "USp(4,2)": 2, "Sp(6,R)": 4,
    }
    bad = sum(1 for name, want in cases.items() if domain_count(parse_group(name)) != want)
    return bad == 0, float(bad), "domain counts match the catalogued values"


def _check_kernel_weyl_invariance():
    rng = np.random.default_rng(5)
    rs = build_root_system("A", 2)
    group = generate_weyl_group(rs)
    worst = 0.0
    for _ in range(10):
        phi = rng.uniform(0.3, 1.2, 2)
        req = kmod.KernelRequest(rs=rs, phi=RadialPoint.real(phi), time=kmod.TimeParameter.heat(0.4))
        base = kmod.compact_pathsum(req).value
        elem = group.elements[rng.integers(0, group.order)]
        req2 = kmod.KernelRequest(
            rs=rs, phi=RadialPoint.real(elem.matrix @ phi), time=kmod.TimeParameter.heat(0.4)
        )
        worst = max(worst, abs(kmod.compact_pathsum(req2).value - base))
    return worst < 1e-9, worst, "kernel invariant under Weyl images of the radial point"


CHECKS = {
    "rho2-over-lambda": _check_rho_identity,
    "root-weight-duality": _check_root_weight_duality,
    "rescale-roundtrip": _check_rescale_roundtrip,
    "weyl-orders": _check_weyl_orders,
    "weyl-function-parity": _check_weyl_function_parity,
    "intertwiner-order": _check_intertwiner_order,
    "dimensions-vs-character-limit": _check_dimensions,
    "identity-value": _check_identity_value,
    "volume-factorization": _check_volume_factorization,
    "volume-quadrature": _check_volume_quadrature,
    "sublattice-purity": _check_sublattice_purity,
    "dual-series-su2": _check_dual_series_su2,
    "dual-series-su3": _check_dual_series_su3,
    "normalization-su2": _check_normalization_su2,
    "d1-compact-identity": _check_d1_identity,
    "d0-closed-form": _check_d0_closed_form,
    "resolvent-poles": _check_resolvent_poles,
    "domain-counts": _check_domain_counts,
    "kernel-weyl-invariance": _check_kernel_weyl_invariance,
}


def run_checks(only: str | None = None) -> list:
    """Run the (filtered) suite; returns records with measured residuals."""
    out = []
    for name, fn in CHECKS.items():
        if only and only not in name:
            continue
        passed, residual, detail = fn()
        out.append({"name": name, "passed": bool(passed), "residual": float(residual), "detail": detail})
    return out
