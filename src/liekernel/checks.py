"""Named invariant checks, runnable from the command line.

Each identity the construction is supposed to guarantee is one public
function of its inputs that returns its worst residual.  ``CHECKS`` binds a
name to one call of such a function, the bound its residual must stay below
(0: must vanish exactly) and a one-line detail; ``liekernel check`` runs
these bindings, and the test suite calls the same functions at its own
inputs and bounds, so each identity is coded once.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

import numpy as np

from . import kernel as kmod
from .domains import domain_count, enumerate_domains, parse_group, root_system_of
from .errors import ConfigurationError, LieKernelError
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

SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3), ("D", 4)]
WEYL_ORDERS = [("A", 1, 2), ("A", 2, 6), ("B", 2, 8), ("A", 3, 24), ("C", 3, 48)]
CATALOGUED_DOMAIN_COUNTS = {
    "SU(2,1)": 2, "SL(3,R)": 2, "SO(4,1)": 2, "SO(3,2)": 3, "SU(3,1)": 2,
    "SU(2,2)": 3, "SO(3,3)": 3, "SO(5,1)": 1, "USp(4,2)": 2, "Sp(6,R)": 4,
}


# ---------------------------------------------------------------------------
# root systems, Weyl groups, volumes
# ---------------------------------------------------------------------------


def rho_identity(systems) -> float:
    """Worst |rho^2/lambda - n/24| over (family, rank) systems."""
    worst = 0.0
    for fam, rank in systems:
        rs = build_root_system(fam, rank)
        worst = max(worst, abs(float(rs.rho @ rs.rho) / rs.lam - rs.n / 24.0))
    return worst


def root_data(max_rank: int) -> int:
    """Mismatches over A1, B2, C2 and D3 up to rank ``max_rank``: |Phi+| against
    r(r+1)/2, r^2, r^2, r(r-1); the highest root's coefficients against
    Bourbaki's; rho^2/lambda against n/24 to 1e-12."""
    bad = 0
    for fam, r in [(f, r) for f, low in zip("ABCD", (1, 2, 2, 3)) for r in range(low, max_rank + 1)]:
        rs = build_root_system(fam, r)
        count, coeffs = {"A": (r * (r + 1) // 2, [1] * r), "B": (r * r, [1] + [2] * (r - 1)),
                         "C": (r * r, [2] * (r - 1) + [1]), "D": (r * (r - 1), [1] + [2] * (r - 3) + [1, 1])}[fam]
        bad += (rs.p != count) + (rs.highest_root_coeffs.tolist() != coeffs)
        bad += not abs(float(rs.rho @ rs.rho) / rs.lam - rs.n / 24.0) <= 1e-12
    return bad


def root_weight_duality(systems) -> float:
    """Worst entry of gamma_i . w_j - gamma_i^2/2 delta_ij."""
    worst = 0.0
    for fam, rank in systems:
        rs = build_root_system(fam, rank)
        want = np.diag((rs.simple_roots**2).sum(axis=1) / 2.0)
        worst = max(worst, float(np.abs(rs.simple_roots @ rs.weights.T - want).max()))
    return worst


def rescale_roundtrip(rs, factor: float) -> float:
    """Worst change of the simple roots and Cartan matrix after rescale(c), rescale(1/c)."""
    back = rescale(rescale(rs, factor), 1 / factor)
    worst = float(np.abs(back.simple_roots - rs.simple_roots).max())
    return max(worst, float(np.abs(cartan_matrix(back) - cartan_matrix(rs)).max()))


def weyl_orders(cases) -> int:
    """Number of (family, rank, order) cases whose Weyl group has another order."""
    return sum(generate_weyl_group(build_root_system(fam, rank)).order != order for fam, rank, order in cases)


def weyl_function_parity(systems, rng, draws: int) -> float:
    """Worst |w(sigma phi) - parity(sigma) w(phi)| over every sigma in W.

    ``draws`` points per system come from ``rng`` (a seed or a Generator),
    uniform in [-2, 2)^r.
    """
    rng = np.random.default_rng(rng)
    worst = 0.0
    for fam, rank in systems:
        rs = build_root_system(fam, rank)
        group = generate_weyl_group(rs)
        for _ in range(draws):
            phi = rng.uniform(-2, 2, rank)
            w0 = weyl_function(rs, phi)
            for elem in group:
                worst = max(worst, abs(weyl_function(rs, elem.matrix @ phi) - elem.parity * w0))
    return worst


def intertwiner_order(cases) -> float:
    """Worst |(2^p/prod alpha.rho) (D w)(0) - N(W)| over (family, rank, N(W)) cases."""
    return max(
        abs(weyl_order_from_intertwiner(build_root_system(fam, rank)) - order) for fam, rank, order in cases
    )


def character_dimensions(rs, cases) -> float:
    """Worst |chi_l(0) - d| and |dim(l) - d| over (l, d) cases.

    chi_l(0) is the character's exact wall limit at the identity.
    """
    worst = 0.0
    for l, d in cases:
        lim = character(rs, l, np.zeros(rs.rank))
        worst = max(worst, abs(dimension(rs, l) - d), abs(lim - d))
    return worst


def volume_factorization(systems) -> float:
    """Worst |V_G - V_T V_G/T| / V_G."""
    worst = 0.0
    for fam, rank in systems:
        rs = build_root_system(fam, rank)
        vg = group_volume(rs)
        worst = max(worst, abs(vg - torus_volume(rs) * coset_volume(rs)) / vg)
    return worst


def volume_rescale(systems, factors) -> float:
    """Worst relative change of V_G, V_T and V_G/T when the roots are rescaled."""
    worst = 0.0
    for fam, rank in systems:
        rs = build_root_system(fam, rank)
        for c in factors:
            rs2 = rescale(rs, c)
            for vol in (group_volume, torus_volume, coset_volume):
                worst = max(worst, abs(vol(rs2) - vol(rs)) / vol(rs))
    return worst


def volume_quadrature(rs, points_per_axis: int) -> float:
    """Relative miss of the torus volume quadrature against the closed form."""
    vt = torus_volume(rs)
    return abs(torus_volume_quadrature(rs, points_per_axis) - vt) / vt


def sublattice_purity(cases) -> float:
    """Largest generator entry of a domain sublattice on an imaginary axis.

    ``cases`` are (root system, signature) pairs; the identity holds when the
    result is exactly 0.
    """
    worst = 0.0
    for rs, signature in cases:
        sub = domain_sublattice(winding_lattice(rs), tuple(signature))
        for j, s in enumerate(signature):
            if s == "I" and sub.dim:
                worst = max(worst, float(np.abs(sub.generators[:, j]).max()))
    return worst


def domain_counts(cases) -> int:
    """Number of groups in the {name: count} mapping with another domain count."""
    return sum(domain_count(parse_group(name)) != want for name, want in cases.items())


def noncompact_forms(max_rank: int) -> list:
    """Names of the non-compact classical forms of rank 1 to ``max_rank``:
    SU(p,q), SL(n,R), SO(p,q) with p+q >= 5, USp(2p,2q) and Sp(2n,R), p >= q >= 1."""
    names = []
    for r in range(1, max_rank + 1):
        names += [f"SU({r + 1 - q},{q})" for q in range(1, (r + 1) // 2 + 1)] + [f"SL({r + 1},R)"]
        names += [f"SO({m - q},{q})" for m in (2 * r, 2 * r + 1) if m >= 5 for q in range(1, m // 2 + 1)]
        names += [f"USp({2 * (r - q)},{2 * q})" for q in range(1, r // 2 + 1)] + [f"Sp({2 * r},R)"]
    return names


def domain_enumeration(names) -> int:
    """Number of groups whose ``enumerate_domains`` neither lists ``domain_count``
    distinct signature masks nor refuses with ``ConfigurationError``."""
    bad = 0
    for name in names:
        family = parse_group(name)
        try:
            bad += len({dom.signature for dom in enumerate_domains(family)}) != domain_count(family)
        except ConfigurationError:
            pass
        except LieKernelError:
            bad += 1
    return bad


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _heat(rs, phi, tau, **kw):
    return kmod.KernelRequest(rs=rs, phi=RadialPoint.real(phi), time=kmod.TimeParameter.heat(tau), **kw)


def identity_value(systems, taus, routes) -> float:
    """Worst |K_tau(0) - V_G^-1 sum_l d_l^2 exp(-lambda_l tau)| relative, per route.

    Both sides are taken at tol = 1e-20; ``routes`` are kernel functions such
    as ``compact_pathsum`` and ``compact_spectral``.
    """
    worst = 0.0
    for fam, rank in systems:
        rs = build_root_system(fam, rank)
        for tau in taus:
            lam_l, dims, _, _ = kmod._spectral_data(rs, tau, 1e-20, None)
            want = float((dims**2 * np.exp(-lam_l * tau)).sum()) / group_volume(rs)
            req = _heat(rs, np.zeros(rank), tau, tol=1e-20)
            for route in routes:
                worst = max(worst, abs(route(req).value - want) / want)
    return worst


def dual_series(rs, points, taus) -> float:
    """Worst |path sum - spectral expansion| / |spectral| at heat times ``taus``."""
    worst = 0.0
    for tau in taus:
        for phi in points:
            req = _heat(rs, phi, tau)
            a = kmod.compact_pathsum(req).value
            b = kmod.compact_spectral(req).value
            worst = max(worst, abs(a - b) / abs(b))
    return worst


def kernel_symmetry(cases) -> float:
    """Worst |K(sigma phi + 2 pi m) - K(phi)| / max(1, |K(phi)|) of the path sum.

    ``cases`` are (rs, phi, time, sigma, m): sigma indexes the Weyl group's
    elements and m is a winding vector in phi coordinates.
    """
    worst = 0.0
    for rs, phi, time, sigma, m in cases:
        base = kmod.compact_pathsum(kmod.KernelRequest(rs=rs, phi=RadialPoint.real(phi), time=time)).value
        elem = generate_weyl_group(rs).elements[sigma]
        moved_phi = RadialPoint.real(elem.matrix @ phi + 2 * np.pi * m)
        moved = kmod.compact_pathsum(kmod.KernelRequest(rs=rs, phi=moved_phi, time=time)).value
        worst = max(worst, abs(moved - base) / max(1.0, abs(base)))
    return worst


def _a2_weyl_draws(seed: int, count: int, tau: float) -> list:
    """Random A2 points in [0.3, 1.2)^2, each with a random Weyl element and no winding."""
    rng = np.random.default_rng(seed)
    rs = build_root_system("A", 2)
    time = kmod.TimeParameter.heat(tau)
    return [(rs, rng.uniform(0.3, 1.2, 2), time, int(rng.integers(0, 6)), np.zeros(2)) for _ in range(count)]


def heat_normalization(tau: float) -> float:
    """|integral of the rank-1 heat kernel against the invariant measure - 1|."""
    rs = build_root_system("A", 1)

    def kern(x):
        return kmod.compact_pathsum(_heat(rs, [x], tau)).value

    return abs(kmod.integrate_central_su2(rs, kern) - 1.0)


def _su11_domain(label: str):
    return next(d for d in enumerate_domains(parse_group("SU(1,1)")) if d.label == label)


def d1_identity(points, times) -> float:
    """Worst |SU(1,1) D1 kernel - SU(2) kernel| at radial values ``points``."""
    rs = build_root_system("A", 1)
    d1 = _su11_domain("D1")
    worst = 0.0
    for t in times:
        for phi in points:
            a = kmod.noncompact_pathsum(
                kmod.KernelRequest(rs=rs, phi=RadialPoint.real([phi]), time=t, domain=d1)
            ).value
            b = kmod.compact_pathsum(kmod.KernelRequest(rs=rs, phi=RadialPoint.real([phi]), time=t)).value
            worst = max(worst, abs(a - b))
    return worst


def d0_closed_form(thetas, times) -> float:
    """Worst |SU(1,1) D0 path sum - su11_kernel_d0| at imaginary radial values ``thetas``."""
    rs = build_root_system("A", 1)
    d0 = _su11_domain("D0")
    worst = 0.0
    for t in times:
        for theta in thetas:
            a = kmod.noncompact_pathsum(
                kmod.KernelRequest(rs=rs, phi=RadialPoint.mixed([theta], "I"), time=t, domain=d0)
            ).value
            worst = max(worst, abs(a - kmod.su11_kernel_d0(theta, t)))
    return worst


def resolvent_poles(lam_max: float, levels) -> float:
    """Worst distance from (n^2-1)/8, n in ``levels``, to the nearest located rank-1 pole."""
    poles = kmod.su2_resolvent_poles(lam_max)
    return max(min(abs(p - (n**2 - 1) / 8.0) for p in poles) for n in levels)


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------


class Check(NamedTuple):
    run: Callable[[], float]  # one call of an identity above at fixed inputs
    bound: float  # residual < bound passes; 0 means the residual must be exactly 0
    detail: str

    def passes(self, residual: float) -> bool:
        return bool(residual < self.bound if self.bound else residual == 0)


CHECKS = {
    "rho2-over-lambda": Check(
        lambda: rho_identity(SYSTEMS), 1e-12, "rho^2/lambda == n/24 over all supported systems"
    ),
    "root-data": Check(
        lambda: root_data(12), 0,
        "|Phi+|, Bourbaki's highest root and rho^2/lambda = n/24 on A1-A12, B2-B12, C2-C12, D3-D12",
    ),
    "root-weight-duality": Check(
        lambda: root_weight_duality(SYSTEMS), 1e-12, "gamma_i . w_j == gamma_i^2/2 delta_ij"
    ),
    "rescale-roundtrip": Check(
        lambda: rescale_roundtrip(build_root_system("B", 2), 1.7), 1e-12,
        "rescale(c) then rescale(1/c) is the identity",
    ),
    "weyl-orders": Check(
        lambda: weyl_orders(WEYL_ORDERS), 0, "N(W) = 2, 6, 8, 24, 48 for A1, A2, B2, A3, C3"
    ),
    "weyl-function-parity": Check(
        lambda: weyl_function_parity([("A", 2), ("B", 2), ("C", 3)], 11, 5), 1e-10,
        "w(sigma phi) = parity(sigma) w(phi)",
    ),
    "intertwiner-order": Check(
        lambda: intertwiner_order(WEYL_ORDERS[:3]), 1e-9, "(2^p/prod alpha.rho) (D w)(0) = N(W)"
    ),
    "dimensions-vs-character-limit": Check(
        lambda: character_dimensions(
            build_root_system("A", 2), [([0, 0], 1), ([1, 0], 3), ([1, 1], 8), ([3, 0], 10)]
        ),
        1e-12, "dimension formula vs character limit on A2",
    ),
    "identity-value": Check(
        lambda: identity_value(SYSTEMS, (2.0,), (kmod.compact_pathsum, kmod.compact_spectral)), 1e-12,
        "both routes at the identity == V_G^-1 sum_l d_l^2 exp(-lambda_l tau)",
    ),
    "volume-factorization": Check(
        lambda: max(volume_factorization(SYSTEMS), volume_rescale(SYSTEMS, (1.3,))), 1e-10,
        "V_G = V_T V_G/T and rescale invariance",
    ),
    "volume-quadrature": Check(
        lambda: volume_quadrature(build_root_system("A", 1), 401), 1e-8,
        "torus volume quadrature agrees with the closed form",
    ),
    "sublattice-purity": Check(
        lambda: sublattice_purity(
            (root_system_of(fam), dom.signature)
            for fam in map(parse_group, ("SU(2,1)", "SL(3,R)", "SU(2,2)", "Sp(6,R)"))
            for dom in enumerate_domains(fam)
        ),
        0, "sublattice generators vanish exactly on imaginary axes",
    ),
    "dual-series-su2": Check(
        lambda: dual_series(build_root_system("A", 1), [[1.3]], (0.1, 0.5, 1.0)), 1e-8,
        "path sum == spectral expansion on the rank-1 compact group",
    ),
    "dual-series-su3": Check(
        lambda: dual_series(build_root_system("A", 2), [[0.8, 0.5]], (0.1, 0.5)), 1e-8,
        "path sum == spectral expansion on the rank-2 unitary group",
    ),
    "normalization-su2": Check(
        lambda: heat_normalization(0.5), 1e-6, "heat kernel integrates to 1 against the invariant measure"
    ),
    "d1-compact-identity": Check(
        lambda: d1_identity((0.6, 2.5), (kmod.TimeParameter.heat(0.4), kmod.TimeParameter.real(0.7))), 1e-12,
        "open-form D1 kernel identical to the compact kernel",
    ),
    "d0-closed-form": Check(
        lambda: d0_closed_form(np.linspace(0.1, 3.0, 7), [kmod.TimeParameter.real(t) for t in (0.5, 1.0)]),
        1e-10, "engine matches the closed form on the open rank-1 domain",
    ),
    "resolvent-poles": Check(
        lambda: resolvent_poles(4.5, range(1, 7)), 1e-9, "rank-1 resolvent poles sit at (n^2-1)/8"
    ),
    "domain-counts": Check(
        lambda: domain_counts(CATALOGUED_DOMAIN_COUNTS), 0, "domain counts match the catalogued values"
    ),
    "domain-enumeration": Check(
        lambda: domain_enumeration(noncompact_forms(6)), 0,
        "every non-compact form up to rank 6 lists domain_count's domains or is refused as unsupported",
    ),
    "kernel-weyl-invariance": Check(
        lambda: kernel_symmetry(_a2_weyl_draws(5, 10, 0.4)), 1e-9,
        "kernel invariant under Weyl images of the radial point",
    ),
}


def run_checks(only: str | None = None) -> list:
    """Run the (filtered) suite; returns records with measured residuals and seconds."""
    out = []
    for name, check in CHECKS.items():
        if only and only not in name:
            continue
        start = time.perf_counter()
        residual = check.run()
        out.append({"name": name, "passed": check.passes(residual), "residual": float(residual),
                    "seconds": time.perf_counter() - start, "detail": check.detail})
    return out
