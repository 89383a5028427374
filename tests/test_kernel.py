import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from liekernel import (
    ArgumentError,
    BranchPointError,
    ConvergenceError,
    ConvergenceTag,
    KernelRequest,
    PoleError,
    RadialPoint,
    ResourceError,
    SingularPointError,
    TimeParameter,
    UnsupportedOperationError,
    build_root_system,
    canonicalize,
    compact_pathsum,
    compact_spectral,
    domain_sublattice,
    enumerate_points,
    generate_weyl_group,
    noncompact_pathsum,
    parse_group,
    radial_convolve,
    rescale,
    su2_pathsum_series,
    su2_resolvent,
    su2_spectral_series,
    su11_resolvent_d0,
    winding_lattice,
)
from liekernel import checks, kernel, lattice, weyl
from liekernel.domains import (
    build_element,
    canonical_radial,
    enumerate_domains,
    predicted_eigenvalues,
    root_system_of,
)
from liekernel.kernel import _spectral_data, _spectral_levels
from liekernel.weyl import character, orbit_sums, wall_denominator, weight_orbit

RNG = np.random.default_rng(92)

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)


def _domain(name, label):
    fam = parse_group(name)
    return next(d for d in enumerate_domains(fam) if d.label == label)


def test_time_parameter_validation():
    with pytest.raises(ArgumentError):
        TimeParameter.heat(0.0)
    with pytest.raises(ArgumentError):
        TimeParameter.heat(-1.0)
    with pytest.raises(ArgumentError):
        TimeParameter(value=1.0, mode=TimeParameter.heat(1.0).mode, epsilon=-0.1)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ArgumentError, match="finite"):
            TimeParameter.real(bad)
        with pytest.raises(ArgumentError, match="finite"):
            TimeParameter.real(1.0, epsilon=bad)
        with pytest.raises(ArgumentError, match="finite"):
            TimeParameter.heat(bad)
    tp = TimeParameter.heat(0.5)
    assert tp.effective == -0.5j
    tp = TimeParameter.real(2.0, epsilon=0.1)
    assert tp.effective == 2.0 - 0.1j
    assert TimeParameter.real(2.0).conditionally_convergent


@pytest.mark.parametrize("tau", [0.1, 0.5, 1.0])
def test_dual_series_su2(tau):
    """Path sum vs spectral expansion.

    Points stay where the spectral sum is well conditioned: for small tau
    the kernel decays like exp(-lam phi^2/4 tau) while the spectral terms
    stay O(1), so beyond |phi| ~ 2 the identity drowns in the cancellation
    floor of double precision.  Inside that region both series agree to
    twelve digits.
    """
    assert checks.dual_series(A1, [[phi] for phi in np.linspace(0.35, 2.0, 8)], (tau,)) < 1e-8


@pytest.mark.parametrize("tau", [0.1, 0.5, 1.0])
def test_dual_series_su3(tau):
    assert checks.dual_series(A2, [RNG.uniform(0.3, 1.1, 2) for _ in range(4)], (tau,)) < 1e-8


@pytest.mark.parametrize(
    "family,rank,phi",
    [
        ("B", 2, [0.7, 0.45]),
        ("C", 3, [0.6, 0.35, 0.8]),
        ("D", 3, [0.7, 0.4, 0.9]),
        ("A", 3, [0.5, 0.4, 0.7]),
    ],
)
def test_dual_series_other_families(family, rank, phi):
    assert checks.dual_series(build_root_system(family, rank), [phi], (0.8,)) < 1e-10


def test_engine_matches_printed_spectral_term_by_term():
    phi, t = 1.3, 0.8
    for level in (0, 1, 2, 5, 12):
        req = KernelRequest(
            rs=A1,
            phi=RadialPoint.real([phi]),
            time=TimeParameter.heat(t),
            level_cutoff=level,
        )
        engine = compact_spectral(req).value
        printed = su2_spectral_series(phi, TimeParameter.heat(t), nmax=level + 1)
        assert abs(engine - printed) < 1e-10 * max(1.0, abs(printed))
    # real time with damping, matched truncation
    tp = TimeParameter.real(0.9, epsilon=0.05)
    req = KernelRequest(rs=A1, phi=RadialPoint.real([phi]), time=tp, level_cutoff=7)
    assert abs(compact_spectral(req).value - su2_spectral_series(phi, tp, nmax=8)) < 1e-10


def test_engine_matches_printed_pathsum_term_by_term():
    phi = 2.1
    tp = TimeParameter.heat(0.6)
    req = KernelRequest(rs=A1, phi=RadialPoint.real([phi]), time=tp, tol=1e-14)
    engine = compact_pathsum(req).value
    # evaluate the printed series over exactly the enumerated winding set
    lat = winding_lattice(A1)
    pts = enumerate_points(lat, RadialPoint.real([phi]), 0.6, 1e-14, lam=A1.lam)
    t = tp.effective
    total = 0j
    for (mvec,) in pts:
        x = phi + 2 * np.pi * mvec  # mvec is 2*m1, so this is phi + 4 pi m1
        total += x / (2 * np.sin(phi / 2)) * np.exp(1j * x**2 / (2 * t) + 1j * t / 8)
    printed = np.exp(-1.5 * np.log(4j * np.pi * t)) * total
    assert abs(engine - printed) < 1e-12
    # converged values agree with the series helper too
    assert abs(engine - su2_pathsum_series(phi, tp, mmax=30)) < 1e-12


def test_kernel_weyl_invariance_and_periodicity():
    # each draw: one Weyl image, then one winding shift (element 0 is the identity)
    tp = TimeParameter.heat(0.45)
    cases = []
    for _ in range(6):
        phi = RNG.uniform(0.3, 1.1, 2)
        cases.append((A2, phi, tp, int(RNG.integers(0, 6)), np.zeros(2)))
        cases.append((A2, phi, tp, 0, RNG.integers(-1, 2, 2) @ winding_lattice(A2).generators))
    assert checks.kernel_symmetry(cases) < 1e-9


def test_kernel_rescale_invariance():
    tp = TimeParameter.heat(0.4)
    phi = np.array([0.8, 0.5])
    base = compact_pathsum(KernelRequest(rs=A2, phi=RadialPoint.real(phi), time=tp)).value
    for c in (0.6, 1.7):
        rs2 = rescale(A2, c)
        path = compact_pathsum(KernelRequest(rs=rs2, phi=RadialPoint.real(phi / c), time=tp)).value
        spec = compact_spectral(KernelRequest(rs=rs2, phi=RadialPoint.real(phi / c), time=tp)).value
        assert abs(path - base) / abs(base) < 1e-12
        assert abs(spec - base) / abs(base) < 1e-10


def test_wall_value_is_the_limit():
    tp = TimeParameter.heat(0.5)
    limit = compact_pathsum(KernelRequest(rs=A1, phi=RadialPoint.real([0.0]), time=tp)).value
    nearby = compact_pathsum(
        KernelRequest(rs=A1, phi=RadialPoint.real([1e-3]), time=tp)
    ).value
    assert abs(limit - nearby) < 1e-4 * abs(limit)
    # identity value equals the coincidence-limit heat trace density at phi=0
    assert checks.dual_series(A1, [[0.0]], (0.5,)) < 1e-7


@pytest.mark.parametrize("tol", [0.0, -1e-3, 1.0, 2.0, float("nan")])
def test_request_rejects_tol_outside_unit_interval(tol):
    phi = RadialPoint.real([0.8, 0.55])
    for route in (compact_pathsum, compact_spectral):
        with pytest.raises(ArgumentError, match="tol"):
            route(KernelRequest(rs=A2, phi=phi, time=TimeParameter.heat(0.5), tol=tol))
    dom = _domain("SU(2,1)", "D1")
    with pytest.raises(ArgumentError, match="tol"):
        noncompact_pathsum(KernelRequest(rs=A2, phi=RadialPoint.mixed([0.7, 0.4], dom.signature),
                                         time=TimeParameter.real(1.0), domain=dom, tol=tol))


@pytest.mark.parametrize("values", [(float("nan"), 0.3), (0.3, float("inf")), (-float("inf"), 0.3)])
def test_radial_point_rejects_non_finite_values(values):
    for make in (RadialPoint.real, lambda v: RadialPoint.mixed(v, "RI")):
        with pytest.raises(ArgumentError, match="finite"):
            make(values)


@pytest.mark.parametrize("call", [
    lambda: RadialPoint(("a", 0.1), "RR"),
    lambda: RadialPoint((1j, 0.1), "RR"),
    lambda: KernelRequest(rs=A2, phi=RadialPoint.real([0.1, 0.2]), time=TimeParameter.heat(1.0),
                          domain=object()),
    lambda: canonicalize(A2, RadialPoint.real([0.1])),
    lambda: character(A2, [1, 0], [0.1, 0.2, 0.3]),
    lambda: weyl.weyl_function(A2, [0.1]),
    lambda: character(A2, [1, 0], [float("nan"), 0.2]),
    lambda: RadialPoint(0.5, "R"),
    lambda: KernelRequest(rs=A2, phi=RadialPoint.real([0.1, 0.2]), time=TimeParameter.heat(1.0),
                          domain=SimpleNamespace(signature=5)),
    lambda: KernelRequest(rs=A2, phi=RadialPoint.real([0.1, 0.2]), time=TimeParameter.heat(1.0), tol="x"),
    lambda: TimeParameter.heat("a"),
    lambda: TimeParameter.real(1.0, epsilon=None),
    lambda: compact_spectral(KernelRequest(rs=A2, phi=RadialPoint.real([0.1, 0.2]),
                                           time=TimeParameter.heat(1.0), level_cutoff=2.5)),
    lambda: predicted_eigenvalues(parse_group("SU(2,1)"), RadialPoint.real([0.1])),
    lambda: parse_group(5),
    # SU(2,1) has no domain with two imaginary axes
    lambda: build_element(parse_group("SU(2,1)"), RadialPoint.mixed([0.3, 0.4], "II")),
    lambda: canonical_radial(parse_group("SU(2,1)"), RadialPoint.mixed([0.3, 0.4], "II")),
], ids=["text-value", "complex-value", "domain-without-signature", "canonicalize-rank",
        "character-rank", "weyl-function-rank", "character-nan", "scalar-values", "scalar-signature",
        "text-tol", "text-time", "none-epsilon", "fractional-level-cutoff", "predicted-eigenvalues-rank",
        "numeric-group-name", "build-without-domain", "canonical-without-domain"])
def test_public_boundary_refusals_are_argument_errors(call):
    with pytest.raises(ArgumentError):
        call()


def _pathsum_terms_by_prod(rs, phi, points, t):
    """Reference van Vleck terms, one per point: the numerator product as
    one np.prod over each point's row of root factors."""
    cv = phi.complex_vector()
    direction = np.where(np.array(phi.signature) == "R", rs.rho, 0.0)
    roots, w = kernel.wall_denominator(rs, cv, direction)
    k = len(roots)
    shifted = cv[None, :] + 2.0 * np.pi * points
    factors = shifted @ rs.positive_roots.T
    if k:
        poly = np.zeros((len(points), k + 1), dtype=complex)
        poly[:, 0] = 1.0
        for u, v in zip(factors.T, rs.positive_roots @ direction):
            poly[:, 1:] = poly[:, 1:] * u[:, None] + poly[:, :-1] * v
            poly[:, 0] *= u
        c = 1j * rs.lam / (4.0 * t)
        a, b = 2.0 * c * (shifted @ direction), c * (direction @ direction)
        gauss = [np.ones(len(points)), a]
        for n in range(1, k):
            gauss.append((a * gauss[n] + 2.0 * b * gauss[n - 1]) / (n + 1))
        nums = sum(poly[:, j] * gauss[k - j] for j in range(k + 1))
    else:
        nums = np.prod(factors, axis=1)
    denom = 2.0**rs.p * w
    action = np.einsum("ki,ki->k", shifted, shifted)
    phases = np.exp(1j * rs.lam * action / (4.0 * t) + 1j * (rs.rho @ rs.rho) / rs.lam * t)
    return nums / denom * phases


def _pathsum_cases():
    """(rs, lattice, point, times): compact points off and on walls, and
    domain points with the undamped (Abel) window and a small damping."""
    damped = (TimeParameter.heat(0.6), TimeParameter.real(1.0, 0.05))
    cases = []
    for family, rank in [("A", 1), ("A", 2), ("B", 3), ("C", 3), ("D", 4)]:
        rs = build_root_system(family, rank)
        lat = winding_lattice(rs)
        off = RNG.uniform(0.2, 1.2, rank)
        # the identity and a point on the first simple root's wall
        wall = np.linalg.solve(rs.simple_roots, np.r_[0.0, RNG.uniform(0.3, 0.9, rank - 1)])
        for x in (off, np.zeros(rank), wall):
            cases.append((rs, lat, RadialPoint.real(x), damped))
    for name, label in [("SU(2,1)", "D1"), ("SU(3,1)", "D3"), ("Sp(6,R)", "D3"), ("SO(3,3)", "D2")]:
        dom = _domain(name, label)
        rs = root_system_of(parse_group(name))
        sub = domain_sublattice(winding_lattice(rs), dom)
        phi = RadialPoint.mixed(RNG.uniform(0.2, 1.4, rs.rank), dom.signature)
        cases.append((rs, sub, phi, (TimeParameter.real(1.0), TimeParameter.real(1.0, 0.05))))
    return cases


def _pathsum_bound(rs, phi, points, t, terms):
    """Rounding bound on a path sum's difference from another evaluation of
    the same terms, whatever order its products and its sum run in.

    Term m is N_m / D exp(z_m), z_m = i lam (x_m + i theta)^2 / 4t + i
    rho^2 t / lam, x_m = phi + 2 pi m.  Its numerator is a product of p root
    factors, each rounded a few times, so it carries a relative error of a
    small multiple of p eps; so does the final sum, relative to
    sum_m |term_m|.  The exponent is formed from squared norms of size
    |x_m + i theta|^2, so either evaluation may be off in z_m by a small
    multiple of eps |angle_m|, angle_m = lam |x_m + i theta|^2 / 4|t|, and
    exp(z + delta) = exp(z) (1 + delta + ...) turns that into the same
    relative error of term m.  Angles reach 3e4 rad on undamped windows,
    where this part dominates.  Both evaluations err, so with a factor 8:
    8 eps sum_m |term_m| (p + |angle_m|), the bound 8 p eps sum_m |term_m|
    while the angles are small.
    """
    shifted = phi.complex_vector()[None, :] + 2.0 * np.pi * points
    angles = rs.lam * (np.abs(shifted) ** 2).sum(axis=1) / (4.0 * abs(t))
    return 8 * np.finfo(float).eps * (np.abs(terms) * (rs.p + angles)).sum()


def test_pathsum_terms_match_prod_reference():
    for rs, lat, phi, times in _pathsum_cases():
        for time in times:
            t = time.effective
            points = enumerate_points(lat, phi, time.decay_scale(), 1e-14, lam=rs.lam)
            terms = _pathsum_terms_by_prod(rs, phi, points, t)
            plan = kernel._path_plan(rs, phi.signature, time, 1e-14)
            got = kernel._pathsum_terms(rs, np.array([phi.values]), phi.signature, plan)[0]
            bound = _pathsum_bound(rs, phi, points, t, terms)
            assert abs(got - terms.sum()) <= bound, (rs.name, phi, time)


def _pathsum_by_point(rs, phi, time, lat):
    """Reference path sum with one exp of each point's whole exponent
    i lam (|x_m|^2 - |theta|^2) / 4t + i rho^2 t / lam, x_m = phi + 2 pi m,
    its squared norm added axis by axis, off walls and in one block."""
    t = time.effective
    x0, theta = phi.phi_vector(), phi.theta_vector()
    x = enumerate_points(lat, phi, time.decay_scale(), 1e-14, lam=rs.lam).T * (2.0 * np.pi)
    x += x0[:, None]
    factors = rs.positive_roots @ x
    if not phi.is_compact:
        factors = factors + 1j * (rs.positive_roots @ theta)[:, None]
    norms = x[0] * x[0]
    for row in x[1:]:
        norms += row * row
    norms -= theta @ theta
    phases = 1j * rs.lam * norms
    phases /= 4.0 * t
    phases += 1j * (rs.rho @ rs.rho) / rs.lam * t
    direction = np.where(np.array(phi.signature) == "R", rs.rho, 0.0)
    roots, w = wall_denominator(rs, x0 if phi.is_compact else phi.complex_vector(), direction)
    assert not len(roots)
    terms = complex(np.multiply(np.exp(phases), factors.prod(axis=0)).sum()) / (2.0**rs.p * w)
    return np.exp(-(rs.n / 2.0) * np.log(4j * np.pi * t)) * terms


def _single_axis_windows():
    """Every domain of SU(1,1) and the catalogued forms whose winding
    sublattice has dimension 1, and the compact A1."""
    cases = [pytest.param(A1, None, id="A1")]
    for name in ("SU(1,1)", "SU(2,1)", "SL(3,R)", "SO(4,1)", "SO(3,2)", "SU(3,1)", "SU(2,2)", "SO(3,3)",
                 "SO(5,1)", "USp(4,2)", "Sp(6,R)"):
        fam = parse_group(name)
        rs = root_system_of(fam)
        for dom in enumerate_domains(fam):
            if domain_sublattice(winding_lattice(rs), dom).dim == 1:
                cases.append(pytest.param(rs, dom, id=f"{name} {dom.label}"))
    return cases


@pytest.mark.parametrize("rs,dom", _single_axis_windows())
def test_single_axis_windows_keep_the_bits_of_one_exp_per_point(rs, dom):
    """Where one axis varies, the axis tables give each term the exponent of
    its whole squared norm: the path sum equals the per-point reference."""
    rng = np.random.default_rng(rs.rank)
    signature = dom.signature if dom else ("R",) * rs.rank
    lat = domain_sublattice(winding_lattice(rs), signature)
    for _ in range(4):
        phi = RadialPoint.mixed(rng.uniform(0.12, 1.55, rs.rank), signature)
        for time in (TimeParameter.real(1.0), TimeParameter.real(1.0, 0.05), TimeParameter.heat(0.7)):
            req = KernelRequest(rs=rs, phi=phi, time=time, domain=dom)
            got = (noncompact_pathsum(req) if dom else compact_pathsum(req)).value
            assert got == _pathsum_by_point(rs, phi, time, lat), (phi, time)


def test_pathsum_terms_do_not_depend_on_the_factor_block(monkeypatch):
    """The root factors formed in blocks of points are the columns of the
    whole product, bit for bit, off walls and on them."""
    for rs, lat, phi, times in _pathsum_cases():
        for time in times:
            plan = kernel._path_plan(rs, phi.signature, time, 1e-14)
            sums = []
            for block in (10**9, 7 * len(rs.positive_roots)):
                monkeypatch.setattr(kernel, "_FACTOR_BLOCK", block)
                sums.append(kernel._pathsum_terms(rs, np.array([phi.values]), phi.signature, plan)[0])
            assert sums[0] == sums[1], (rs.name, phi, time)


def _pathsum_terms_by_mpmath(mp, rs, phi, points, t):
    """Reference van Vleck terms in mpmath at the working precision: the
    same terms, points and wall rule as ``kernel._pathsum_terms``."""
    theta = [mp.mpf(float(v)) if s == "I" else mp.mpf(0) for v, s in zip(phi.values, phi.signature)]
    direction = [mp.mpf(float(r)) if s == "R" else mp.mpf(0) for r, s in zip(rs.rho, phi.signature)]
    roots = [[mp.mpf(float(v)) for v in beta] for beta in rs.positive_roots]
    t = mp.mpc(t)
    c = 1j * mp.mpf(rs.lam) / (4 * t)
    rho2 = mp.fsum(mp.mpf(float(v)) ** 2 for v in rs.rho)
    center = [mp.mpf(float(v)) if s == "R" else mp.mpf(0) for v, s in zip(phi.values, phi.signature)]
    z0 = [a + 1j * b for a, b in zip(center, theta)]
    # the wall roots and the s^k coefficient of prod_beta sin(beta.(z0 + s d) / 2)
    halves = [mp.fdot(beta, z0) / 2 for beta in roots]
    on_wall = [abs(complex(mp.sin(h))) <= 1e-12 for h in halves]
    k = sum(on_wall)
    denom = mp.mpf(2) ** rs.p * mp.fprod(
        mp.fdot(beta, direction) / 2 * mp.cos(h) if wall else mp.sin(h)
        for beta, h, wall in zip(roots, halves, on_wall))
    terms = []
    for m in points:
        z = [a + 2 * mp.pi * mp.mpf(float(v)) for a, v in zip(z0, m)]
        # prod_beta (beta.z + s beta.d) and exp(c (2 s z.d + s^2 d.d)) to order s^k
        poly = [mp.mpc(1)] + [mp.mpc(0)] * k
        for beta in roots:
            u, v = mp.fdot(beta, z), mp.fdot(beta, direction)
            poly = [u * poly[0]] + [u * poly[j] + v * poly[j - 1] for j in range(1, k + 1)]
        a, b = 2 * c * mp.fdot(z, direction), c * mp.fdot(direction, direction)
        gauss = [mp.mpc(1), a]
        for n in range(1, k):
            gauss.append((a * gauss[n] + 2 * b * gauss[n - 1]) / (n + 1))
        num = mp.fsum(poly[j] * gauss[k - j] for j in range(k + 1))
        terms.append(num / denom * mp.exp(c * mp.fdot(z, z) + 1j * rho2 / rs.lam * t))
    return terms


def _mpmath_cases():
    """(rs, lattice, point, time), windows of at most about 860 points: A2
    and B3 in heat mode off and on a wall, three undamped domains and three
    damped ones, the rank-4 SU(3,2) D3 on the A pair frame among them, with
    windows of two and three varying axes."""
    cases = []
    for family, rank, tau in [("A", 2, 80.0), ("B", 3, 40.0)]:
        rs = build_root_system(family, rank)
        lat = winding_lattice(rs)
        wall = np.linalg.solve(rs.simple_roots, np.r_[0.0, np.linspace(0.4, 0.8, rank - 1)])
        for x, where in ((np.linspace(0.9, 0.3, rank), "off-wall"), (wall, "wall")):
            cases.append(pytest.param(rs, lat, RadialPoint.real(x), TimeParameter.heat(tau),
                                      id=f"{family}{rank}-heat-{where}"))
    for name, label, time in [("SU(2,1)", "D1", TimeParameter.real(1.0)),
                              ("SO(3,3)", "D2", TimeParameter.real(1.0)),
                              ("SO(3,2)", "D2", TimeParameter.real(1.0)),
                              ("Sp(6,R)", "D2", TimeParameter.real(1.0, 0.05)),
                              ("Sp(6,R)", "D3", TimeParameter.real(1.0, 0.05)),
                              ("SU(3,2)", "D3", TimeParameter.real(1.0, 0.05))]:
        dom = _domain(name, label)
        rs = root_system_of(parse_group(name))
        phi = RadialPoint.mixed(np.linspace(1.1, 0.4, rs.rank), dom.signature)
        cases.append(pytest.param(rs, domain_sublattice(winding_lattice(rs), dom), phi, time,
                                  id=f"{name} {label} eps={time.epsilon}"))
    return cases


@pytest.mark.parametrize("rs,lat,phi,time", _mpmath_cases())
def test_pathsum_terms_match_mpmath(rs, lat, phi, time):
    mpmath = pytest.importorskip("mpmath")
    t = time.effective
    points = enumerate_points(lat, phi, time.decay_scale(), 1e-14, lam=rs.lam)
    with mpmath.workdps(40):
        terms = _pathsum_terms_by_mpmath(mpmath.mp, rs, phi, points, t)
        want = complex(mpmath.fsum(terms))
    plan = kernel._path_plan(rs, phi.signature, time, 1e-14)
    got = kernel._pathsum_terms(rs, np.array([phi.values]), phi.signature, plan)[0]
    # the reference errs by about 1e-38 sum_m |term_m|: the whole bound is the code's
    bound = _pathsum_bound(rs, phi, points, t, np.array([complex(z) for z in terms]))
    assert abs(got - want) <= bound, (len(points), abs(got - want), bound)


def test_spectral_requires_damping_in_real_time():
    with pytest.raises(ConvergenceError):
        compact_spectral(
            KernelRequest(rs=A1, phi=RadialPoint.real([1.0]), time=TimeParameter.real(1.0))
        )
    value = compact_spectral(
        KernelRequest(rs=A1, phi=RadialPoint.real([1.0]), time=TimeParameter.real(1.0, epsilon=0.02))
    )
    assert np.isfinite(value.value.real)


def test_real_time_pathsum_is_flagged():
    kv = compact_pathsum(
        KernelRequest(rs=A1, phi=RadialPoint.real([1.0]), time=TimeParameter.real(1.0))
    )
    assert kv.tag is ConvergenceTag.OSCILLATORY
    assert kv.warning is not None


def test_trivial_truncation_single_term():
    req = KernelRequest(
        rs=A1, phi=RadialPoint.real([1.2]), time=TimeParameter.heat(0.7), level_cutoff=0
    )
    vg = 32.0 * np.sqrt(2.0) * np.pi**2
    assert abs(compact_spectral(req).value - 1.0 / vg) < 1e-12


def _levels_by_box(rs, t_like, tol):
    """Every dominant l with lambda_l <= cut, from a box scan in lexicographic order.

    lambda_l >= |l_i w_i|^2 / lam because fundamental weights pair
    non-negatively, which bounds each label.
    """
    cut = np.log(1.0 / (tol * 1e-6)) / t_like
    highs = np.floor(np.sqrt(rs.lam * cut) / np.linalg.norm(rs.weights, axis=1)).astype(int)
    labels = np.indices(highs + 1).reshape(rs.rank, -1).T
    nvecs = (labels + 1) @ rs.weights
    lam_l = (np.einsum("li,li->l", nvecs, nvecs) - rs.rho @ rs.rho) / rs.lam
    return labels[lam_l <= cut]


# heat times of the benchmark's compact grid per rank, A4 at tau = 1, and the
# t-like scale 10 of damped real time t = 1, epsilon = 0.1
@pytest.mark.parametrize(
    "family,rank,times",
    [
        ("A", 1, (0.25, 1.0, 10.0)),
        ("A", 2, (0.25, 1.0, 10.0)),
        ("A", 3, (1.0, 2.0, 10.0)),
        ("A", 4, (1.0, 2.0, 8.0, 10.0)),
        ("B", 2, (0.25, 1.0, 10.0)),
        ("B", 3, (1.0, 2.0, 10.0)),
        ("C", 2, (0.25, 1.0, 10.0)),
        ("C", 3, (1.0, 2.0, 10.0)),
        ("D", 3, (1.0, 2.0, 10.0)),
        ("D", 4, (2.0, 8.0, 10.0)),
    ],
)
def test_spectral_levels_match_box_scan(family, rank, times):
    rs = build_root_system(family, rank)
    for t_like in times:
        got = _spectral_levels(rs, t_like, 1e-14, None)
        assert np.array_equal(got, _levels_by_box(rs, t_like, 1e-14))


def test_spectral_levels_level_cutoff_cube():
    got = _spectral_levels(A2, 1.0, 1e-14, 2)
    assert got.tolist() == [[a, b] for a in range(3) for b in range(3)]


def test_spectral_table_too_large_is_refused():
    rs = build_root_system("A", 4)
    req = KernelRequest(
        rs=rs, phi=RadialPoint.real([0.3, 0.5, 0.7, 0.2]), time=TimeParameter.heat(0.1)
    )
    with pytest.raises(ResourceError, match="path sum"):
        compact_spectral(req)


CAP_PROBE = """
import resource, time
from liekernel import (KernelRequest, RadialPoint, ResourceError, TimeParameter, build_root_system,
                       compact_spectral, generate_weyl_group)
rs = build_root_system("A", 4)
generate_weyl_group(rs)
req = KernelRequest(rs=rs, phi=RadialPoint.real([0.3, 0.5, 0.7, 0.2]), time=TimeParameter.heat(0.1))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
try:
    compact_spectral(req)
except ResourceError:
    print(time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_spectral_table_past_the_cap_is_refused_before_its_levels_are_built():
    """A4 at heat tau=0.1 needs 1.8M levels x 120 Weyl images: the level
    search stops at its first layer past the cap, before allocating it, in
    a fresh process whose peak resident size shows what the refusal built."""
    src = pathlib.Path(kernel.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", CAP_PROBE], capture_output=True, text=True, check=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    seconds, grown_kb = proc.stdout.split()
    assert float(seconds) < 0.1 and int(grown_kb) < 20 * 1024, proc.stdout


@pytest.mark.parametrize("level_cutoff", [60, 1000000])
def test_spectral_level_cube_refused_before_it_is_built(monkeypatch, level_cutoff):
    def build(*args):
        raise AssertionError("the level cube was built")

    monkeypatch.setattr(kernel, "_spectral_levels", build)
    req = KernelRequest(rs=build_root_system("A", 4), phi=RadialPoint.real([0.1, 0.2, 0.3, 0.4]),
                        time=TimeParameter.heat(1.0), level_cutoff=level_cutoff)
    with pytest.raises(ResourceError, match="path sum"):
        compact_spectral(req)


def _direct_terms(rs, labels, phi):
    """parity(w) exp(i v.phi) prod_beta i beta.v per level (rows) and Weyl
    element, v = w(l + rho): one exp per term, and the wall factors of the
    wall roots beta at phi."""
    group = generate_weyl_group(rs)
    freqs = np.einsum("kij,lj->lki", group.matrices, (np.asarray(labels) + 1) @ rs.weights)
    terms = np.exp(1j * (freqs @ phi)) * group.parities
    for beta in wall_denominator(rs, phi)[0]:
        terms = terms * (1j * (freqs @ beta))
    return terms


def _wall_point(rs, rng):
    """A point on the wall of the first simple root."""
    a, x = rs.simple_roots[0], rng.uniform(-3.0, 3.0, rs.rank)
    return x - (a @ x) / (a @ a) * a


# tau per system; the D4 and A4 tables at tau = 2 span several blocks of heads
LEVEL_SUM_TABLES = [("A", 1, 0.25), ("A", 2, 0.25), ("B", 2, 0.25), ("C", 2, 0.25), ("A", 3, 1.0),
                    ("B", 3, 1.0), ("C", 3, 1.0), ("D", 3, 1.0), ("A", 4, 2.0), ("D", 4, 2.0)]


@pytest.mark.parametrize("family,rank,tau", LEVEL_SUM_TABLES)
def test_level_sums_from_power_tables_match_direct_exponentials(family, rank, tau):
    """Level sums and characters at regular points, on a wall and at the
    identity, within 1e-13 of the sum of the terms' moduli: |W| off walls."""
    rs = build_root_system(family, rank)
    labels = _spectral_levels(rs, tau, 1e-14, None)
    split = _spectral_data(rs, tau, 1e-14, None)[2]
    rng = np.random.default_rng(rank * 31 + ord(family))
    points = [rng.uniform(-3.0, 3.0, rank) for _ in range(3)] + [_wall_point(rs, rng), np.zeros(rank)]
    for k, phi in enumerate(points):
        terms = _direct_terms(rs, labels, phi)
        (sums,), (denom,) = orbit_sums(rs, split, phi[None])
        assert (np.abs(sums - terms.sum(axis=1)) <= 1e-13 * np.abs(terms).sum(axis=1)).all()
        if k < 3:
            assert abs(denom - (2j) ** rs.p * np.prod(np.sin(rs.positive_roots @ phi / 2.0))) <= 1e-13
        for l in ([0] * rank, [1] * rank, rng.integers(0, 4, rank)):
            terms = _direct_terms(rs, [l], phi)[0]
            err = abs(character(rs, l, phi) * denom - terms.sum())
            assert err <= 1e-13 * np.abs(terms).sum()


def _left_fold_terms(rs, coords, phi):
    """exp(i v.phi) per orbit entry as the per-axis left fold
    (z_0^{c_0} z_1^{c_1}) z_2^{c_2} ..., one exp per axis and entry, times
    the wall factors prod_beta i beta.v; ``coords`` (r, ...) are the entries v
    in weight coordinates, as ``weight_orbit`` gives them."""
    x = rs.weights @ phi
    out = np.exp(1j * (x[0] * coords[0]))
    for xj, c in zip(x[1:], coords[1:]):
        out = out * np.exp(1j * (xj * c))
    flat = coords.reshape(len(coords), -1)
    for wall in 1j * (rs.weights @ wall_denominator(rs, phi)[0].T).T:
        out = out * (wall @ flat).reshape(coords.shape[1:])
    return out


# A2 at tau = 1, A4 at tau = 2 and 8, D4 at tau = 8
FOLD_CASES = [("A", 2, 1.0), ("A", 4, 2.0), ("A", 4, 8.0), ("D", 4, 8.0)]


@pytest.mark.parametrize("family,rank,tau", FOLD_CASES)
def test_folded_level_sums_equal_per_axis_left_fold(family, rank, tau):
    """Level sums at a regular point, on a wall and at the identity within
    1e-13 of the sum of the terms' moduli: |W| off walls."""
    rs = build_root_system(family, rank)
    group = generate_weyl_group(rs)
    coords = weight_orbit(group, _spectral_levels(rs, tau, 1e-14, None) + 1)
    split = _spectral_data(rs, tau, 1e-14, None)[2]
    rng = np.random.default_rng(rank * 7 + int(tau))
    for phi in (rng.uniform(-3.0, 3.0, rank), _wall_point(rs, rng), np.zeros(rank)):
        terms = _left_fold_terms(rs, coords, phi) * group.parities
        sums = orbit_sums(rs, split, phi[None])[0][0]
        assert (np.abs(sums - terms.sum(axis=1)) <= 1e-13 * np.abs(terms).sum(axis=1)).all()


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 4), ("D", 4)])
def test_character_equals_per_axis_left_fold(family, rank):
    rs = build_root_system(family, rank)
    group = generate_weyl_group(rs)
    rng = np.random.default_rng(rank * 11 + ord(family))
    for l in ([0] * rank, [1] * rank, rng.integers(0, 4, rank)):
        coords = weight_orbit(group, np.asarray(l) + 1)
        for phi in (rng.uniform(-3.0, 3.0, rank), _wall_point(rs, rng), np.zeros(rank)):
            denom = (2j) ** rs.p * wall_denominator(rs, phi)[1]
            terms = _left_fold_terms(rs, coords, phi) * group.parities
            assert abs(character(rs, l, phi) * denom - terms.sum()) <= 1e-13 * np.abs(terms).sum()


@pytest.mark.parametrize("family,rank,tau,cutoff", [("A", 2, 1.0, 300), ("D", 4, 2.0, None)])
def test_matrix_product_equals_explicit_terms_off_walls(family, rank, tau, cutoff):
    rs = build_root_system(family, rank)
    order = generate_weyl_group(rs).order
    split = _spectral_data(rs, tau, 1e-14, cutoff)[2]
    _, _, _, heads, head, tails, tail, (a, b), signs = split
    if cutoff is not None:
        # the product walks several blocks of heads
        assert len(heads) * len(tails) > 2 * weyl._BLOCK
    phi = np.random.default_rng(rank).uniform(-3.0, 3.0, rank)
    (head_table,), (tail_table,) = weyl._coset_tables(rs, split, phi[None])
    tail_table = tail_table.T
    # one term per level and Weyl element w, at w's two cosets
    explicit = sum(signs[a[k], b[k]] * head_table[head, a[k]] * tail_table[tail, b[k]] for k in range(order))
    assert np.abs(orbit_sums(rs, split, phi[None])[0][0] - explicit).max() <= 1e-13 * order


# the ten compact systems and four larger ones, on level_cutoff tables
COSET_SYSTEMS = sorted(checks.SYSTEMS) + [("A", 5), ("B", 4), ("C", 4), ("D", 5)]


def _parabolic(rs, simple):
    """The rounded matrices of the subgroup generated by the reflections of
    the simple roots ``simple``, in sorted order."""
    gens = [weyl.reflection_matrix(rs.simple_roots[k]) for k in simple]
    mats = weyl._close_group(gens, [np.eye(rs.rank)], "a parabolic subgroup", rs.weights).matrices if gens else [np.eye(rs.rank)]
    return sorted(tuple(np.round(m, 9).ravel()) for m in mats)


@pytest.mark.parametrize("family,rank", COSET_SYSTEMS)
def test_coset_signs_hold_each_parity_once(family, rank):
    """C has |W| nonzeros, the parity of the one w in both cosets, and the
    identity's cosets are the parabolic subgroups W_T = <s_k : k >= h> and
    W_H = <s_k : k < h>."""
    rs = build_root_system(family, rank)
    group = generate_weyl_group(rs)
    *_, (a, b), signs = _spectral_data(rs, 1.0, 1e-14, 1)[2]
    assert np.count_nonzero(signs) == group.order
    assert (signs[a, b] == group.parities).all()
    identity = np.flatnonzero(np.abs(group.matrices - np.eye(rank)).max(axis=(1, 2)) < 1e-12)
    half = rank // 2
    for coset, simple in ((a, range(half, rank)), (b, range(half))):
        members = sorted(tuple(np.round(m, 9).ravel()) for m in group.matrices[coset == coset[identity]])
        assert members == _parabolic(rs, simple)
        assert (np.bincount(coset) == len(members)).all()


@pytest.mark.parametrize("family,rank", COSET_SYSTEMS)
def test_coset_sums_match_direct_exponentials(family, rank):
    """Level sums at regular points, on a wall, at the identity and at
    complex points within 1e-13 of the sum of the terms' moduli."""
    rs = build_root_system(family, rank)
    labels = _spectral_levels(rs, 1.0, 1e-14, 2)
    split = _spectral_data(rs, 1.0, 1e-14, 2)[2]
    rng = np.random.default_rng(rank * 13 + ord(family))
    points = [rng.uniform(-3.0, 3.0, rank), _wall_point(rs, rng), np.zeros(rank),
              rng.uniform(-3.0, 3.0, rank) + 1j * rng.uniform(-0.3, 0.3, rank)]
    for phi in points:
        terms = _direct_terms(rs, labels, phi)
        sums = orbit_sums(rs, split, phi[None])[0][0]
        assert (np.abs(sums - terms.sum(axis=1)) <= 1e-13 * np.abs(terms).sum(axis=1)).all()


@pytest.mark.parametrize("family,rank", COSET_SYSTEMS)
def test_character_at_complex_points_matches_its_numerator(family, rank):
    """chi_l(phi) at complex phi against the signed orbit sum of
    exp(i w(l + rho).phi) over (2i)^p prod_alpha sin(alpha.phi/2)."""
    rs = build_root_system(family, rank)
    rng = np.random.default_rng(rank * 17 + ord(family))
    phi = rng.uniform(-3.0, 3.0, rank) + 1j * rng.uniform(-0.3, 0.3, rank)
    denom = (2j) ** rs.p * np.prod(np.sin(rs.positive_roots @ phi / 2.0))
    for l in ([0] * rank, [1] * rank, rng.integers(0, 4, rank)):
        terms = _direct_terms(rs, [l], phi)[0]
        assert abs(character(rs, l, phi) - terms.sum() / denom) <= 1e-13 * np.abs(terms).sum() / abs(denom)


@pytest.mark.parametrize("family,rank", [("D", 4), ("A", 4)])
def test_coset_product_does_a_third_of_the_per_element_work(family, rank):
    """The cached tables at tau = 2 take heads x |W/W_T| x |W/W_H| plus
    heads x |W/W_H| x tails multiply-adds per point, at most a third of
    heads x tails x |W| over the Weyl elements themselves."""
    rs = build_root_system(family, rank)
    _, _, _, heads, _, tails, _, _, signs = _spectral_data(rs, 2.0, 1e-14, None)[2]
    per_element = len(heads) * len(tails) * generate_weyl_group(rs).order
    assert len(heads) * signs.size + len(heads) * len(signs.T) * len(tails) <= per_element / 3


def test_orbit_coordinates_beyond_int16_do_not_wrap():
    split = _spectral_data(A1, 1.0, 1e-14, 40000)[2]
    assert split[0].max() == 40001 > np.iinfo(np.int16).max
    phi = np.array([0.37])
    (sums,), _ = orbit_sums(A1, split, phi[None])
    labels = _spectral_levels(A1, 1.0, 1e-14, 40000)
    # phases reach 4e4 rad, where each exponent carries ~1e-11 of rounding
    assert np.abs(sums - _direct_terms(A1, labels, phi).sum(axis=1)).max() <= 1e-10


def test_spectral_cache_keeps_orbit_entries_under_cap(monkeypatch):
    _spectral_data.cache_clear()
    monkeypatch.setattr(kernel, "_ORBIT_CAP", len(_spectral_levels(A2, 0.25, 1e-14, None)) * 6)
    first = _spectral_data(A2, 0.25, 1e-14, None)
    assert _spectral_data(A2, 0.25, 1e-14, None) is first
    # past the cap the table is refused, and the refusal is not cached
    for _ in range(2):
        with pytest.raises(ResourceError, match="path sum"):
            _spectral_data(A2, 0.1, 1e-14, None)
    assert _spectral_data(A2, 0.25, 1e-14, None) is first
    assert _spectral_data.cache_info().maxsize >= 30


# ---------------------------------------------------------------------------
# rank-1 closed forms
# ---------------------------------------------------------------------------


def test_su2_resolvent_pole_error_and_domain():
    with pytest.raises(PoleError) as err:
        su2_resolvent(1.0, (3**2 - 1) / 8.0)
    assert err.value.index == 3
    with pytest.raises(ArgumentError):
        su2_resolvent(-0.1, 0.3 + 0.1j)
    assert np.isfinite(su2_resolvent(1.0, 0.25 + 1e-3j).real)


def test_su2_resolvent_residues_match_spectral_coefficients():
    """Contour-integral residues against the spectral weights (independent
    oracle; the causal contour closes clockwise, hence the minus sign)."""
    phi = 1.1
    for n in (1, 2, 3, 4):
        lam_n = (n**2 - 1) / 8.0
        r = 0.003
        zs = lam_n + r * np.exp(2j * np.pi * np.arange(256) / 256)
        vals = np.array([su2_resolvent(phi, z) for z in zs])
        residue = (vals * (zs - lam_n)).mean()
        c_n = n * np.sin(n * phi / 2.0) / np.sin(phi / 2.0) / (32.0 * np.sqrt(2.0) * np.pi**2)
        assert abs(residue + c_n) < 1e-6 * abs(c_n)


def test_su2_resolvent_solves_radial_helmholtz():
    # (Delta_T + lam) G = 0 away from the source point
    lam = 0.37 + 0.0j
    h = 1e-4
    for phi in (1.0, 2.4, 4.4):
        w = lambda x: np.sin(x / 2.0)
        wg = lambda x: w(x) * su2_resolvent(x, lam)
        second = (wg(phi + h) - 2.0 * wg(phi) + wg(phi - h)) / h**2
        value = 0.5 * (second / w(phi) + 0.25 * su2_resolvent(phi, lam)) + lam * su2_resolvent(phi, lam)
        assert abs(value) < 1e-6 * max(1.0, abs(su2_resolvent(phi, lam)))


def test_su11_resolvent_d0_values_and_branches():
    theta = 1.4
    lam = 0.3  # 1/4 + 2 lam > 0: exponential decay
    g = su11_resolvent_d0(theta, lam)
    assert abs(g - np.exp(-np.sqrt(0.25 + 2 * lam) * theta) / (8 * np.sqrt(2) * np.pi * np.sinh(theta / 2))) < 1e-15
    big = su11_resolvent_d0(8.0, lam)
    assert abs(big) < abs(g)
    # below the branch point the boundary value oscillates, constant modulus in theta
    lam2 = -0.6
    g1, g2 = su11_resolvent_d0(1.0, lam2), su11_resolvent_d0(2.0, lam2)
    assert abs(abs(g1) * np.sinh(0.5) - abs(g2) * np.sinh(1.0)) < 1e-12
    with pytest.raises(BranchPointError):
        su11_resolvent_d0(1.0, -1.0 / 8.0)
    with pytest.raises(ArgumentError):
        su11_resolvent_d0(-1.0, 0.3)
    # theta -> 0+ divergence from the sinh factor
    assert abs(su11_resolvent_d0(1e-6, 0.3)) > 1e4


def test_su11_d0_laplace_transform_oracle():
    """Numerical Laplace transform of the open-domain kernel along a rotated
    ray reproduces the resolvent (overall sign from the causal contour
    orientation; verified to coincide exactly in modulus and phase)."""
    theta, lam, beta = 1.2, 0.45 + 0.40j, np.pi / 4.0
    rot = np.exp(1j * beta)

    def kernel_t(t):
        return (
            np.exp(-1.5 * np.log(4j * np.pi * t))
            * theta
            / (2.0 * np.sinh(theta / 2.0))
            * np.exp(-1j * theta**2 / (2.0 * t) + 1j * t / 8.0)
        )

    integrand = lambda s: kernel_t(rot * s) * np.exp(1j * lam * rot * s) * rot
    re = quad(lambda s: integrand(s).real, 0.0, 60.0, limit=400)[0]
    im = quad(lambda s: integrand(s).imag, 0.0, 60.0, limit=400)[0]
    assert abs((re + 1j * im) + su11_resolvent_d0(theta, lam)) < 1e-4


# ---------------------------------------------------------------------------
# non-compact engine
# ---------------------------------------------------------------------------


def test_d1_kernel_identical_to_compact():
    times = (TimeParameter.heat(0.4), TimeParameter.real(0.8), TimeParameter.real(1.3, 0.01))
    # absolute, so at least as tight as 1e-12 * max(1, |K|)
    assert checks.d1_identity((0.5, 2.0, 4.4), times) < 1e-12


ALL_REAL_DOMAINS = [(name, d.label) for name in ("SU(1,1)", *checks.CATALOGUED_DOMAIN_COUNTS)
                    for d in enumerate_domains(parse_group(name)) if "I" not in d.signature]


def _outcome(route, req):
    """A route's value bits, tag and warning, or the type of error it raised."""
    try:
        kv = route(req)
    except ConvergenceError as exc:
        return type(exc)
    return np.complex128(kv.value).tobytes(), kv.tag, kv.warning


@pytest.mark.parametrize("name,label", ALL_REAL_DOMAINS)
def test_all_real_domain_is_the_compact_group(name, label):
    dom = _domain(name, label)
    rs = root_system_of(dom.family)
    rng = np.random.default_rng(len(name) * 17 + rs.rank)
    times = (TimeParameter.heat(1.0), TimeParameter.real(1.0, 0.1), TimeParameter.real(1.0))
    for _ in range(2):
        phi = RadialPoint.real(rng.uniform(0.1, 2.0, rs.rank))
        for time in times:
            compact = KernelRequest(rs=rs, phi=phi, time=time)
            on_domain = KernelRequest(rs=rs, phi=phi, time=time, domain=dom)
            want = _outcome(compact_pathsum, compact)
            assert _outcome(compact_pathsum, on_domain) == want
            assert _outcome(noncompact_pathsum, on_domain) == want
            assert _outcome(compact_spectral, on_domain) == _outcome(compact_spectral, compact)


def test_d0_kernel_matches_closed_form():
    # absolute; |K| stays below 0.07 here, so this is 1e-10 * max(1, |K|)
    assert checks.d0_closed_form(np.linspace(0.1, 3.0, 12), [TimeParameter.real(t) for t in (0.5, 1.0)]) < 1e-10


def test_noncompact_heat_mode_growing_tag():
    d0 = _domain("SU(1,1)", "D0")
    kv = noncompact_pathsum(
        KernelRequest(rs=A1, phi=RadialPoint.mixed([1.0], "I"), time=TimeParameter.heat(0.5), domain=d0)
    )
    assert kv.tag is ConvergenceTag.GROWING
    assert kv.warning is not None
    kv2 = noncompact_pathsum(
        KernelRequest(rs=A1, phi=RadialPoint.mixed([1.0], "I"), time=TimeParameter.real(0.5), domain=d0)
    )
    assert kv2.tag is ConvergenceTag.OSCILLATORY


def test_noncompact_signature_mismatch():
    d0 = _domain("SU(1,1)", "D0")
    with pytest.raises(ArgumentError):
        KernelRequest(rs=A1, phi=RadialPoint.real([1.0]), time=TimeParameter.real(1.0), domain=d0)
    with pytest.raises(ArgumentError):
        KernelRequest(rs=A1, phi=RadialPoint.mixed([1.0], "I"), time=TimeParameter.real(1.0))


def test_noncompact_su21_d1_periodicity():
    fam = parse_group("SU(2,1)")
    d1 = next(d for d in enumerate_domains(fam) if d.label == "D1")
    rs = A2
    tp = TimeParameter.real(0.9)
    base_pt = RadialPoint.mixed([0.8, 0.9], d1.signature)
    base = noncompact_pathsum(KernelRequest(rs=rs, phi=base_pt, time=tp, domain=d1)).value
    # shift along the surviving sublattice direction (2 sqrt3 y-hat)
    shifted_pt = RadialPoint.mixed([0.8, 0.9 + 2 * np.pi * 2 * np.sqrt(3.0)], d1.signature)
    shifted = noncompact_pathsum(KernelRequest(rs=rs, phi=shifted_pt, time=tp, domain=d1)).value
    assert abs(base - shifted) < 1e-9 * max(1.0, abs(base))
    # a full-lattice translation off the sublattice is NOT a symmetry here
    off_pt = RadialPoint.mixed([0.8 + 2 * np.pi * 2.0, 0.9], d1.signature)
    off = noncompact_pathsum(KernelRequest(rs=rs, phi=off_pt, time=tp, domain=d1)).value
    assert abs(base - off) > 1e-6 * max(1.0, abs(base))


def test_flat_space_bracket_limit():
    # each van Vleck factor alpha.phi / (2 sin(alpha.phi/2)) tends to 1
    for rs in (A1, A2, build_root_system("C", 3)):
        phi = 1e-4 * rs.rho
        bracket = np.prod((rs.positive_roots @ phi) / (2.0 * np.sin(rs.positive_roots @ phi / 2.0)))
        assert abs(bracket - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# rank-1 measure, convolution, semigroup
# ---------------------------------------------------------------------------


def _heat_samples(tau, npts=201):
    grid = np.linspace(0.0, 2.0 * np.pi, npts)
    out = np.empty(npts, dtype=complex)
    for i, x in enumerate(grid):
        req = KernelRequest(rs=A1, phi=RadialPoint.real([x]), time=TimeParameter.heat(tau))
        out[i] = compact_pathsum(req).value
    return out


def test_convolution_with_constant_projects():
    tau = 0.4
    f = _heat_samples(tau, npts=121)
    vg = 32.0 * np.sqrt(2.0) * np.pi**2
    g = np.full(121, 1.0 / vg, dtype=complex)
    out = radial_convolve(A1, f, g)
    # integral of the heat kernel is 1, so the output is the constant 1/V_G
    assert np.abs(out - 1.0 / vg).max() < 1e-6


def test_convolution_delta_approximant_returns_g():
    # the tau=1e-3 spike has width ~0.03 and needs a grid that resolves it
    n = 1001
    g = np.cos(np.linspace(0.0, 2.0 * np.pi, n)) + 0.3
    delta = _heat_samples(1e-3, npts=n)
    out = radial_convolve(A1, delta.astype(complex), g.astype(complex))
    interior = slice(40, n - 40)
    assert np.abs(out[interior] - g[interior]).max() < 5e-3


def _radial_convolve_by_loop(rs, f_samples, g_samples, gauss_order=48):
    """Reference convolution: one grid point x at a time."""
    from scipy.integrate import simpson
    from scipy.interpolate import CubicSpline
    from scipy.special import roots_legendre

    npts = len(f_samples)
    grid = np.linspace(0.0, 2.0 * np.pi, npts)
    vgt = kernel.coset_volume(rs)
    measure = rs.lam ** 0.5 * 2.0 ** (rs.n - rs.rank) * np.sin(grid / 2.0) ** 2
    nodes, wts = roots_legendre(gauss_order)
    spline = CubicSpline(grid, g_samples)
    cos_half = np.cos(grid / 2.0)
    sin_half = np.sin(grid / 2.0)
    out = np.empty(npts, dtype=np.result_type(f_samples, g_samples, np.float64))
    for i, x in enumerate(grid):
        cx, sx = np.cos(x / 2.0), np.sin(x / 2.0)
        arg = cx * cos_half[:, None] + sx * sin_half[:, None] * nodes[None, :]
        c = 2.0 * np.arccos(np.clip(arg, -1.0, 1.0))
        inner = (spline(c) * wts[None, :]).sum(axis=1) * (vgt / 2.0)
        out[i] = simpson(f_samples * measure * inner, x=grid)
    return out


@pytest.mark.parametrize("npts,gauss_order", [(64, 48), (201, 48), (201, 16)])
def test_convolution_matches_per_point_loop(npts, gauss_order):
    grid = np.linspace(0.0, 2.0 * np.pi, npts)
    f = _heat_samples(0.3, npts)
    for g in (np.cos(grid) + 0.3, _heat_samples(0.5, npts)):
        got = radial_convolve(A1, f, g, gauss_order=gauss_order)
        want = _radial_convolve_by_loop(A1, f, g, gauss_order=gauss_order)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    real = radial_convolve(A1, f.real, grid, gauss_order=gauss_order)
    assert real.tobytes() == _radial_convolve_by_loop(A1, f.real, grid, gauss_order=gauss_order).tobytes()


def test_convolution_semigroup():
    n = 201
    k1 = _heat_samples(0.3, n)
    k2 = _heat_samples(0.5, n)
    k12 = _heat_samples(0.8, n)
    out = radial_convolve(A1, k1, k2)
    assert np.abs(out - k12).max() < 1e-4


def test_convolution_rank_restriction():
    with pytest.raises(UnsupportedOperationError):
        radial_convolve(A2, np.ones(32), np.ones(32))


def _grid_cases():
    """(rs, domain, values, times, skipped points): on each compact system a line of 0..4 pi
    along the first axis, which spans several window centres and crosses
    walls, and the identity; SU(2) through both of its walls; the domains
    SU(2,1) D1 and Sp(6,R) D1, the latter with the wall point (0.7, 0.7, 0)
    of a wall orthogonal to its real axis."""
    cases = []
    for family, rank in sorted(checks.SYSTEMS):
        rs = build_root_system(family, rank)
        values = np.repeat(np.random.default_rng(rank * 19 + ord(family)).uniform(0.1, 0.9, rank)[None], 41, axis=0)
        values[:, 0] = np.linspace(0.0, 4.0 * np.pi, 41)
        cases.append(pytest.param(rs, None, np.vstack([values, np.zeros(rank)]),
                                  (TimeParameter.heat(0.5), TimeParameter.real(1.0, 0.1)), 0, id=f"{family}{rank}"))
    cases.append(pytest.param(A1, None, np.linspace(0.0, 2.0 * np.pi, 3)[:, None], (TimeParameter.heat(0.5),), 0,
                              id="SU(2) walls"))
    for name, wall in (("SU(2,1)", None), ("Sp(6,R)", (0.7, 0.7, 0.0))):
        rs = root_system_of(parse_group(name))
        values = np.repeat(np.linspace(0.3, 0.9, rs.rank)[None], 30, axis=0)
        values[:, 0] = np.linspace(0.1, 1.5, 30)
        cases.append(pytest.param(rs, _domain(name, "D1"), values if wall is None else np.vstack([values, wall]),
                                  (TimeParameter.real(1.0), TimeParameter.real(1.0, 0.05)), 0 if wall is None else 2,
                                  id=f"{name} D1"))
    return cases


@pytest.mark.parametrize("rs,dom,values,times,skips", _grid_cases())
def test_grid_values_equal_per_point_values(rs, dom, values, times, skips):
    """A grid's values, each route taking every point in one call, within
    1e-14 of each point's own call, tags and warnings equal; a wall point
    with no limit along the real axes is the same SingularPointError."""
    signature = dom.signature if dom else ("R",) * rs.rank
    if dom is None and rs.rank > 1:
        window = kernel._path_plan(rs, signature, times[0], 1e-14)["window"]
        assert len(lattice._window_blocks(winding_lattice(rs), values, window, kernel._BLOCK)) > 1
    routes = [(kernel.pathsum_grid, noncompact_pathsum if dom else compact_pathsum)]
    if dom is None:
        routes.append((kernel.spectral_grid, compact_spectral))
    skipped = 0
    for time in times:
        req = KernelRequest(rs=rs, phi=RadialPoint(tuple(values[0]), signature), time=time, domain=dom)
        for grid_route, point_route in routes:
            for v, got in zip(values, grid_route(req, values)):
                one = KernelRequest(rs=rs, phi=RadialPoint(tuple(v), signature), time=time, domain=dom)
                if isinstance(got, SingularPointError):
                    skipped += 1
                    with pytest.raises(SingularPointError):
                        point_route(one)
                    continue
                want = point_route(one)
                assert abs(got.value - want.value) <= 1e-14 * abs(want.value), (v, time)
                assert (got.tag, got.warning) == (want.tag, want.warning)
    assert skipped == skips


@pytest.mark.parametrize("route,tau", [("pathsum_grid", 20.0), ("spectral_grid", 0.5)])
def test_grid_temporaries_stay_within_blocks(monkeypatch, route, tau):
    """A 20,000-point grid walks its points in blocks: the memory traced
    while a route runs stays within 16 B x 64 x _BLOCK entries, room for a
    few temporaries of rank or coset factor x _BLOCK entries, plus 200 B
    for each point's value.  A whole-grid pass on these windows and levels
    would trace 38 MB and 637 MB."""
    import tracemalloc

    block = 2**12
    monkeypatch.setattr(kernel, "_BLOCK", block)
    monkeypatch.setattr(weyl, "_BLOCK", block)
    values = np.column_stack([np.linspace(0.2, 2.2, 20000), np.full(20000, 0.5)])
    req = KernelRequest(rs=build_root_system("A", 2), phi=RadialPoint.real(values[0]), time=TimeParameter.heat(tau))
    evaluate = getattr(kernel, route)
    evaluate(req, values[:10])  # tables and windows built outside the trace
    tracemalloc.start()
    try:
        result = evaluate(req, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result) == len(values)
    assert peak <= 16 * 64 * block + 200 * len(values), peak
