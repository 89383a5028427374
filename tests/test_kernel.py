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
from liekernel import checks, kernel
from liekernel.domains import enumerate_domains, root_system_of
from liekernel.kernel import _level_sums, _spectral_data, _spectral_levels

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


def test_wall_rejection_and_limit():
    tp = TimeParameter.heat(0.5)
    with pytest.raises(SingularPointError):
        compact_pathsum(KernelRequest(rs=A1, phi=RadialPoint.real([0.0]), time=tp))
    req = KernelRequest(rs=A1, phi=RadialPoint.real([0.0]), time=tp, wall_limit=True)
    limit = compact_pathsum(req).value
    nearby = compact_pathsum(
        KernelRequest(rs=A1, phi=RadialPoint.real([1e-3]), time=tp)
    ).value
    assert abs(limit - nearby) < 1e-4 * abs(limit)
    # identity value equals the coincidence-limit heat trace density at phi=0
    assert checks.dual_series(A1, [[0.0]], (0.5,), wall_limit=True) < 1e-7


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


def _pathsum_terms_by_prod(rs, phi, points, t, wall_limit):
    """Reference van Vleck sum: the numerator product as one np.prod."""
    cv = phi.complex_vector()
    direction = np.where(np.array(phi.signature) == "R", rs.rho, 0.0)
    roots, w = kernel.wall_denominator(rs, cv, wall_limit, direction)
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
    return complex((nums / denom) @ phases)


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


def test_pathsum_terms_match_prod_reference():
    for rs, lat, phi, times in _pathsum_cases():
        for time in times:
            t = time.effective
            points = enumerate_points(lat, phi, time.decay_scale(), 1e-14, lam=rs.lam)
            for limit in (False, True):
                try:
                    want = _pathsum_terms_by_prod(rs, phi, points, t, limit)
                except SingularPointError:
                    with pytest.raises(SingularPointError):
                        kernel._pathsum_terms(rs, phi, points, t, limit)
                    continue
                got = kernel._pathsum_terms(rs, phi, points, t, limit)
                assert np.array(got).tobytes() == np.array(want).tobytes(), (rs.name, phi, time, limit)


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


def _direct_level_sums(rs, labels, phi):
    """sum_w parity(w) exp(i w(l + rho).phi) per level, one exp per term."""
    group = generate_weyl_group(rs)
    freqs = np.einsum("kij,lj->lki", group.matrices, (labels + 1) @ rs.weights)
    return np.exp(1j * (freqs @ phi)) @ group.parities


# tau per system; the D4 and A4 tables at tau = 2 span several blocks
LEVEL_SUM_TABLES = [("A", 1, 0.25), ("A", 2, 0.25), ("B", 2, 0.25), ("C", 2, 0.25), ("A", 3, 1.0),
                    ("B", 3, 1.0), ("C", 3, 1.0), ("D", 3, 1.0), ("A", 4, 2.0), ("D", 4, 2.0)]


@pytest.mark.parametrize("family,rank,tau", LEVEL_SUM_TABLES)
def test_level_sums_from_power_tables_match_direct_exponentials(family, rank, tau):
    rs = build_root_system(family, rank)
    order = generate_weyl_group(rs).order
    labels = _spectral_levels(rs, tau, 1e-14, None)
    orbit = _spectral_data(rs, tau, 1e-14, None)[2]
    if (family, rank) == ("D", 4):
        assert orbit[0][0].size > 8 * kernel._BLOCK
    rng = np.random.default_rng(rank * 31 + ord(family))
    for _ in range(3):
        phi = rng.uniform(-3.0, 3.0, rank)
        sums, denom = _level_sums(rs, orbit, phi, False)
        assert np.abs(sums - _direct_level_sums(rs, labels, phi)).max() <= 1e-13 * order
        assert abs(denom - (2j) ** rs.p * np.prod(np.sin(rs.positive_roots @ phi / 2.0))) <= 1e-13


def test_orbit_coordinates_beyond_int16_do_not_wrap():
    orbit = _spectral_data(A1, 1.0, 1e-14, 40000)[2]
    coords, _, reach = orbit
    assert reach > np.iinfo(np.int16).max and coords.dtype.itemsize > 2
    assert np.abs(coords).max() == 40001
    phi = np.array([0.37])
    sums, _ = _level_sums(A1, orbit, phi, False)
    labels = _spectral_levels(A1, 1.0, 1e-14, 40000)
    # phases reach 4e4 rad, where each exponent carries ~1e-11 of rounding
    assert np.abs(sums - _direct_level_sums(A1, labels, phi)).max() <= 1e-10


def test_spectral_cache_keeps_orbit_entries_under_cap(monkeypatch):
    monkeypatch.setattr(kernel, "_spectral_cache", {})
    sizes = {tau: len(_spectral_levels(A2, tau, 1e-14, None)) * 6 for tau in (0.25, 0.5, 1.0)}
    cap = sizes[0.25] + sizes[0.5]
    monkeypatch.setattr(kernel, "_ORBIT_CAP", cap)

    def resident():
        taus = [key[1] for key in kernel._spectral_cache]
        entries = sum(orbit[0][0].size for _, _, orbit, _ in kernel._spectral_cache.values())
        assert entries <= cap
        return taus

    for tau in (0.25, 0.5):
        _spectral_data(A2, tau, 1e-14, None)
    assert resident() == [0.25, 0.5]
    third = _spectral_data(A2, 1.0, 1e-14, None)
    assert resident() == [0.5, 1.0]  # the oldest table made room
    assert _spectral_data(A2, 1.0, 1e-14, None) is third
    _spectral_data(A2, 0.25, 1e-14, None)
    assert resident() == [1.0, 0.25]
    with pytest.raises(ResourceError):
        _spectral_data(A2, 0.1, 1e-14, None)
    assert resident() == [1.0, 0.25]


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
        req = KernelRequest(
            rs=A1, phi=RadialPoint.real([x]), time=TimeParameter.heat(tau), wall_limit=True
        )
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
