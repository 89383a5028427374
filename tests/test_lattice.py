import numpy as np
import pytest

from liekernel import (
    ArgumentError,
    RadialPoint,
    ResourceError,
    build_root_system,
    canonicalize,
    checks,
    domain_sublattice,
    enumerate_points,
    generate_weyl_group,
    winding_lattice,
)
from liekernel.lattice import (
    _WINDOW_CACHE_SIZE,
    _axis_table,
    _coeffs_of,
    _ellipsoid_points,
    _signature_preserving,
    _window_offsets,
    reduce_lexmax,
)

RNG = np.random.default_rng(31)

S2 = np.sqrt(2.0)
S3 = np.sqrt(3.0)


def _lattice_equal(gens_a, gens_b):
    """Same integer span: mutual integer unimodular change of basis."""
    a, b = np.atleast_2d(gens_a), np.atleast_2d(gens_b)
    if a.shape != b.shape:
        return False
    if a.shape[0] == 0:
        return True
    x = np.linalg.lstsq(a.T, b.T, rcond=None)[0].T
    if not np.allclose(x @ a, b, atol=1e-9):
        return False
    xi = np.round(x)
    return np.allclose(x, xi, atol=1e-9) and abs(abs(np.linalg.det(xi)) - 1.0) < 1e-9


def test_full_lattice_matches_reference_vectors():
    # coroot combinations reproduce the catalogued winding vectors
    a2 = winding_lattice(build_root_system("A", 2))
    m = np.array([1, 1]) @ a2.generators  # m1=1, m2=1 -> (2*1-1, sqrt3*1)
    assert np.allclose(m, [1.0, S3])
    b2 = winding_lattice(build_root_system("B", 2))
    m = np.array([1, 1]) @ b2.generators  # -> (m1, 2 m2 - m1)
    assert np.allclose(m, [1.0, 1.0])
    c3 = winding_lattice(build_root_system("C", 3))
    m = np.array([1, 1, 1]) @ c3.generators  # -> (2m1-m2, m2, sqrt2(m3-m2))
    assert np.allclose(m, [1.0, 1.0, 0.0])
    a1 = winding_lattice(build_root_system("A", 1))
    assert np.allclose(a1.generators, [[2.0]])  # phi period 4 pi


@pytest.mark.parametrize(
    "family,rank,signature,expected",
    [
        ("A", 2, "IR", [[0.0, 2 * S3]]),
        ("A", 2, "RI", [[2.0, 0.0]]),
        ("A", 2, "II", []),
        ("B", 2, "RI", [[2.0, 0.0]]),
        ("A", 3, "IRR", [[0.0, 2 * S2, -2.0], [0.0, 0.0, 2.0]]),
        ("A", 3, "IRI", [[0.0, 2 * S2, 0.0]]),
        ("A", 3, "RIR", [[2.0, 0.0, 0.0], [0.0, 0.0, 2.0]]),
        ("A", 3, "IIR", [[0.0, 0.0, 2.0]]),
        ("C", 3, "IRR", [[0.0, 2.0, -2 * S2], [0.0, 0.0, S2]]),
        ("C", 3, "RRI", [[2.0, 0.0, 0.0], [-1.0, 1.0, 0.0]]),
        ("C", 3, "IIR", [[0.0, 0.0, S2]]),
        ("C", 3, "III", []),
    ],
)
def test_domain_sublattices(family, rank, signature, expected):
    lat = winding_lattice(build_root_system(family, rank))
    sub = domain_sublattice(lat, tuple(signature))
    expected = np.array(expected).reshape(-1, rank)
    assert sub.generators.shape == expected.shape
    if len(expected):
        assert np.abs(sub.generators - expected).max() < 1e-12
        assert _lattice_equal(sub.generators, expected)


def test_sublattice_vanishes_on_imaginary_axes_exactly():
    cases = [(build_root_system(family, rank), signature)
             for family, rank, signature in [("A", 2, "IR"), ("A", 3, "IRI"), ("C", 3, "RRI")]]
    assert checks.sublattice_purity(cases) == 0.0


def test_winding_generators_preserve_eigenvalue_sets():
    """Guard on the per-family winding rows: translating by any generator
    leaves every defining-representation eigenvalue set invariant."""
    from liekernel.domains import _system, parse_group

    for name in ("SU(3)", "SO(5)", "SU(4)", "USp(6)", "SO(6)"):
        sys = _system(parse_group(name))
        lat = winding_lattice(sys.rs)
        for gen in lat.generators:
            pairings = sys.weights @ gen
            assert np.abs(pairings - np.round(pairings)).max() < 1e-9


def test_sublattice_rank_mismatch():
    lat = winding_lattice(build_root_system("A", 2))
    with pytest.raises(ArgumentError):
        domain_sublattice(lat, ("R",))


@pytest.mark.parametrize("signature", [("X", "R"), "RX", ("i", "r"), ("R", 1)])
def test_sublattice_rejects_unknown_signature_entries(signature):
    lat = winding_lattice(build_root_system("A", 2))
    with pytest.raises(ArgumentError, match="'R' or 'I'"):
        domain_sublattice(lat, signature)


def test_enumerate_points_trivial_lattice():
    lat = winding_lattice(build_root_system("A", 2))
    sub = domain_sublattice(lat, ("I", "I"))
    pts = enumerate_points(sub, RadialPoint.mixed([0.5, 0.5], "II"), 0.3, 1e-14)
    assert pts.shape == (1, 2)
    assert np.abs(pts).max() == 0.0


def test_enumerate_points_a1_window():
    rs = build_root_system("A", 1)
    lat = winding_lattice(rs)
    for phi in np.linspace(0.5, 2 * np.pi - 0.5, 9):
        pts = enumerate_points(lat, RadialPoint.real([phi]), 0.1, 1e-16, lam=rs.lam)
        vals = sorted(float(p[0]) for p in pts)
        assert 0.0 in vals
        assert set(vals) <= {-2.0, 0.0, 2.0}  # phi shifts of 0, +-4 pi suffice


def test_enumerate_points_monotone_in_tol():
    rs = build_root_system("A", 2)
    lat = winding_lattice(rs)
    phi = RadialPoint.real([0.8, 0.55])
    sizes = [
        len(enumerate_points(lat, phi, 2.0, tol, lam=rs.lam)) for tol in (1e-20, 1e-12, 1e-6, 1e-2)
    ]
    assert sizes == sorted(sizes, reverse=True)


def _coordinates(lat, pts):
    """Integer coordinates of lattice points over the basis of ``lat``."""
    coords = np.linalg.lstsq(lat.generators.T, pts.T, rcond=None)[0].T
    rounded = np.round(coords)
    assert np.abs(coords - rounded).max() < 1e-9
    return rounded.astype(int)


def test_enumerate_points_in_lattice_order():
    # the compact A2 lattice and a domain sublattice of A3, hundreds of points each
    for rank, signature in [(2, "RR"), (3, "IRR")]:
        rs = build_root_system("A", rank)
        lat = domain_sublattice(winding_lattice(rs), tuple(signature))
        pts = enumerate_points(lat, np.linspace(0.8, 0.3, rank), 1000.0, 1e-10, lam=rs.lam)
        assert len(pts) > 100
        coords = _coordinates(lat, pts)
        # strictly increasing in lexicographic order: sorted, and no repeats
        assert np.array_equal(np.lexsort(coords.T[::-1]), np.arange(len(coords)))
        assert (np.diff(coords, axis=0) != 0).any(axis=1).all()


CATALOGUE_GROUPS = [
    "SU(1,1)", "SU(2,1)", "SL(3,R)", "SO(4,1)", "SO(3,2)", "SU(3,1)",
    "SU(2,2)", "SO(3,3)", "SO(5,1)", "USp(4,2)", "Sp(6,R)",
]
COMPACT_SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2),
                   ("B", 3), ("C", 2), ("C", 3), ("D", 3), ("D", 4)]


def _window_lattices():
    from liekernel.domains import enumerate_domains, parse_group, root_system_of

    out = []
    for family, rank in COMPACT_SYSTEMS:
        rs = build_root_system(family, rank)
        out.append(pytest.param(rs, winding_lattice(rs), id=f"{family}{rank}"))
    for name in CATALOGUE_GROUPS:
        fam = parse_group(name)
        rs = root_system_of(fam)
        for dom in enumerate_domains(fam):
            sub = domain_sublattice(winding_lattice(rs), dom)
            if sub.dim:
                out.append(pytest.param(rs, sub, id=f"{name} {dom.label}"))
    return out


def _by_lattice(coeffs, pts):
    """Reference order: ``pts`` by one lexsort of their integer coordinates
    ``coeffs`` over the lattice basis."""
    return pts[np.lexsort(coeffs.T[::-1])]


def _points_by_box(lat, x0, t_like, tol, lam):
    """Reference window: scan a box that holds every point within reach."""
    gens = lat.generators
    gram = gens @ gens.T
    center = np.linalg.solve(gram, gens @ (-x0 / (2.0 * np.pi)))
    nearest = x0 + 2.0 * np.pi * (np.round(center) @ gens)
    window = 4.0 * t_like * np.log(1.0 / tol) / lam
    spans = np.sqrt(np.diag(np.linalg.inv(gram)) * (nearest @ nearest + window)) / (2.0 * np.pi)
    axes = [np.arange(lo, hi + 1) for lo, hi in
            zip(np.floor(center - spans - 1).astype(int), np.ceil(center + spans + 1).astype(int))]
    coeffs = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    pts = coeffs @ gens
    d2 = ((x0 + 2.0 * np.pi * pts) ** 2).sum(axis=1)
    radius2 = d2.min() + window
    keep = d2 <= radius2 + 1e-12 * max(1.0, radius2)
    return _by_lattice(coeffs[keep], pts[keep])


@pytest.mark.parametrize("rs,lat", _window_lattices())
def test_enumerate_points_matches_box_scan(rs, lat):
    rng = np.random.default_rng(7)
    cases = [(rng.uniform(-40.0, 40.0, rs.rank), t_like) for _ in range(4) for t_like in (0.25, 2.0, 10.0)]
    # lattice-symmetric points, which give many lattice points one distance
    gens = lat.generators
    symmetric = [np.zeros(rs.rank), np.pi * gens.sum(axis=0), rs.rho / 2.0, np.pi * gens[0]]
    cases += [(x0, t_like) for x0 in symmetric for t_like in (0.5, 3.0, 10.0)]
    for x0, t_like in cases:
        got = enumerate_points(lat, x0, t_like, 1e-14, lam=rs.lam)
        want = _points_by_box(lat, x0, t_like, 1e-14, rs.lam)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (x0, t_like)


@pytest.mark.parametrize("family,rank", COMPACT_SYSTEMS)
def test_enumerate_points_breaks_distance_ties_by_coordinates(family, rank):
    # lattice-symmetric points give many lattice points one distance; inside
    # each set of equal distances the points come in the order of their
    # integer coordinates
    rs = build_root_system(family, rank)
    lat = winding_lattice(rs)
    gens = lat.generators
    points = [np.zeros(rank), np.pi * gens.sum(axis=0), rs.rho / 2.0, np.pi * gens[0]]
    tied = 0
    for x0 in points:
        for t_like in (0.5, 3.0, 10.0):
            got = enumerate_points(lat, x0, t_like, 1e-14, lam=rs.lam)
            coords = _coordinates(lat, got)
            dist = np.round(((x0 + 2.0 * np.pi * got) ** 2).sum(axis=1), 9)
            # positions grouped by distance, in output order inside each group
            order = np.lexsort((np.arange(len(dist)), dist))
            same = dist[order[1:]] == dist[order[:-1]]
            step = coords[order[1:]] - coords[order[:-1]]
            first = step[np.arange(len(step)), np.argmax(step != 0, axis=1)]
            assert (first[same] > 0).all(), (x0, t_like)
            tied += bool(same.any())
    assert tied


@pytest.mark.parametrize("rs,lat", _window_lattices())
def test_enumerate_points_order_survives_lattice_translation(rs, lat):
    # x0 + 2 pi g, g = c @ gens, has the points of x0 shifted by -g: their
    # coordinates move by -c and keep their order
    rng = np.random.default_rng(5)
    gens = lat.generators
    for _ in range(3):
        x0 = rng.uniform(-6.0, 6.0, rs.rank)
        c = rng.integers(-3, 4, lat.dim)
        for t_like in (0.5, 5.0):
            want = _coordinates(lat, enumerate_points(lat, x0, t_like, 1e-14, lam=rs.lam))
            got = _coordinates(lat, enumerate_points(lat, x0 + 2.0 * np.pi * (c @ gens), t_like, 1e-14, lam=rs.lam))
            assert np.array_equal(got, want - c), (x0, c, t_like)


def _points_by_search(lat, x0, t_like, tol, lam):
    """Reference window: one Fincke-Pohst search around x0 per call, out to
    the rounded minimizer's distance plus the window."""
    gens = lat.generators
    center = np.linalg.solve(gens @ gens.T, gens @ (-x0 / (2.0 * np.pi)))
    nearest = x0 + 2.0 * np.pi * (np.round(center) @ gens)
    window = 4.0 * t_like * np.log(1.0 / tol) / lam
    reach = nearest @ nearest + window
    coeffs, d2 = _ellipsoid_points(gens, x0, 2.0 * np.pi, reach + 1e-12 * max(1.0, reach))
    radius2 = d2.min() + window
    keep = d2 <= radius2 + 1e-12 * max(1.0, radius2)
    coeffs = coeffs[keep]
    return _by_lattice(coeffs, coeffs @ gens)


@pytest.mark.parametrize("rs,lat", _window_lattices())
def test_enumerate_points_matches_per_call_search(rs, lat):
    rng = np.random.default_rng(11)
    gens = lat.generators
    # pi times integer coroot sums put the minimizer on Babai-cell
    # boundaries: half-integer coordinates wherever a coefficient is odd
    points = [
        rng.uniform(-12.0, 12.0, rs.rank),
        rng.uniform(0.0, 2.0 * np.pi, rs.rank),
        np.pi * (np.ones(lat.dim) @ gens),
        np.pi * (rng.integers(-1, 2, lat.dim) @ gens),
        np.pi * (rng.integers(-3, 4, lat.dim) @ gens) + 1e-13,
    ]
    for t_like in (0.01, 0.3, 30.0, 1000.0):
        for tol in (1e-6, 1e-14, 1e-30):
            if lat.dim == 4 and t_like * np.log(1.0 / tol) > 1000.0:
                continue  # 10^5 and more points per call
            for x0 in points:
                got = enumerate_points(lat, x0, t_like, tol, lam=rs.lam)
                want = _points_by_search(lat, x0, t_like, tol, rs.lam)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (x0, t_like, tol)


def _points_uncut(lat, x0, t_like, tol, lam):
    """``enumerate_points`` over every cached offset of the window, whose
    rows hold one integer coordinate each."""
    gens = lat.generators
    window = 4.0 * t_like * np.log(1.0 / tol) / lam
    offsets, _, proj = _window_offsets(lat, float(window))
    coeffs = np.round(proj @ (-x0 / (2.0 * np.pi))).astype(int) + offsets.T.astype(int)
    pts = coeffs @ gens
    d2 = ((x0 + 2.0 * np.pi * pts) ** 2).sum(axis=1)
    radius2 = d2.min() + window
    keep = d2 <= radius2 + 1e-12 * max(1.0, radius2)
    return _by_lattice(coeffs[keep], pts[keep])


def _cut_cases():
    """The compact systems at the heat times and damped real time of a
    compact grid, and SU(3,1) D3 on the undamped Abel window of t = 1."""
    from liekernel.domains import enumerate_domains, parse_group, root_system_of

    out = []
    for family, rank in COMPACT_SYSTEMS:
        rs = build_root_system(family, rank)
        taus = (0.25, 1.0) if rank <= 2 else (1.0, 2.0) if rank == 3 else (2.0, 8.0)
        out.append(pytest.param(rs, winding_lattice(rs), taus + (10.0,), id=f"{family}{rank}"))
    fam = parse_group("SU(3,1)")
    dom = next(d for d in enumerate_domains(fam) if d.label == "D3")
    rs = root_system_of(fam)
    out.append(pytest.param(rs, domain_sublattice(winding_lattice(rs), dom), (1000.0,), id="SU(3,1) D3"))
    return out


@pytest.mark.parametrize("rs,lat,t_likes", _cut_cases())
def test_enumerate_points_cut_keeps_the_uncut_result(rs, lat, t_likes):
    rng = np.random.default_rng(rs.rank)
    gens = lat.generators
    points = [rng.uniform(-0.3, 0.3, rs.rank) for _ in range(3)]
    points += [rng.uniform(0.0, 2.0 * np.pi, rs.rank) for _ in range(3)]
    # a Babai-cell boundary, where the rounded point is farthest off
    points.append(np.pi * (np.ones(lat.dim) @ gens) + 1e-13)
    cases = [(x0, t_like) for t_like in t_likes for x0 in points]
    # seen from a lattice point, the window's edge passes through lattice
    # points, which the cut must keep
    edge = (2.0 * np.pi) ** 2 * (gens[-1] @ gens[-1])
    cases.append((np.zeros(rs.rank), edge * rs.lam / (4.0 * np.log(1e14))))
    for x0, t_like in cases:
        got = enumerate_points(lat, x0, t_like, 1e-14, lam=rs.lam)
        want = _points_uncut(lat, x0, t_like, 1e-14, rs.lam)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (x0, t_like)


@pytest.mark.parametrize("rs,lat", _window_lattices())
def test_axis_table_reproduces_every_offsets_coordinates(rs, lat):
    """Each axis' entries are the distinct values of that coordinate over
    the window's offsets, and each offset's entry is its own coordinate,
    bit for bit, whatever the axes' values have in common."""
    gens = lat.generators
    for t_like in (0.3, 30.0):
        window = float(4.0 * t_like * np.log(1e14) / rs.lam)
        offsets = _window_offsets(lat, window)[0]
        index, reps, flat, axes = _axis_table(lat, window)
        values = (gens.T @ reps).take(flat)
        coords = gens.T @ offsets
        assert index.shape == coords.shape and np.issubdtype(index.dtype, np.unsignedinteger)
        for j, axis in enumerate(axes):
            assert np.array_equal(values[index[j]], coords[j]), (j, t_like)
            assert axis.start <= index[j].min() and index[j].max() < axis.stop
            assert np.array_equal(values[axis], np.unique(coords[j]))


def test_window_offsets_cache_stays_bounded():
    rs = build_root_system("A", 2)
    lat = winding_lattice(rs)
    phi = RadialPoint.real([0.8, 0.55])
    for k in range(_WINDOW_CACHE_SIZE + 8):
        enumerate_points(lat, phi, 0.2 + 0.01 * k, 1e-14, lam=rs.lam)
    info = _window_offsets.cache_info()
    assert info.maxsize == _WINDOW_CACHE_SIZE
    assert info.currsize <= _WINDOW_CACHE_SIZE
    hits = info.hits
    enumerate_points(lat, RadialPoint.real([2.1, -0.4]), 0.2 + 0.01 * (_WINDOW_CACHE_SIZE + 7), 1e-14, lam=rs.lam)
    assert _window_offsets.cache_info().hits == hits + 1


@pytest.mark.parametrize("tol", [0.0, -1e-3, 1.0, 2.0, float("nan")])
def test_enumerate_points_rejects_tol_outside_unit_interval(tol):
    rs = build_root_system("A", 2)
    with pytest.raises(ArgumentError):
        enumerate_points(winding_lattice(rs), RadialPoint.real([0.8, 0.55]), 0.5, tol, lam=rs.lam)


@pytest.mark.parametrize(
    "phi,t_like,lam",
    [
        ([0.8, 0.55], float("nan"), 3.0),
        ([0.8, 0.55], float("inf"), 3.0),
        ([0.8, 0.55], 0.0, 3.0),
        ([0.8, 0.55], 0.5, 0.0),
        ([0.8, 0.55], 0.5, -1.0),
        ([0.8, 0.55], 0.5, float("nan")),
        ([0.8, 0.55], 0.5, float("inf")),
        (np.array([float("nan"), 0.55]), 0.5, 3.0),
        (np.array([0.8, float("inf")]), 0.5, 3.0),
        (["a", 0.55], 0.5, 3.0),
        ("ab", 0.5, 3.0),
    ],
)
def test_enumerate_points_rejects_bad_arguments(phi, t_like, lam):
    lat = winding_lattice(build_root_system("A", 2))
    with pytest.raises(ArgumentError):
        enumerate_points(lat, phi, t_like, 1e-14, lam=lam)


@pytest.mark.parametrize("t_like,tol,lam", [(1e300, 1e-300, 3.0), (0.5, 1e-14, 1e-320)])
def test_enumerate_points_refuses_a_window_beyond_the_integers(t_like, tol, lam):
    lat = winding_lattice(build_root_system("A", 2))
    with pytest.raises(ResourceError), np.errstate(over="ignore"):
        enumerate_points(lat, [0.8, 0.55], t_like, tol, lam=lam)


def test_enumerate_points_resource_cap():
    rs = build_root_system("A", 2)
    lat = winding_lattice(rs)
    with pytest.raises(ResourceError):
        enumerate_points(lat, RadialPoint.real([0.5, 0.5]), 1e12, 1e-300, lam=rs.lam)


def test_canonicalize_examples():
    rs = build_root_system("A", 1)
    c, s, m = canonicalize(rs, RadialPoint.real([0.3]))
    assert abs(c.values[0] - 0.3) < 1e-12 and s.parity == 1 and list(m) == [0]
    c, s, m = canonicalize(rs, RadialPoint.real([-0.3]))
    assert abs(c.values[0] - 0.3) < 1e-12 and s.parity == -1
    c, s, m = canonicalize(rs, RadialPoint.real([4 * np.pi + 0.3]))
    assert abs(c.values[0] - 0.3) < 1e-10 and list(m) == [-1]


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 3)])
def test_canonicalize_compact_properties(family, rank):
    rs = build_root_system(family, rank)
    lat = winding_lattice(rs)
    for _ in range(20):
        phi = RNG.uniform(-8.0, 8.0, rank)
        c, sigma, m = canonicalize(rs, RadialPoint.real(phi))
        x = np.array(c.values)
        # alcove membership
        assert (rs.simple_roots @ x >= -1e-9).all()
        assert rs.highest_root @ x <= 2 * np.pi + 1e-9
        # reproduces the input under (sigma^{-1}, -m)
        back = sigma.matrix.T @ x - 2 * np.pi * (m @ lat.generators)
        assert np.abs(back - phi).max() < 1e-9
        # idempotent
        c2, s2, m2 = canonicalize(rs, c)
        assert np.abs(np.array(c2.values) - x).max() < 1e-9
        assert list(m2) == [0] * rank


def test_canonicalize_mixed():
    rs = build_root_system("A", 1)
    c, s, m = canonicalize(rs, RadialPoint.mixed([-0.7], "I"))
    assert c.signature == ("I",)
    assert abs(c.values[0] - 0.7) < 1e-12 and s.parity == -1
    # mixed rank-2 point: real coordinate reduced modulo the sublattice
    b2 = build_root_system("B", 2)
    lb = winding_lattice(b2)
    pt = RadialPoint.mixed([4 * np.pi + 0.4, -0.8], "RI")
    c, sigma, m = canonicalize(b2, pt)
    assert abs(c.values[0] - 0.4) < 1e-9 and abs(c.values[1] - 0.8) < 1e-9
    back = sigma.matrix.T @ np.array(c.values) - 2 * np.pi * (m @ lb.generators)
    assert np.abs(back - np.array(pt.values)).max() < 1e-9


def _reduce_lexmax_by_loop(group, lat, phi):
    """Reference reduction: one Weyl element at a time."""
    sub = domain_sublattice(lat, phi.signature)
    values = np.asarray(phi.values, dtype=float)
    candidates = []
    for i in _signature_preserving(group, phi.signature):
        elem = group.elements[i]
        y = elem.matrix @ values
        if sub.dim:
            center = np.linalg.solve(sub.generators @ sub.generators.T, sub.generators @ y)
            c = -np.round(center / (2.0 * np.pi)).astype(int)
            y = y + 2.0 * np.pi * (c @ sub.generators)
            full = c @ sub.coeffs
        else:
            full = np.zeros(lat.coeffs.shape[1], dtype=int)
        candidates.append((tuple(np.round(y, 10)), y, elem, full))
    _, y, elem, full = max(candidates, key=lambda item: item[0])
    mcoeffs = _coeffs_of(lat, elem.matrix.T @ (full @ lat.generators))
    return RadialPoint(tuple(y), phi.signature), elem, mcoeffs


@pytest.mark.parametrize("name", CATALOGUE_GROUPS)
def test_reduce_lexmax_matches_loop(name):
    from liekernel.domains import classification_lattice, enumerate_domains, parse_group, root_system_of

    fam = parse_group(name)
    rs = root_system_of(fam)
    group = generate_weyl_group(rs)
    rng = np.random.default_rng(23)
    for lat in (winding_lattice(rs), classification_lattice(fam)):
        for dom in enumerate_domains(fam):
            for k in range(8):
                # multiples of pi/2 put images on walls and cell boundaries
                values = rng.uniform(-15.0, 15.0, rs.rank) if k % 2 else rng.integers(-4, 5, rs.rank) * np.pi / 2
                phi = RadialPoint.mixed(values, dom.signature)
                got = reduce_lexmax(group, lat, phi)
                want = _reduce_lexmax_by_loop(group, lat, phi)
                assert np.array(got[0].values).tobytes() == np.array(want[0].values).tobytes()
                assert got[1].matrix.tobytes() == want[1].matrix.tobytes()
                assert np.array_equal(got[2], want[2])
