import itertools
import re
import time
import warnings

import numpy as np
import pytest

from liekernel import (
    ArgumentError,
    ClassificationError,
    ConfigurationError,
    LieKernelError,
    NotInGroupError,
    RadialPoint,
    ResourceError,
    build_element,
    checks,
    classify_element,
    domain_count,
    domain_of_radial,
    domains,
    enumerate_domains,
    parse_group,
)
from liekernel.domains import (
    GroupFamily,
    GroupKind,
    _classify_spectrum,
    _least_cost_pairing,
    _pairing_residual,
    _system,
    _unit_class,
    canonical_radial,
    check_defining_relation,
    classification_lattice,
    predicted_eigenvalues,
    root_system_of,
)

RNG = np.random.default_rng(404)

CATALOGUE_GROUPS = [
    "SU(2,1)", "SL(3,R)", "SO(4,1)", "SO(3,2)", "SU(3,1)",
    "SU(2,2)", "SO(3,3)", "SO(5,1)", "USp(4,2)", "Sp(6,R)",
]
# A-family forms past rank 3, on the pair frame's coordinates
A_BEYOND_RANK3 = ["SU(4,1)", "SU(3,2)", "SL(5,R)", "SU(3,3)"]


def test_parse_group_spellings():
    assert parse_group("SU(2,1)") == parse_group("SU21") == parse_group("su21")
    assert parse_group("SL(3,R)") == parse_group("SL3R")
    assert parse_group("Sp(6,R)") == parse_group("SP6R")
    assert parse_group("USp(4,2)") == parse_group("USP42")
    assert parse_group("SO(5)").is_compact and not parse_group("SO(4,1)").is_compact
    assert parse_group("SU(2)").rank == 1
    assert parse_group("Sp(6,R)").rank == 3
    with pytest.raises(ConfigurationError):
        parse_group("G2")
    with pytest.raises(ConfigurationError):
        parse_group("USp(3,2)")  # odd arguments
    for name in ("SP5R", "SL(3,2)", "SU3R", "XX3"):  # odd Sp size, two SL integers, stray R, no family
        with pytest.raises(ConfigurationError):
            parse_group(name)
    with pytest.raises(ConfigurationError):
        GroupFamily(GroupKind.SU, 0, 1)


def test_rank_formulas():
    assert parse_group("SU(2,1)").rank == 2
    assert parse_group("SL(4,R)").rank == 3
    assert parse_group("SO(4,1)").rank == 2
    assert parse_group("SO(3,3)").rank == 3
    assert parse_group("USp(4,2)").rank == 3
    assert parse_group("Sp(8,R)").rank == 4


def test_domain_counts_closed_forms():
    # randomized signatures with p+q <= 7 against the per-family rules
    want = {}
    for _ in range(40):
        total = int(RNG.integers(2, 8))
        p = int(RNG.integers(1, total))
        q = total - p
        want[f"SU({p},{q})"] = min(p, q) + 1
        want[f"SL({total},R)"] = total // 2 + 1
        if total >= 5 and total % 2 == 1:
            want[f"SO({p},{q})"] = min(p, q) + 1
        want[f"USp({2 * p},{2 * q})"] = abs(p - q) + 1
        if total % 2 == 0:
            want[f"Sp({total},R)"] = total // 2 + 1
    assert checks.domain_counts(want) == 0


def test_usp_count_is_catalogue_literal():
    # printed rule |p-q|+1; the quartet analysis would give min(p,q)+1, and
    # the catalogued case USp(4,2) cannot tell the two apart
    assert checks.domain_counts({"USp(4,2)": min(2, 1) + 1, "USp(4,4)": 1}) == 0


ISOMORPHIC_FORMS = [("SU(1,1)", "SL(2,R)"), ("SO(3,2)", "Sp(4,R)"), ("SU(2,2)", "SO(4,2)"), ("SL(4,R)", "SO(3,3)"),
                    pytest.param("USp(2,2)", "SO(4,1)", marks=pytest.mark.xfail(strict=True, reason=(
                        "FOUND: sp(1,1) = so(4,1), but the printed rule |p-q|+1 gives USp(2,2) 1 domain "
                        "and SO(4,1) has the catalogued 2; Sugiura's min(p,q)+1 would give 2")))]


@pytest.mark.parametrize("name,twin", ISOMORPHIC_FORMS)
def test_isomorphic_forms_have_equal_domain_counts(name, twin):
    # isomorphic Lie algebras have as many conjugacy classes of Cartan subalgebras
    assert domain_count(parse_group(name)) == domain_count(parse_group(twin))


def test_even_orthogonal_counts():
    assert checks.domain_counts({"SO(3,3)": 3, "SO(5,1)": 1, "SO(4,2)": 3, "SO(6)": 1}) == 0


EXPECTED_MASKS = {
    "SU(2,1)": ["RR", "IR"],
    "SL(3,R)": ["RI", "II"],
    "SO(4,1)": ["RR", "RI"],
    "SO(3,2)": ["RR", "RI", "II"],
    "SU(3,1)": ["RRR", "IRR"],
    "SU(2,2)": ["RRR", "IRR", "IRI"],
    "SO(3,3)": ["RIR", "IIR", "III"],
    "SO(5,1)": ["RIR"],
    "USp(4,2)": ["RRR", "IRR"],
    "Sp(6,R)": ["RRR", "RRI", "IIR", "III"],
}


@pytest.mark.parametrize("name", CATALOGUE_GROUPS)
def test_enumerate_domains_masks(name):
    fam = parse_group(name)
    domains = enumerate_domains(fam)
    assert ["".join(d.signature) for d in domains] == EXPECTED_MASKS[name]
    assert len(domains) == domain_count(fam)
    for d in domains:
        assert d.label == f"D{d.a}"
        assert d.a == sum(1 for s in d.signature if s == "R")


def test_su11_domains():
    fam = parse_group("SU(1,1)")
    domains = enumerate_domains(fam)
    assert [d.label for d in domains] == ["D1", "D0"]
    assert [d.signature for d in domains] == [("R",), ("I",)]


def test_isomorphic_pair_domains_coincide():
    # SO(4,2) carries the same domain ladder as SU(2,2)
    so = ["".join(d.signature) for d in enumerate_domains(parse_group("SO(4,2)"))]
    assert so == ["RRR", "IRR", "IRI"]


def test_defining_relation_rejects_outsiders():
    fam = parse_group("SU(1,1)")
    with pytest.raises(NotInGroupError):
        check_defining_relation(fam, np.diag([2.0, 0.5]))  # not eta-unitary
    with pytest.raises(NotInGroupError):
        classify_element(fam, np.eye(3))  # wrong shape
    fam_sl = parse_group("SL(3,R)")
    with pytest.raises(NotInGroupError):
        classify_element(fam_sl, np.diag([1j, -1j, 1.0]))  # complex entries


@pytest.mark.parametrize("matrix", [
    "abc", [[1, 0, 0], [0, 1, 0], [0, 1]], 1e200 * np.eye(3), np.diag([np.nan, 1.0, 1.0]),
    np.diag([np.inf, 1.0, 1.0]),
], ids=["text", "ragged", "overflowing", "nan", "inf"])
def test_classify_refuses_non_matrices_before_any_product(matrix):
    # the refusal comes first: no product runs to overflow or warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotInGroupError):
            classify_element(parse_group("SU(2,1)"), matrix)


def test_classify_su11_examples():
    fam = parse_group("SU(1,1)")
    phi = 1.1
    dom, pt = classify_element(fam, np.diag([np.exp(1j * phi / 2), np.exp(-1j * phi / 2)]))
    assert dom.label == "D1"
    assert abs(pt.values[0] - phi) < 1e-10
    theta = 0.9
    c, s = np.cosh(theta / 2), np.sinh(theta / 2)
    dom, pt = classify_element(fam, np.array([[c, s], [s, c]]))
    assert dom.label == "D0"
    assert abs(pt.values[0] - theta) < 1e-10


def test_su11_trace_threshold():
    fam = parse_group("SU(1,1)")
    # trace 2 + 1e-3: hyperbolic side
    theta = 2.0 * np.arccosh(1.0 + 5e-4)
    c, s = np.cosh(theta / 2), np.sinh(theta / 2)
    dom, _ = classify_element(fam, np.array([[c, s], [s, c]]))
    assert dom.label == "D0"
    # trace 2 - 1e-3: elliptic side
    phi = 2.0 * np.arccos(1.0 - 5e-4)
    dom, _ = classify_element(fam, np.diag([np.exp(1j * phi / 2), np.exp(-1j * phi / 2)]))
    assert dom.label == "D1"


def test_guard_band_raises():
    fam = parse_group("SU(1,1)")
    theta = 2e-8  # |lambda| - 1 ~ 1e-8: inside the (1e-9, 1e-6) guard band
    c, s = np.cosh(theta / 2), np.sinh(theta / 2)
    with pytest.raises(ClassificationError):
        classify_element(fam, np.array([[c, s], [s, c]]))


def test_classify_su2_trace_convention():
    fam = parse_group("SU(2)")
    for phi in (0.7, 2.0, 3.9):
        g = np.diag([np.exp(1j * phi / 2), np.exp(-1j * phi / 2)])
        dom, pt = classify_element(fam, g)
        assert dom.label == "D1"
        assert abs(pt.values[0] - phi) < 1e-10
        assert abs(np.trace(g).real - 2.0 * np.cos(pt.values[0] / 2.0)) < 1e-10


# SO(4,3), SO(5,2) and SO(6,1) leave an axis to the zero weight in some domains
@pytest.mark.parametrize(
    "name",
    CATALOGUE_GROUPS
    + ["SU(2)", "SU(1,1)", "SU(3)", "SO(5)", "USp(6)", "SU(4)", "SO(6)", "SO(4,3)", "SO(5,2)", "SO(6,1)"]
    + A_BEYOND_RANK3,
)
def test_roundtrip_all_domains(name):
    fam = parse_group(name)
    for dom in enumerate_domains(fam):
        for _ in range(8):
            vals = RNG.uniform(0.15, 1.5, fam.rank)
            canon = canonical_radial(fam, RadialPoint(tuple(vals), dom.signature))
            g = build_element(fam, canon)
            check_defining_relation(fam, g)
            dom2, pt2 = classify_element(fam, g)
            assert dom2.label == dom.label
            assert np.abs(np.array(pt2.values) - np.array(canon.values)).max() < 1e-8
            # classification post: the radial point regenerates the spectrum
            pred = predicted_eigenvalues(fam, pt2)
            eig = np.linalg.eigvals(g.astype(complex))
            from scipy.optimize import linear_sum_assignment

            cost = np.abs(pred[:, None] - eig[None, :])
            rows, cols = linear_sum_assignment(cost)
            assert cost[rows, cols].max() < 1e-7


def _random_su11(rng):
    xi, zeta, s = rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 1.2)
    a = np.exp(1j * xi) * np.cosh(s)
    b = np.exp(1j * zeta) * np.sinh(s)
    return np.array([[a, b], [np.conj(b), np.conj(a)]])


def _random_su2(rng):
    z = rng.normal(size=4)
    z /= np.linalg.norm(z)
    return np.array(
        [[z[0] + 1j * z[1], z[2] + 1j * z[3]], [-z[2] + 1j * z[3], z[0] - 1j * z[1]]]
    )


def test_conjugation_invariance_rank1():
    fam_c = parse_group("SU(2)")
    fam_n = parse_group("SU(1,1)")
    for _ in range(10):
        phi = RNG.uniform(0.3, 5.5)
        g = np.diag([np.exp(1j * phi / 2), np.exp(-1j * phi / 2)])
        v = _random_su2(RNG)
        dom_a, pt_a = classify_element(fam_c, g)
        dom_b, pt_b = classify_element(fam_c, v @ g @ np.linalg.inv(v))
        assert dom_a.label == dom_b.label
        assert np.abs(np.array(pt_a.values) - np.array(pt_b.values)).max() < 1e-7

        theta = RNG.uniform(0.2, 2.0)
        c, s = np.cosh(theta / 2), np.sinh(theta / 2)
        h = np.array([[c, s], [s, c]])
        w = _random_su11(RNG)
        dom_a, pt_a = classify_element(fam_n, h)
        dom_b, pt_b = classify_element(fam_n, w @ h @ np.linalg.inv(w))
        assert dom_a.label == dom_b.label == "D0"
        assert np.abs(np.array(pt_a.values) - np.array(pt_b.values)).max() < 1e-7


def _random_algebra_element(fam, rng):
    """Random X in the Lie algebra of fam's defining representation."""
    from liekernel.domains import _eta, _zeta

    d = fam.matrix_dim
    a = rng.normal(size=(d, d))
    if fam.kind is GroupKind.SU:
        h = a + 1j * rng.normal(size=(d, d))
        x = _eta(fam) @ (h - h.conj().T)
        return x - np.trace(x) / d * np.eye(d)
    if fam.kind is GroupKind.SO:
        return _eta(fam) @ (a - a.T)
    if fam.kind is GroupKind.SL:
        return a - np.trace(a) / d * np.eye(d)
    if fam.kind is GroupKind.USP:
        # the projections onto u(p,q) and sp(2n,C) commute: their product
        # projects onto the intersection
        eta, zeta = _eta(fam), _zeta(d // 2)
        x = a + 1j * rng.normal(size=(d, d))
        x = (x - eta @ x.conj().T @ eta) / 2
        return (x + zeta @ x.T @ zeta) / 2
    return _zeta(d // 2) @ (a + a.T)  # Sp(2n,R)


@pytest.mark.parametrize(
    "name",
    ["SU(2,1)", "SL(3,R)", "SO(4,1)", "SO(3,2)", "SU(3,1)", "SU(2,2)", "SO(3,3)", "SO(5,1)", "Sp(6,R)"],
)
def test_conjugation_invariance_higher_rank(name):
    from scipy.linalg import expm

    fam = parse_group(name)
    rng = np.random.default_rng(505)
    for dom in enumerate_domains(fam):
        for _ in range(4):
            vals = rng.uniform(0.15, 1.5, fam.rank)
            g = build_element(fam, canonical_radial(fam, RadialPoint(tuple(vals), dom.signature)))
            dom_a, pt_a = classify_element(fam, g)
            for _ in range(2):
                v = expm(0.3 * _random_algebra_element(fam, rng))
                check_defining_relation(fam, v)
                dom_b, pt_b = classify_element(fam, v @ g @ np.linalg.inv(v))
                assert dom_b.label == dom_a.label
                assert np.abs(np.array(pt_b.values) - np.array(pt_a.values)).max() < 1e-7


def test_closed_form_blocks_match_expm():
    from scipy.linalg import expm

    from liekernel.domains import _boost, _place, _rot

    def placed(g, axes, block):
        g = g.astype(np.result_type(g, block))
        _place(g, axes, block)
        return g

    # parameters as the domain tests draw them; at larger generator norms
    # expm's own scaling-and-squaring error passes 1e-14 first
    rng = np.random.default_rng(606)
    for angle, u in rng.uniform(0.15, 1.5, (20, 2)) * rng.choice([-1.0, 1.0], (20, 2)):
        # mixed orthogonal plane on the (+, +, -, -) axes (0, 1, 3, 4) of SO(3,3)
        p1, p2, m1, m2 = 0, 1, 3, 4
        x = np.zeros((6, 6))
        x[p1, p2], x[p2, p1] = -angle, angle
        x[m1, m2], x[m2, m1] = -angle, angle
        x[p1, m1] = x[m1, p1] = x[p2, m2] = x[m2, p2] = u
        # the outer product boost(u) (x) rot(angle), as _build_so forms it
        block = np.multiply.outer(_boost(u), _rot(angle)).transpose(0, 2, 1, 3).reshape(4, 4)
        closed = placed(np.eye(6), (p1, p2, m1, m2), block)
        assert np.abs(closed - expm(x)).max() <= 1e-14 * np.abs(closed).max()
        # USp hyperbolic quartet: exp of a on (i, j) and of -a^T on (n+i, n+j)
        a = np.array([[1j * angle, u], [u, 1j * angle]])
        for block, gen in ((np.exp(1j * angle) * _boost(u), a), (np.exp(-1j * angle) * _boost(-u), -a.T)):
            assert np.abs(block - expm(gen)).max() <= 1e-14 * np.abs(block).max()
        # the other blocks, each placed as its builder places it, against the
        # exponential of its generator placed on the same axes
        for closed, axes, gen in (
            # SL(3,R) conjugate pair e^{-u} rot(angle) on two + axes
            (placed(np.eye(3, dtype=complex), (0, 2), np.exp(-u) * _rot(angle)), (0, 2),
             [[-u, -angle], [angle, -u]]),
            # Sp(6,R) rotation and diagonal boost on (i, n + i)
            (placed(np.eye(6), (1, 4), _rot(angle).T), (1, 4), [[0.0, angle], [-angle, 0.0]]),
            (placed(np.eye(6), (1, 4), np.diag([np.exp(u), np.exp(-u)])), (1, 4), [[u, 0.0], [0.0, -u]]),
        ):
            want = expm(placed(np.zeros(closed.shape), axes, np.array(gen)))
            assert np.abs(closed - want).max() <= 1e-14 * np.abs(closed).max()


@pytest.mark.parametrize("name", CATALOGUE_GROUPS + A_BEYOND_RANK3)
def test_zero_patterns_build_and_classify_or_refuse(name):
    # every domain, every set of zeroed coordinates, both signs, raw and
    # canonicalized: a zero puts the point on a domain boundary or gives a
    # unit eigenvalue, which the builders must place without running out of
    # axes; a failure is a typed refusal
    fam = parse_group(name)
    rng = np.random.default_rng(707)
    subsets = [zeros for k in range(fam.rank + 1) for zeros in itertools.combinations(range(fam.rank), k)]
    for dom in enumerate_domains(fam):
        base = rng.uniform(0.15, 1.5, fam.rank)
        for zeros in subsets:
            for sign in (1.0, -1.0):
                values = sign * base
                values[list(zeros)] = 0.0
                raw = RadialPoint(tuple(values), dom.signature)
                for point in (raw, canonical_radial(fam, raw)):
                    try:
                        classify_element(fam, build_element(fam, point))
                    except LieKernelError:
                        pass


@pytest.mark.parametrize("values", [(0.0, 0.7, 0.7), (0.0, -0.7, -0.7), (0.0, 0.0, 0.7), (0.0, 0.0, -0.7)])
def test_su22_unit_pair_leaves_the_boost_a_plus_axis(values):
    # the zero-theta pair's unit eigenvalues take one + and one - axis, since
    # the boost still to come needs the other + axis
    fam = parse_group("SU(2,2)")
    point = RadialPoint(values, ("I", "R", "I"))
    g = build_element(fam, point)
    assert domain_of_radial(fam, point).label == "D1"
    assert _pairing_residual(predicted_eigenvalues(fam, point), np.linalg.eigvals(g)) < 1e-12
    classify_element(fam, g)


@pytest.mark.parametrize("values", [(0.0, 0.7, 0.0), (0.7, 0.0, 0.7)])
def test_so33_d0_point_with_zero_parameter_builds(values):
    # a zero exponent is the identity on two axes and needs no plane of its own
    fam = parse_group("SO(3,3)")
    dom = next(d for d in enumerate_domains(fam) if d.label == "D0")
    g = build_element(fam, canonical_radial(fam, RadialPoint(values, dom.signature)))
    check_defining_relation(fam, g)
    dom2, pt2 = classify_element(fam, g)
    # the element lies on the boundary with D2, which classification tries first
    assert dom2.label in ("D0", "D2")
    assert _pairing_residual(predicted_eigenvalues(fam, pt2), np.linalg.eigvals(g.astype(complex))) < 1e-7


@pytest.mark.parametrize("name, values", [("SO(5,1)", (0.7, 0.0, 0.7)), ("SO(3,3)", (0.4, 0.0, 1.1))])
def test_zero_boost_parameter_takes_no_axes(name, values):
    # the two rotations fill the axes a third, zero-angle one would need;
    # build_element checks the spectrum itself
    fam = parse_group(name)
    dom = next(d for d in enumerate_domains(fam) if d.label == "D2")
    g = build_element(fam, RadialPoint(values, dom.signature))
    check_defining_relation(fam, g)
    # all eigenvalues have unit modulus; D2 leaves slots for them
    dom2, pt2 = classify_element(fam, g)
    assert dom2.label == "D2"
    assert _pairing_residual(predicted_eigenvalues(fam, pt2), np.linalg.eigvals(g.astype(complex))) < 1e-7


@pytest.mark.parametrize("name", ["SU(1,1)"] + CATALOGUE_GROUPS)
def test_identity_classifies_at_the_origin(name):
    # zero parameters on imaginary axes give unit eigenvalues beyond the
    # domain's unit slots (SL(3,R), SO(3,3), SO(5,1))
    fam = parse_group(name)
    dom, point = classify_element(fam, np.eye(fam.matrix_dim))
    assert dom == enumerate_domains(fam)[0]
    assert np.abs(point.values).max() < 1e-12


@pytest.mark.parametrize("name, label", [("SU(3,1)", "D3"), ("SO(3,3)", "D2"), ("Sp(6,R)", "D3")])
def test_roundtrip_on_cell_boundaries_keeps_domain_and_spectrum(name, label):
    # the {0, pi, 0.7}^3 grid puts canonical points on cell boundaries, such as
    # SU(3,1) D3 (pi, 8.886, pi), which may come back as another representative
    fam = parse_group(name)
    dom = next(d for d in enumerate_domains(fam) if d.label == label)
    for values in itertools.product((0.0, np.pi, 0.7), repeat=3):
        canon = canonical_radial(fam, RadialPoint(values, dom.signature))
        g = build_element(fam, canon)
        dom2, pt2 = classify_element(fam, g)
        assert dom2.label == label
        pred = predicted_eigenvalues(fam, pt2)
        assert _pairing_residual(pred, predicted_eigenvalues(fam, canon)) < 1e-7
        assert _pairing_residual(pred, np.linalg.eigvals(g.astype(complex))) < 1e-7


def test_classification_ambiguous_for_loxodromic_symplectic():
    # a genuinely complex quadruple matches no pure-signature domain
    fam = parse_group("Sp(4,R)")
    a, u = 0.6, 0.4
    r = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    block = np.exp(u) * r
    g = np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), np.exp(-u) * r]])
    # g^T zeta g = zeta holds for blockdiag(A, A^{-T})
    with pytest.raises(ClassificationError, match="complex quartet"):
        classify_element(fam, g)


def test_domain_of_radial():
    fam = parse_group("SO(3,2)")
    assert domain_of_radial(fam, RadialPoint.real([0.3, 0.4])).label == "D2"
    assert domain_of_radial(fam, RadialPoint.mixed([0.3, 0.4], "RI")).label == "D1"
    # mask permuted by the Weyl axis swap still resolves to D1
    assert domain_of_radial(fam, RadialPoint.mixed([0.3, 0.4], "IR")).label == "D1"
    fam_su = parse_group("SU(2,1)")
    with pytest.raises(ArgumentError):
        domain_of_radial(fam_su, RadialPoint.mixed([0.3, 0.4], "II"))
    # a point of the wrong rank matches no domain
    for point in (RadialPoint.real([0.1]), RadialPoint.mixed([0.1, 0.2, 0.3], "RIR")):
        with pytest.raises(ArgumentError, match="rank"):
            domain_of_radial(fam_su, point)


def test_enumerate_unsupported_rank_raises():
    with pytest.raises(ConfigurationError):
        enumerate_domains(parse_group("SO(4,4)"))  # rank-4 even orthogonal, as SO(6,2)
    with pytest.raises(ConfigurationError):
        enumerate_domains(parse_group("SO(6,2)"))  # rank-4 even orthogonal
    # counts remain available: SO(6,2) allows 0, 1 or 2 imaginary parameters
    assert checks.domain_counts({"SU(3,2)": 3, "SO(6,2)": 3}) == 0


def test_rank1_symplectic_groups_are_the_unimodular_ones():
    from liekernel.domains import _zeta

    assert parse_group("Sp(2,R)") == parse_group("SP2R") == parse_group("SL(2,R)")
    assert parse_group("USp(2)") == parse_group("USp(2,0)") == parse_group("SU(2)")
    for kind, same in ((GroupKind.SP, "SL(2,R)"), (GroupKind.USP, "SU(2)")):
        with pytest.raises(ConfigurationError, match=re.escape(same)):
            GroupFamily(kind, 1)
    # a 2 x 2 matrix of determinant 1 keeps the symplectic form: one element, two names
    boost = np.array([[np.cosh(0.4), np.sinh(0.4)], [np.sinh(0.4), np.cosh(0.4)]])
    rot = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    unitary = np.diag([np.exp(0.35j), np.exp(-0.35j)])
    for g, names in ((boost, ("Sp(2,R)", "SL(2,R)")), (rot, ("Sp(2,R)", "SL(2,R)")),
                     (unitary, ("USp(2)", "SU(2)"))):
        assert np.abs(g.T @ _zeta(1) @ g - _zeta(1)).max() < 1e-15
        (dom_a, pt_a), (dom_b, pt_b) = (classify_element(parse_group(name), g) for name in names)
        assert dom_a == dom_b and pt_a == pt_b


def test_domain_enumeration_up_to_rank_6(monkeypatch):
    # the support boundary: every non-compact form lists domain_count's domains,
    # apart from even SO with p+q >= 8 and the USp forms that need mixed quartets
    names = checks.noncompact_forms(6)
    assert len(names) == 71
    assert checks.domain_enumeration(names) == 0
    refused = set()
    for name in names:
        try:
            enumerate_domains(parse_group(name))
        except ConfigurationError:
            refused.add(name)
    even_so = {f"SO({m - q},{q})" for m in (8, 10, 12) for q in range(1, m // 2 + 1)}
    quartets = {"USp(6,2)", "USp(8,2)", "USp(6,4)", "USp(10,2)", "USp(8,4)"}
    assert refused == even_so | quartets
    # a count the enumeration does not meet is caught; a refusal is not counted
    monkeypatch.setattr(checks, "domain_count", lambda family: domain_count(family) + 1)
    assert checks.domain_enumeration(["SU(3,2)", "SO(4,4)"]) == 1


def test_classification_lattice_refines_windings():
    # vector representations do not see the center: index-2 refinement
    from liekernel import winding_lattice

    fam = parse_group("SO(3,2)")
    rep = classification_lattice(fam)
    cor = winding_lattice(root_system_of(fam))
    det_ratio = abs(np.linalg.det(cor.generators)) / abs(np.linalg.det(rep.generators))
    assert abs(det_ratio - 2.0) < 1e-9
    fam2 = parse_group("SU(3)")
    rep2 = classification_lattice(fam2)
    cor2 = winding_lattice(root_system_of(fam2))
    assert abs(abs(np.linalg.det(cor2.generators)) / abs(np.linalg.det(rep2.generators)) - 1.0) < 1e-9


def test_so_even_six_dim_weights_consistent():
    # pairwise sums of the four-dim chain give three orthogonal +- pairs
    from liekernel.domains import _system

    sys = _system(parse_group("SO(3,3)"))
    w = sys.weights
    assert w.shape == (6, 3)
    gram = w[:3] @ w[:3].T
    assert np.abs(gram - np.diag(np.diag(gram))).max() < 1e-12


def test_build_element_verifies_itself():
    fam = parse_group("USp(4,2)")
    dom = enumerate_domains(fam)[1]
    pt = canonical_radial(fam, RadialPoint((0.4, 0.8, 1.1), dom.signature))
    g = build_element(fam, pt)
    assert g.shape == (6, 6)
    check_defining_relation(fam, g)


def _match_by_permutations(weights, signature, eig):
    """The exhaustive reference for one domain: every assignment of the
    eigenvalues to the weights in ``itertools.permutations`` order, unit-modulus
    ones first to the weights that vanish on the imaginary axes, each solved
    in full: the imaginary parameters by least squares on the log-moduli, the
    real ones from phase rows (the first weights in that order to raise the
    rank of the real-axis columns) at each 2 pi offset in {-1, 0, 1} per row,
    each offset checked on every eigenvalue."""
    real_axes = [j for j, s in enumerate(signature) if s == "R"]
    imag_axes = [j for j, s in enumerate(signature) if s == "I"]
    w_r, w_i = weights[:, real_axes], weights[:, imag_axes]
    nw = len(weights)
    slot_unit = np.array([np.allclose(row, 0.0, atol=1e-12) for row in w_i])
    eig_unit = _unit_class(eig)
    if slot_unit.sum() > eig_unit.sum():
        return None
    rows = []
    for k in np.flatnonzero(slot_unit).tolist() + np.flatnonzero(~slot_unit).tolist():
        if np.linalg.matrix_rank(w_r[rows + [k]]) > len(rows):
            rows.append(k)
    offsets = 2 * np.pi * np.array(list(itertools.product((-1, 0, 1), repeat=len(rows))))
    inv, pinv = np.linalg.inv(w_r[rows]), np.linalg.pinv(-w_i)
    log_mod, args = np.log(np.abs(eig)), np.angle(eig)
    tol = 1e-8 * max(1.0, float(np.abs(eig).max()))
    unit_slots, other_slots = np.flatnonzero(slot_unit), np.flatnonzero(~slot_unit)
    assign = np.empty(nw, dtype=int)
    for perm_u in itertools.permutations(np.flatnonzero(eig_unit).tolist(), len(unit_slots)):
        assign[unit_slots] = perm_u
        for perm_n in itertools.permutations([k for k in range(nw) if k not in perm_u]):
            assign[other_slots] = perm_n
            y = pinv @ log_mod[assign]
            if np.abs(log_mod[assign] - (-w_i @ y)).max() > 1e-7:
                continue
            xs = (args[assign][rows] + offsets) @ inv.T
            fits = np.abs(np.exp(1j * (xs @ w_r.T) - w_i @ y) - eig[assign]).max(axis=1) <= tol
            if fits.any():
                values = np.zeros(len(signature))
                values[real_axes], values[imag_axes] = xs[fits.argmax()], y
                return values
    return None


def _reference_classification(fam, eig):
    """The first domain in catalogue order that the exhaustive reference
    matches, with its point made canonical; ``ClassificationError`` if none."""
    for dom in enumerate_domains(fam):
        values = _match_by_permutations(_system(fam).weights, dom.signature, eig)
        if values is not None:
            return dom, canonical_radial(fam, RadialPoint(tuple(values), dom.signature))
    raise ClassificationError("no domain")


def _assert_same_classification(fam, g, rng=None, may_refuse=False):
    """``classify_element`` gives the reference's domain and canonical point,
    to 1e-12 relative.

    With ``rng``, each eigenvalue first moves by up to 3e-9 relative in phase
    and, off the unit circle, in modulus, inside the tolerances: the point
    then agrees to 1e-7.  Only with ``may_refuse`` may the reference refuse
    g, and classification must then refuse it with the same type.
    """
    if may_refuse:
        try:
            check_defining_relation(fam, g)
        except NotInGroupError:
            with pytest.raises(NotInGroupError):
                classify_element(fam, g)
            return
    eig = np.linalg.eigvals(check_defining_relation(fam, g))
    if rng is not None:
        off_unit = np.abs(np.abs(eig) - 1.0) > 1e-6
        eig = eig * np.exp(3e-9 * (1j * rng.uniform(-1, 1, len(eig)) + off_unit * rng.uniform(-1, 1, len(eig))))
    if may_refuse:
        try:
            _reference_classification(fam, eig)
        except ClassificationError:
            with pytest.raises(ClassificationError):
                _classify_spectrum(fam, eig)
            return
    want = _reference_classification(fam, eig)
    dom, point = _classify_spectrum(fam, eig)
    assert dom == want[0], (fam.name, dom.label, want[0].label)
    got, ref = np.array(point.values), np.array(want[1].values)
    bound = (1e-12 if rng is None else 1e-7) * max(1.0, np.abs(ref).max())
    assert np.abs(got - ref).max() <= bound, (fam.name, dom.label, got, ref)


# The "pruned match" tests keep the names they had when classification was a
# pruned assignment search; they hold the read-off that replaced it to the
# exhaustive search.  SU(4), SO(4,2) and USp(2,4) have domains whose phase
# rows differ from a pivoted QR's.
@pytest.mark.parametrize("name", ["SU(1,1)"] + CATALOGUE_GROUPS + ["SU(4)", "SO(4,2)", "USp(2,4)"] + A_BEYOND_RANK3)
def test_pruned_match_equals_permutation_search(name):
    from scipy.linalg import expm

    fam = parse_group(name)
    rng = np.random.default_rng(808)
    _assert_same_classification(fam, np.eye(fam.matrix_dim))
    for dom in enumerate_domains(fam):
        for _ in range(3):
            vals = rng.uniform(0.12, 1.55, fam.rank)
            g = build_element(fam, canonical_radial(fam, RadialPoint(tuple(vals), dom.signature)))
            _assert_same_classification(fam, g)
            _assert_same_classification(fam, g, rng)
            if fam.rank <= 3:
                _assert_same_classification(fam, -g, may_refuse=True)
    if fam.rank <= 3:
        for scale in (0.5, 2.0):
            for _ in range(3):
                _assert_same_classification(fam, expm(scale * _random_algebra_element(fam, rng)), may_refuse=True)


@pytest.mark.parametrize("values", [(0.0, 0.7, 0.0), (0.7, 0.0, 0.7)])
def test_pruned_match_ties_zero_parameters_as_permutation_search(values):
    # degenerate eigenvalues: many assignments pass, and all give one point
    fam = parse_group("SO(3,3)")
    dom = next(d for d in enumerate_domains(fam) if d.label == "D0")
    _assert_same_classification(fam, build_element(fam, canonical_radial(fam, RadialPoint(values, dom.signature))))


def test_pruned_match_refuses_the_guard_band_as_permutation_search():
    fam = parse_group("SU(1,1)")
    theta = 2e-8
    c, s = np.cosh(theta / 2), np.sinh(theta / 2)
    eig = np.linalg.eigvals(np.array([[c, s], [s, c]], dtype=complex))
    with pytest.raises(ClassificationError, match="guard band"):
        _classify_spectrum(fam, eig)
    with pytest.raises(ClassificationError, match="guard band"):
        _reference_classification(fam, eig)


def test_readoff_solves_at_most_once_per_domain(monkeypatch):
    # the assignment search it replaces made 47,000 partial checks per SO(7,6) element
    calls = []
    solve = domains._solve
    monkeypatch.setattr(domains, "_solve", lambda *args: calls.append(1) or solve(*args))
    for name, label in (("SO(7,6)", "D6"), ("SO(7,6)", "D0"), ("Sp(12,R)", "D6")):
        fam = parse_group(name)
        dom = next(d for d in enumerate_domains(fam) if d.label == label)
        point = RadialPoint(tuple(np.linspace(0.2, 1.4, fam.rank)), dom.signature)
        g = build_element(fam, canonical_radial(fam, point))
        calls.clear()
        assert classify_element(fam, g)[0] == dom
        assert 1 <= len(calls) <= len(enumerate_domains(fam))


@pytest.mark.parametrize("name", ["SL(4,R)", "SU(1,1)"])
def test_minus_a_split_element_is_refused_for_its_negative_eigenvalues(name):
    # -g of an SL(4,R) D1 element has two unequal negative real eigenvalues,
    # and -g of an SU(1,1) D0 element a boost pair of them: no domain has them
    fam = parse_group(name)
    dom = next(d for d in enumerate_domains(fam) if d.label == ("D1" if fam.rank == 3 else "D0"))
    g = build_element(fam, canonical_radial(fam, RadialPoint((0.4, 0.9, 1.3)[: fam.rank], dom.signature)))
    with pytest.raises(ClassificationError, match="negative real eigenvalues") as info:
        classify_element(fam, -g)
    assert len(info.value.eigenvalues) == fam.matrix_dim


@pytest.mark.parametrize(
    "name", A_BEYOND_RANK3 + ["SU(5,1)", "SU(4,2)", "SL(6,R)", "SU(6,1)", "SU(5,2)", "SU(4,3)", "SL(7,R)"]
)
def test_a_family_rank_4_to_6_builds_classifies_and_evolves(name):
    from liekernel import KernelRequest, TimeParameter, noncompact_pathsum

    fam = parse_group(name)
    rng = np.random.default_rng(1010)
    for dom in enumerate_domains(fam):
        for _ in range(2):
            canon = canonical_radial(fam, RadialPoint(tuple(rng.uniform(0.15, 1.5, fam.rank)), dom.signature))
            dom2, pt2 = classify_element(fam, build_element(fam, canon))
            assert dom2 == dom
            assert np.abs(np.array(pt2.values) - np.array(canon.values)).max() < 1e-13
            req = KernelRequest(rs=root_system_of(fam), phi=pt2, time=TimeParameter.real(1.0, 0.05), domain=dom)
            assert np.isfinite(noncompact_pathsum(req).value)


def test_build_element_past_the_weyl_closure_cap_is_refused_up_front():
    # SO(8,7) is B7, whose Weyl group of 645,120 elements passes the closure cap
    fam = parse_group("SO(8,7)")
    dom = enumerate_domains(fam)[-1]
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="B7 has 645120 elements"):
        build_element(fam, RadialPoint(tuple(np.linspace(0.2, 1.4, fam.rank)), dom.signature))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("name", ["SO(5,4)", "Sp(8,R)"])
def test_roundtrip_rank4_domains(name):
    # out of reach of the permutation search, which took seconds per element
    fam = parse_group(name)
    rng = np.random.default_rng(909)
    for dom in enumerate_domains(fam):
        for _ in range(2):
            vals = rng.uniform(0.15, 1.5, fam.rank)
            canon = canonical_radial(fam, RadialPoint(tuple(vals), dom.signature))
            g = build_element(fam, canon)
            dom2, pt2 = classify_element(fam, g)
            assert dom2 == dom
            assert np.abs(np.array(pt2.values) - np.array(canon.values)).max() < 1e-8


def test_least_cost_pairing_matches_linear_sum_assignment():
    """The same pairing as scipy's, also where several pairings cost least."""
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(1010)
    for n in range(1, 10):
        for k in range(60):
            # small integer costs tie often, a constant matrix everywhere
            cost = (rng.random((n, n)), rng.integers(0, 4, (n, n)).astype(float),
                    rng.integers(0, 2, (n, n)).astype(float), np.full((n, n), 1.5))[k % 4]
            assert _least_cost_pairing(cost.tolist()) == linear_sum_assignment(cost)[1].tolist()


def test_pairing_residual_matches_linear_sum_assignment(monkeypatch):
    """Bit for bit, also where least-cost pairings tie with other maxima,
    whether the nearest columns or the Hungarian pair."""
    from scipy.optimize import linear_sum_assignment

    calls = []

    def counted(cost):
        calls.append(len(cost))
        return _least_cost_pairing(cost)

    monkeypatch.setattr(domains, "_least_cost_pairing", counted)

    rng = np.random.default_rng(1111)
    e = 0.125
    # totals 6e both ways, maxima 5e or 4e
    tied = [(np.array([-e, -2 * e]) + 0j, np.array([0, 3 * e]) + 0j)]
    for n in range(1, 10):
        for k in range(30):
            eig = rng.normal(size=n) + 1j * rng.normal(size=n)
            if k % 3 == 0:
                pred = eig[rng.permutation(n)] + 1e-3 * rng.normal(size=n)
            elif k % 3 == 1:
                pred = rng.normal(size=n) + 0j
            else:  # collinear points on a grid: many pairings of least total
                eig, pred = (rng.integers(-3, 4, n) * e + 0j for _ in range(2))
            tied.append((pred, eig))
    # repeated eigenvalues: a zero parameter beside the zero weight of odd SO,
    # and pairs e^{+-theta} or e^{i chi +- theta} at theta = 0
    repeated = []
    for name, signature, values in [("SO(4,1)", "RR", (0.0, 1.0)), ("SO(3,2)", "RI", (0.7, 0.0)),
                                    ("SU(1,1)", "I", (0.0,)), ("Sp(6,R)", "RRI", (0.7, 1.0, 0.0))]:
        fam, point = parse_group(name), RadialPoint(values, tuple(signature))
        repeated.append((predicted_eigenvalues(fam, point), np.linalg.eigvals(build_element(fam, point))))
    # a row whose two nearest columns tie exactly, or 2 ulps apart
    near_ties = [(np.array([1.0, 5.0]) + 0j, np.array([0.0, gap]) + 0j) for gap in (2.0, 2.0 + 2**-51)]
    for cases, hungarian in ((tied, False), (repeated + near_ties, True)):
        for pred, eig in cases:
            cost = np.abs(pred[:, None] - eig[None, :])
            rows, cols = linear_sum_assignment(cost)
            calls.clear()
            assert _pairing_residual(pred, eig) == cost[rows, cols].max()
            if hungarian:
                assert calls == [len(pred)], (pred, eig)
    assert _pairing_residual(*tied[0]) == 5 * e
    # well separated eigenvalues pair by their nearest columns alone
    eig = rng.normal(size=6) + 1j * rng.normal(size=6)
    calls.clear()
    pred = eig + 1e-3
    assert _pairing_residual(pred[::-1], eig) == np.abs(pred - eig).max() and calls == []


def _held_arrays(table):
    """The ndarrays a cached table holds, directly or in nested tuples,
    lists and dicts (the lattices and groups it refers to are not walked)."""
    if isinstance(table, np.ndarray):
        yield table
    elif isinstance(table, (tuple, list)):
        for item in table:
            yield from _held_arrays(item)
    elif isinstance(table, dict):
        for item in table.values():
            yield from _held_arrays(item)


def _evolve_fixed_elements(order):
    """Build, classify and evolve a fixed set of elements, and evaluate both
    compact routes at two times that share a decay scale (heat tau = 10.1
    and t = 1, eps = 0.1), in the given order; the outputs, exact."""
    from liekernel import KernelRequest, TimeParameter, build_root_system, compact_pathsum, compact_spectral
    from liekernel import noncompact_pathsum

    jobs = []
    for name in ("SU(1,1)", "SU(2,1)", "SO(3,2)", "Sp(6,R)"):
        fam = parse_group(name)
        for dom in enumerate_domains(fam):
            point = RadialPoint((0.45, 1.1, 0.8)[: fam.rank], dom.signature)
            jobs.append((fam, point, TimeParameter.real(1.0, 0.05)))
    a2 = build_root_system("A", 2)
    for time in (TimeParameter.heat(10.1), TimeParameter.real(1.0, 0.1)):
        jobs.append((a2, RadialPoint.real([0.8, 0.5]), time))
    out = {}
    for k in order(range(len(jobs))):
        where, point, time = jobs[k]
        if isinstance(where, GroupFamily):
            g = build_element(where, canonical_radial(where, point))
            dom, got = classify_element(where, g)
            kv = noncompact_pathsum(KernelRequest(rs=root_system_of(where), phi=got, time=time, domain=dom))
            out[k] = (g.tobytes(), dom.label, np.array(got.values).tobytes(), complex(kv.value), kv.tag)
        else:
            req = KernelRequest(rs=where, phi=point, time=time)
            out[k] = (complex(compact_pathsum(req).value), complex(compact_spectral(req).value))
    return out


def test_cached_tables_are_read_only_and_keep_bits():
    from liekernel import TimeParameter, build_root_system, kernel, lattice, rootsys, volumes, weyl

    caches = {id(f): f for module in (domains, kernel, lattice, rootsys, volumes, weyl)
              for f in vars(module).values() if hasattr(f, "cache_clear")}

    def clear():
        for f in caches.values():
            f.cache_clear()

    clear()
    cold = _evolve_fixed_elements(list)
    warm = _evolve_fixed_elements(list)
    clear()
    # in reverse order: a table keyed too coarsely would hand one time's
    # weights to the other
    cleared = _evolve_fixed_elements(lambda ks: list(ks)[::-1])
    assert cold == warm == cleared

    a2 = build_root_system("A", 2)
    tables = [kernel._level_weights(a2, TimeParameter.heat(10.1), 1e-14, None),
              kernel._path_plan(a2, ("R", "R"), TimeParameter.heat(10.1), 1e-14)]
    for name in ("SU(2,1)", "Sp(6,R)"):
        fam = parse_group(name)
        rs = root_system_of(fam)
        tables.append(domains._domains(fam))
        for dom in enumerate_domains(fam):
            sig = dom.signature
            tables += [domains._signature_domain(fam, sig), domains._canonical_tables(fam, sig),
                       lattice._weyl_tables(rs, sig), lattice._axis_factors(sig),
                       kernel._path_plan(rs, sig, TimeParameter.real(1.0, 0.05), 1e-14)]
    arrays = list(_held_arrays(tables))
    assert len(arrays) > 50
    assert not any(a.flags.writeable for a in arrays)
