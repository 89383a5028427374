import itertools

import numpy as np
import pytest

from liekernel import (
    ArgumentError,
    ClassificationError,
    ConfigurationError,
    NotInGroupError,
    RadialPoint,
    build_element,
    checks,
    classify_element,
    domain_count,
    domain_of_radial,
    enumerate_domains,
    parse_group,
)
from liekernel.domains import (
    GroupKind,
    _pairing_residual,
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
    + ["SU(2)", "SU(1,1)", "SU(3)", "SO(5)", "USp(6)", "SU(4)", "SO(6)", "SO(4,3)", "SO(5,2)", "SO(6,1)"],
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

    from liekernel.domains import _hyperbolic, _so_boost, _so_rot

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
        closed = _so_rot(6, p1, p2, angle) @ _so_rot(6, m1, m2, angle)
        closed = closed @ _so_boost(6, p1, m1, u) @ _so_boost(6, p2, m2, u)
        assert np.abs(closed - expm(x)).max() <= 1e-14 * np.abs(closed).max()
        # USp hyperbolic quartet: exp of a on (i, j) and of -a^T on (n+i, n+j)
        a = np.array([[1j * angle, u], [u, 1j * angle]])
        for block, gen in ((_hyperbolic(angle, u), a), (_hyperbolic(-angle, -u), -a.T)):
            assert np.abs(block - expm(gen)).max() <= 1e-14 * np.abs(block).max()


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
    with pytest.raises(ClassificationError):
        classify_element(fam, g)


def test_domain_of_radial():
    fam = parse_group("SO(3,2)")
    assert domain_of_radial(fam, RadialPoint.real([0.3, 0.4])).label == "D2"
    assert domain_of_radial(fam, RadialPoint.mixed([0.3, 0.4], "RI")).label == "D1"
    # mask permuted by the Weyl axis swap still resolves to D1
    assert domain_of_radial(fam, RadialPoint.mixed([0.3, 0.4], "IR")).label == "D1"
    with pytest.raises(ArgumentError):
        fam_su = parse_group("SU(2,1)")
        domain_of_radial(fam_su, RadialPoint.mixed([0.3, 0.4], "II"))


def test_enumerate_unsupported_rank_raises():
    with pytest.raises(ConfigurationError):
        enumerate_domains(parse_group("SU(3,2)"))  # rank 4 A-family coordinates
    with pytest.raises(ConfigurationError):
        enumerate_domains(parse_group("SO(6,2)"))  # rank-4 even orthogonal
    # counts remain available: SO(6,2) allows 0, 1 or 2 imaginary parameters
    assert checks.domain_counts({"SU(3,2)": 3, "SO(6,2)": 3}) == 0


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
