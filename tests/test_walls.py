"""The wall rule: per-root wall test and exact limits on Weyl walls.

Oracles: the identity value K(0) = V_G^-1 sum_l d_l^2 exp(-lambda_l tau), the
dimension formula, minuscule characters as plain orbit sums, the dual series
(path sum == spectral expansion) at wall points, and reference values of the
restricted path sum on mixed walls.
"""

import itertools

import numpy as np
import pytest

from liekernel import (
    KernelRequest,
    RadialPoint,
    SingularPointError,
    TimeParameter,
    build_root_system,
    character,
    compact_pathsum,
    compact_spectral,
    dimension,
    generate_weyl_group,
    noncompact_pathsum,
)
from liekernel import checks
from liekernel.domains import enumerate_domains, parse_group, root_system_of
from liekernel.kernel import _spectral_levels

SYSTEMS = [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 3), ("A", 4), ("D", 4)]
# heat times of the compact benchmark grid, by rank
HEAT_TIMES = {1: (0.25, 1.0), 2: (0.25, 1.0), 3: (1.0, 2.0)}


@pytest.mark.parametrize("family,rank", SYSTEMS)
def test_identity_value_both_routes(family, rank):
    taus = (0.5, 1.0, 2.0, 8.0) if rank < 4 else (2.0, 8.0)
    assert checks.identity_value([(family, rank)], taus, [compact_spectral]) < 1e-12
    for tau in taus:
        # the degree-p numerator reaches 2e-11 on A4 at tau=8
        bound = 1e-10 if (family, rank, tau) == ("A", 4, 8.0) else 1e-12
        assert checks.identity_value([(family, rank)], (tau,), [compact_pathsum]) < bound


def _wall_points(rs, rng, count, box=0.3, floor=0.02):
    """Points with |phi_j| <= box on one simple-root wall or on two.

    Every other root keeps |sin(alpha.phi/2)| >= floor: closer to a second
    wall the Weyl quotients lose digits to cancellation at regular points
    too, which the wall rule does not touch.
    """
    walls = [(i,) for i in range(rs.rank)] + list(itertools.combinations(range(rs.rank), 2))
    points = []
    for chosen in walls:
        basis = rs.simple_roots[list(chosen)]
        proj = np.eye(rs.rank) - basis.T @ np.linalg.pinv(basis.T)
        kept = 0
        while kept < count:
            phi = proj @ rng.uniform(-box, box, rs.rank)
            sines = np.abs(np.sin(rs.positive_roots @ phi / 2.0))
            if np.abs(phi).max() <= box and sines[sines > 1e-12].min(initial=1.0) >= floor:
                points.append(phi)
                kept += 1
    return points


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("A", 3), ("D", 3)])
def test_dual_series_on_walls_near_identity(family, rank):
    rs = build_root_system(family, rank)
    rng = np.random.default_rng(rank * 7 + ord(family))
    points = _wall_points(rs, rng, 4)
    for phi in points:
        assert (np.abs(np.sin(rs.positive_roots @ phi / 2.0)) <= 1e-12).sum() >= 1
    assert checks.dual_series(rs, points, HEAT_TIMES[rank], wall_limit=True) < 1e-11


@pytest.mark.parametrize("family,rank", SYSTEMS)
def test_character_at_identity_is_dimension(family, rank):
    rs = build_root_system(family, rank)
    for l in _spectral_levels(rs, 2.0, 1e-14, None):
        d = dimension(rs, l)
        assert checks.character_dimensions(rs, [(l, d)]) < 1e-12 * d


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("C", 3), ("D", 4)])
def test_minuscule_characters_on_walls(family, rank):
    # a minuscule character is the plain sum of exp(i v.phi) over the Weyl
    # orbit of its highest weight, defined on the walls as everywhere else
    rs = build_root_system(family, rank)
    group = generate_weyl_group(rs)
    points = _wall_points(rs, np.random.default_rng(3), 3, box=3.0, floor=0.1)
    checked = 0
    for j in range(rank):
        l = np.eye(rank, dtype=int)[j]
        images = group.matrices @ rs.weights[j]
        orbit = images[np.unique(np.round(images, 9), axis=0, return_index=True)[1]]
        if len(orbit) != dimension(rs, l, group):
            continue  # not minuscule
        checked += 1
        # the off-wall factors of the Weyl quotient still cost a few digits
        for phi, bound in [(phi, 1e-9) for phi in points] + [(np.zeros(rank), 1e-12)]:
            want = np.exp(1j * (orbit @ phi)).sum()
            assert abs(character(rs, l, phi, group, limit=True) - want) <= bound * len(orbit)
            with pytest.raises(SingularPointError):
                character(rs, l, phi, group)
    assert checked


# k = 1 walls of mixed domains (one root vanishes, not orthogonal to the real
# axes); reference values from a +-1e-5 offset extrapolation with one
# Richardson step, which carries about 1e-10 of its own error here
RESTRICTED_WALLS = [
    ("SO(4,1)", "D1", (0.0, 0.9), 1.30395191908459e-04 + 0j,
     -5.828837161239083e-06 - 3.3332577731372663e-06j),
    ("Sp(6,R)", "D2", (0.0, 0.8, 0.5), 7.856884957496937e-11 + 0j,
     4.540820743622506e-09 - 9.036701092610492e-09j),
    ("Sp(6,R)", "D2", (0.6, 0.6, 0.5), 6.338112469808177e-11 + 0j,
     -2.5464832665424057e-08 - 7.306635881501983e-09j),
    ("SU(2,2)", "D2", (0.5, 0.9, 0.0), 6.033155212894768e-08 + 0j,
     -3.1728335191470937e-06 - 9.440471356629522e-06j),
]


def _domain(name, label):
    fam = parse_group(name)
    return root_system_of(fam), [d for d in enumerate_domains(fam) if d.label == label][0]


@pytest.mark.parametrize("name,label,values,heat,damped", RESTRICTED_WALLS)
def test_restricted_walls_order_one(name, label, values, heat, damped):
    rs, dom = _domain(name, label)
    point = RadialPoint(values, dom.signature)
    assert (np.abs(np.sin(rs.positive_roots @ point.complex_vector() / 2.0)) <= 1e-12).sum() == 1
    for time, want in ((TimeParameter.heat(0.7), heat), (TimeParameter.real(1.0, 0.05), damped)):
        with pytest.raises(SingularPointError):
            noncompact_pathsum(KernelRequest(rs=rs, phi=point, time=time, domain=dom))
        req = KernelRequest(rs=rs, phi=point, time=time, domain=dom, wall_limit=True)
        assert abs(noncompact_pathsum(req).value - want) <= 1e-9 * abs(want)


def test_wall_orthogonal_to_real_axes_has_no_limit():
    # theta_1 = theta_2 puts a root of the imaginary axes on a wall; moving
    # along the real axis cannot leave it
    rs, dom = _domain("Sp(6,R)", "D1")
    point = RadialPoint.mixed([0.7, 0.7, 0.0], dom.signature)
    for time in (TimeParameter.heat(0.7), TimeParameter.real(1.0), TimeParameter.real(1.0, 0.05)):
        with pytest.raises(SingularPointError, match="no limit"):
            noncompact_pathsum(KernelRequest(rs=rs, phi=point, time=time, domain=dom, wall_limit=True))


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("A", 4), ("D", 4)])
def test_regular_points_near_identity_never_refused(family, rank):
    # the old absolute test on the product |w| refused 0.4%, 18%, 24%, 71%
    # and 97% of these regular points
    rs = build_root_system(family, rank)
    rng = np.random.default_rng(17)
    kept = 0
    while kept < 40:
        phi = rng.uniform(-0.3, 0.3, rank)
        if np.abs(np.sin(rs.positive_roots @ phi / 2.0)).min() < 1e-4:
            continue
        kept += 1
        req = KernelRequest(rs=rs, phi=RadialPoint.real(phi), time=TimeParameter.heat(2.0))
        assert np.isfinite(compact_pathsum(req).value)
        assert np.isfinite(compact_spectral(req).value)
        assert np.isfinite(character(rs, np.ones(rank, dtype=int), phi))
