import numpy as np
import pytest

from liekernel import (
    SingularPointError,
    build_root_system,
    casimir_eigenvalue,
    character,
    dimension,
    generate_weyl_group,
    weyl_function,
)
from liekernel import checks
from liekernel.weyl import weight_orbit, weyl_order_from_intertwiner

RNG = np.random.default_rng(20240817)


@pytest.mark.parametrize(
    "family,rank,order", [("A", 1, 2), ("A", 2, 6), ("B", 2, 8), ("A", 3, 24), ("C", 3, 48)]
)
def test_weyl_orders(family, rank, order):
    assert checks.weyl_orders([(family, rank, order)]) == 0


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 3)])
def test_weyl_elements_are_orthogonal_root_permutations(family, rank):
    rs = build_root_system(family, rank)
    group = generate_weyl_group(rs)
    roots = np.vstack([rs.positive_roots, -rs.positive_roots])
    keys = {tuple(np.round(r, 9)) for r in roots}
    for elem in group:
        assert np.abs(elem.matrix.T @ elem.matrix - np.eye(rank)).max() < 1e-10
        assert elem.parity == int(round(np.linalg.det(elem.matrix)))
        image = {tuple(np.round(elem.matrix @ r, 9)) for r in roots}
        assert image == keys


def test_group_closure_and_inverses():
    rs = build_root_system("B", 2)
    group = generate_weyl_group(rs)
    keys = {tuple(np.round(e.matrix, 9).ravel()) for e in group}
    for a in group:
        assert tuple(np.round(a.matrix.T, 9).ravel()) in keys  # inverse
        for b in group:
            assert tuple(np.round(a.matrix @ b.matrix, 9).ravel()) in keys


def test_weyl_function_values():
    rs = build_root_system("A", 1)
    assert abs(weyl_function(rs, [np.pi]) - 1.0) < 1e-15
    theta = 0.8
    val = weyl_function(rs, np.array([1j * theta]))
    assert abs(val - 1j * np.sinh(theta / 2.0)) < 1e-15
    a2 = build_root_system("A", 2)
    wall_point = np.array([0.0, 1.1])  # gamma_1 . phi = 0
    assert abs(weyl_function(a2, wall_point)) < 1e-15


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_weyl_function_antisymmetry(family, rank):
    assert checks.weyl_function_parity([(family, rank)], RNG, 10) < 1e-10


def test_character_trivial_and_rank1():
    a1 = build_root_system("A", 1)
    a2 = build_root_system("A", 2)
    for phi in ([0.7], [2.2]):
        assert abs(character(a1, [0], np.array(phi)) - 1.0) < 1e-12
        # l=1 character is sin(phi)/sin(phi/2) = 2 cos(phi/2)
        got = character(a1, [1], np.array(phi))
        assert abs(got - 2.0 * np.cos(phi[0] / 2.0)) < 1e-12
    assert abs(character(a2, [0, 0], np.array([0.9, 0.3])) - 1.0) < 1e-12


def test_character_invariance_and_periodicity():
    rs = build_root_system("A", 2)
    group = generate_weyl_group(rs)
    lat_gens = rs.coroots
    for _ in range(5):
        phi = RNG.uniform(0.2, 1.5, 2)
        chi = character(rs, [1, 1], phi)
        for elem in group:
            assert abs(character(rs, [1, 1], elem.matrix @ phi) - chi) < 1e-9
        m = RNG.integers(-2, 3, 2) @ lat_gens
        assert abs(character(rs, [1, 1], phi + 2 * np.pi * m) - chi) < 1e-9


def test_character_wall_error_names_root():
    rs = build_root_system("A", 2)
    with pytest.raises(SingularPointError):
        character(rs, [1, 0], np.array([0.0, 0.7]))


def test_character_limit_is_dimension():
    rs = build_root_system("A", 2)
    assert checks.character_dimensions(rs, [([0, 0], 1), ([1, 0], 3), ([1, 1], 8), ([3, 0], 10)]) < 1e-6


def test_character_complex_argument():
    rs = build_root_system("A", 2)
    val = character(rs, [1, 0], np.array([0.4 + 0.0j, 0.9j]))
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_dimension_rank1_and_casimir():
    a1 = build_root_system("A", 1)
    for l in range(5):
        assert dimension(a1, [l]) == l + 1
        n = l + 1
        assert abs(casimir_eigenvalue(a1, [l]) - (n**2 - 1) / 8.0) < 1e-13
    assert casimir_eigenvalue(a1, [0]) == 0.0


def test_casimir_against_radial_operator():
    """Independent oracle: lambda_l from finite differences of the radial
    Laplacean (1/lam)(w^{-1} d^2 (w chi) + rho^2 chi) = -lambda chi."""
    rs = build_root_system("A", 2)
    l = [1, 0]
    phi0 = np.array([0.83, 0.41])
    h = 1e-3

    def wchi(phi):
        return weyl_function(rs, phi) * character(rs, l, phi)

    lap = 0.0
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        lap += (wchi(phi0 + e) - 2.0 * wchi(phi0) + wchi(phi0 - e)) / h**2
    rho2 = float(rs.rho @ rs.rho)
    value = (lap / weyl_function(rs, phi0) + rho2 * character(rs, l, phi0)) / rs.lam
    lam_fd = -value / character(rs, l, phi0)
    assert abs(lam_fd - casimir_eigenvalue(rs, l)) < 1e-4


@pytest.mark.parametrize(
    "family,rank,order",
    [
        ("A", 1, 2), ("A", 2, 6), ("B", 2, 8), ("C", 2, 8), ("A", 3, 24),
        ("B", 3, 48), ("C", 3, 48), ("D", 3, 24), ("A", 4, 120), ("D", 4, 192),
    ],
)
def test_intertwiner_weyl_order_identity(family, rank, order):
    assert checks.intertwiner_order([(family, rank, order)]) < 1e-9


def _nested_stencil(func, dirs, x, h):
    if not dirs:
        return func(x)
    d = dirs[0]
    return (
        _nested_stencil(func, dirs[1:], x + h * d, h) - _nested_stencil(func, dirs[1:], x - h * d, h)
    ) / (2 * h)


@pytest.mark.parametrize("family,rank,h", [("A", 1, 1e-5), ("A", 2, 1e-2)])
def test_intertwiner_matches_finite_differences(family, rank, h):
    """(D w)(0) of the intertwiner identity vs nested directional stencils of w.

    One central difference per positive root; at rank 2 the three nested
    levels make the 1e-5 step roundoff-dominated in double precision, so a
    larger step carries the same 1e-4 agreement there.
    """
    rs = build_root_system(family, rank)
    fd = _nested_stencil(lambda x: weyl_function(rs, x), list(rs.positive_roots), np.zeros(rank), h)
    want = 2.0**rs.p / np.prod(rs.positive_roots @ rs.rho) * fd.real
    assert abs(weyl_order_from_intertwiner(rs) - want) < 1e-4 * want


def test_denominator_identity():
    # the signed orbit sum of exp(i rho.phi) rebuilds (2i)^p w(phi)
    for family, rank in (("A", 1), ("A", 2)):
        rs = build_root_system(family, rank)
        group = generate_weyl_group(rs)
        for _ in range(5):
            phi = RNG.uniform(-1.5, 1.5, rank)
            want = (2j) ** rs.p * weyl_function(rs, phi)
            assert abs(np.exp(1j * (group.matrices @ rs.rho) @ phi) @ group.parities - want) < 1e-12


TEN_SYSTEMS = [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 3), ("A", 4), ("D", 4)]


@pytest.mark.parametrize("family,rank", TEN_SYSTEMS)
def test_weight_basis_matrices_act_on_weight_coordinates(family, rank):
    rs = build_root_system(family, rank)
    group = generate_weyl_group(rs)
    coords = RNG.integers(-5, 6, rank)
    orbit = weight_orbit(group, coords)
    assert orbit.shape == (rank, group.order) and orbit.dtype == np.int64
    assert np.abs(orbit.T @ rs.weights - group.matrices @ (coords @ rs.weights)).max() < 1e-12
    # the orbit of a strictly dominant weight, such as l + rho, is free
    free = weight_orbit(group, RNG.integers(0, 4, rank) + 1)
    assert len(set(map(tuple, free.T))) == group.order


@pytest.mark.parametrize("family,rank", TEN_SYSTEMS)
def test_character_at_complex_points_matches_expsum(family, rank):
    """Power tables at complex phi against the explicit exponential sum over
    the orbit of l + rho."""
    rs = build_root_system(family, rank)
    group = generate_weyl_group(rs)
    for _ in range(4):
        l = RNG.integers(0, 4, rank)
        phi = RNG.uniform(-3.0, 3.0, rank) + 1j * RNG.uniform(-0.3, 0.3, rank)
        numerator = np.exp(1j * (group.matrices @ ((l + 1) @ rs.weights)) @ phi) @ group.parities
        want = numerator / ((2j) ** rs.p * weyl_function(rs, phi))
        assert abs(character(rs, l, phi, group) - want) <= 1e-11 * abs(want)
