from dataclasses import replace

import numpy as np
import pytest

from liekernel import ArgumentError, ConfigurationError, build_root_system, cartan_matrix, checks, rescale

SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3), ("D", 4)]


@pytest.mark.parametrize("family,rank", SYSTEMS)
def test_rho_lambda_identity(family, rank):
    assert checks.rho_identity([(family, rank)]) < 1e-12


@pytest.mark.parametrize("family,rank", SYSTEMS)
def test_counts_and_rho_sum(family, rank):
    rs = build_root_system(family, rank)
    assert rs.p == (rs.n - rs.rank) // 2
    assert len(rs.positive_roots) == rs.p
    assert np.abs(rs.positive_roots.sum(axis=0) - 2.0 * rs.rho).max() < 1e-12


@pytest.mark.parametrize("family,rank", SYSTEMS)
def test_weight_duality(family, rank):
    assert checks.root_weight_duality([(family, rank)]) < 1e-12


@pytest.mark.parametrize("family,rank", SYSTEMS)
def test_positive_roots_have_nonneg_integer_coeffs(family, rank):
    rs = build_root_system(family, rank)
    coeffs = np.linalg.solve(rs.simple_roots.T, rs.positive_roots.T).T
    rounded = np.round(coeffs)
    assert np.abs(coeffs - rounded).max() < 1e-8
    assert (rounded >= -1e-9).all()


def test_highest_root_coeffs_positive_integers():
    for family, rank in SYSTEMS:
        rs = build_root_system(family, rank)
        assert (rs.highest_root_coeffs >= 1).all()
        assert np.abs(rs.highest_root_coeffs @ rs.simple_roots - rs.highest_root).max() < 1e-12


def test_root_data_up_to_rank_12():
    assert checks.root_data(12) == 0


def test_root_data_counts_each_mismatch(monkeypatch):
    def broken(family, rank):
        rs = build_root_system(family, rank)
        if (family, rank) == ("C", 5):
            return replace(rs, highest_root_coeffs=rs.highest_root_coeffs[::-1])
        if (family, rank) == ("D", 4):
            return replace(rs, p=rs.p - 1)
        return rs

    monkeypatch.setattr(checks, "build_root_system", broken)
    assert checks.root_data(5) == 2


@pytest.mark.parametrize("family,rank", SYSTEMS + [("A", 8), ("B", 8), ("C", 8), ("D", 8)])
def test_positive_roots_are_their_coefficients_times_the_simple_roots(family, rank):
    # bit for bit: no last-bit noise, as the float closure left in three C3 roots
    rs = build_root_system(family, rank)
    coeffs = np.rint(np.linalg.solve(rs.simple_roots.T, rs.positive_roots.T).T)
    assert coeffs.min() >= 0
    assert (coeffs @ rs.simple_roots).tobytes() == rs.positive_roots.tobytes()
    assert coeffs[-1].tolist() == rs.highest_root_coeffs.tolist()


def test_a1_constants():
    rs = build_root_system("A", 1)
    assert rs.n == 3 and rs.p == 1
    assert abs(rs.lam - 2.0) < 1e-15
    assert abs(float(rs.rho @ rs.rho) - 0.25) < 1e-15
    assert abs(float(rs.simple_roots[0, 0]) - 1.0) < 1e-15


# the reference tables' A1-A3 simple roots, which the pair frame reproduces bit for bit
S2H, S3H = np.sqrt(2.0) / 2.0, np.sqrt(3.0) / 2.0
A_REFERENCE = {
    1: [[1.0]],
    2: [[1.0, 0.0], [-0.5, S3H]],
    3: [[1.0, 0.0, 0.0], [-0.5, S2H, -0.5], [0.0, 0.0, 1.0]],
}


def test_a1_reference_coordinates():
    assert build_root_system("A", 1).simple_roots.tobytes() == np.array(A_REFERENCE[1]).tobytes()


def test_a2_reference_coordinates():
    rs = build_root_system("A", 2)
    assert np.allclose(rs.simple_roots[0], [1.0, 0.0])
    assert np.allclose(rs.simple_roots[1], [-0.5, np.sqrt(3.0) / 2.0])
    assert rs.simple_roots.tobytes() == np.array(A_REFERENCE[2]).tobytes()


def test_a3_reference_coordinates():
    assert build_root_system("A", 3).simple_roots.tobytes() == np.array(A_REFERENCE[3]).tobytes()


@pytest.mark.parametrize("rank", range(1, 9))
def test_a_pair_frame(rank):
    # orthonormal frame: unit roots with the A_r Gram matrix, and the
    # difference of weight pair k, gamma_2k, exactly on axis 2k
    g = build_root_system("A", rank).simple_roots
    gram = np.eye(rank) - 0.5 * (np.eye(rank, k=1) + np.eye(rank, k=-1))
    assert np.abs(g @ g.T - gram).max() <= 2e-16
    for k in range(0, rank, 2):
        assert g[k].tolist() == np.eye(rank)[k].tolist()


def test_b2_reference_coordinates():
    rs = build_root_system("B", 2)
    assert np.allclose(rs.simple_roots[0], [1.0, -1.0])
    assert np.allclose(rs.simple_roots[1], [0.0, 1.0])


def test_c3_reference_coordinates():
    rs = build_root_system("C", 3)
    assert np.allclose(rs.simple_roots[2], [0.0, 0.0, np.sqrt(2.0)])
    assert np.allclose(rs.simple_roots[1], [-0.5, 0.5, -np.sqrt(2.0) / 2.0])


def test_cartan_matrices():
    assert cartan_matrix(build_root_system("A", 1)).tolist() == [[2]]
    # direct dot products of the stored A2 roots
    rs = build_root_system("A", 2)
    assert cartan_matrix(rs).tolist() == [[2, -1], [-1, 2]]
    b2 = cartan_matrix(build_root_system("B", 2)).tolist()
    assert b2 in ([[2, -2], [-1, 2]], [[2, -1], [-2, 2]])  # up to root ordering
    entries = set()
    for family, rank in SYSTEMS:
        entries.update(int(v) for v in cartan_matrix(build_root_system(family, rank)).ravel())
    assert entries <= {0, 1, -1, 2, -2, -3}


def test_rescale():
    rs = build_root_system("A", 1)
    assert np.allclose(rescale(rs, 1.0).simple_roots, rs.simple_roots)
    doubled = rescale(rs, 2.0)
    assert abs(doubled.lam - 8.0) < 1e-14
    assert abs(float(doubled.rho @ doubled.rho) - 1.0) < 1e-14
    a2 = build_root_system("A", 2)
    for c in (0.3, 1.7, 4.0):
        assert np.array_equal(cartan_matrix(rescale(a2, c)), cartan_matrix(a2))
    assert checks.rescale_roundtrip(a2, 3.17) < 1e-12
    with pytest.raises(ArgumentError):
        rescale(rs, 0.0)
    with pytest.raises(ArgumentError):
        rescale(rs, -2.0)


def test_unsupported_configurations():
    with pytest.raises(ConfigurationError):
        build_root_system("E", 8)
    with pytest.raises(ConfigurationError):
        build_root_system("D", 2)
    with pytest.raises(ConfigurationError):
        build_root_system("A", 0)
