import numpy as np
import pytest

from liekernel import build_root_system, checks, coset_volume, group_volume, torus_volume
from liekernel.volumes import torus_volume_det_form

SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3)]


def test_rank1_closed_values():
    rs = build_root_system("A", 1)
    assert abs(group_volume(rs) - 32.0 * np.sqrt(2.0) * np.pi**2) < 1e-9
    assert abs(torus_volume(rs) - 4.0 * np.sqrt(2.0) * np.pi) < 1e-10
    assert abs(coset_volume(rs) - 8.0 * np.pi) < 1e-10


@pytest.mark.parametrize("family,rank", SYSTEMS)
def test_factorization(family, rank):
    assert checks.volume_factorization([(family, rank)]) < 1e-10


@pytest.mark.parametrize("family,rank", SYSTEMS)
def test_rescale_invariance(family, rank):
    assert checks.volume_rescale([(family, rank)], (0.5, 2.0, 3.7)) < 1e-10


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_torus_volume_two_closed_forms_agree(family, rank):
    rs = build_root_system(family, rank)
    a, b = torus_volume(rs), torus_volume_det_form(rs)
    assert abs(a - b) / a < 1e-12


def test_torus_volume_quadrature_rank1():
    assert checks.volume_quadrature(build_root_system("A", 1), 401) < 1e-8


def test_torus_volume_quadrature_rank2():
    assert checks.volume_quadrature(build_root_system("A", 2), 120) < 1e-8
