"""The exact integer core of lattice.py against sympy as a reference.

sympy is a test-only dependency: its Hermite normal form implements the same
algorithm (Cohen, Algorithm 2.4.5) with the same conventions, and the two
reference pipelines below are the sympy code the lattices were first built
with, kept here so that the tables they feed stay bit-identical.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from liekernel import build_root_system, domain_sublattice, winding_lattice
from liekernel.domains import (
    _dual_integral_basis,
    _system,
    classification_lattice,
    enumerate_domains,
    parse_group,
    root_system_of,
)
from liekernel.lattice import (
    IMAGINARY,
    _hermite_normal_form,
    _kernel,
    _rationalize,
    _transpose,
)

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form  # noqa: E402

RNG = np.random.default_rng(47)

CATALOGUE_GROUPS = [
    "SU(1,1)", "SU(2,1)", "SL(3,R)", "SO(4,1)", "SO(3,2)", "SU(3,1)",
    "SU(2,2)", "SO(3,3)", "SO(5,1)", "USp(4,2)", "Sp(6,R)",
]


def _random_int_matrix(rows, cols, rank):
    """Integer matrix of the given shape and (generic) rank."""
    left = RNG.integers(-6, 7, size=(rows, rank))
    right = RNG.integers(-6, 7, size=(rank, cols))
    return (left @ right).tolist()


def _random_rational_matrix(rows, cols, rank):
    ints = _random_int_matrix(rows, cols, rank)
    dens = RNG.integers(1, 5, size=(rows, cols))
    return [[Fraction(int(x), int(d)) for x, d in zip(row, drow)] for row, drow in zip(ints, dens)]


SHAPES = [  # (rows, cols, rank): square, wide, tall, each also below full rank
    (1, 1, 1), (3, 3, 3), (4, 4, 4), (4, 4, 2), (3, 3, 1),
    (2, 4, 2), (3, 5, 3), (3, 6, 2),
    (4, 2, 2), (5, 3, 3), (5, 3, 2), (6, 4, 1),
]


@pytest.mark.parametrize("rows,cols,rank", SHAPES)
def test_hnf_matches_sympy(rows, cols, rank):
    for _ in range(25):
        mat = _random_int_matrix(rows, cols, rank)
        if not any(any(row) for row in mat):
            continue
        expected = hermite_normal_form(sympy.Matrix(mat))
        assert _hermite_normal_form(mat) == [[int(x) for x in row] for row in expected.tolist()]


@pytest.mark.parametrize("rows,cols,rank", SHAPES)
def test_nullspace_matches_sympy(rows, cols, rank):
    """_kernel spans sympy's nullspace over the integers, and is saturated."""
    for _ in range(25):
        for mat in (_random_int_matrix(rows, cols, rank), _random_rational_matrix(rows, cols, rank)):
            basis = _kernel(mat)
            assert len(basis) == cols - sympy.Matrix(mat).rank()
            assert all(sum(x * c for x, c in zip(row, vec)) == 0 for row in mat for vec in basis)
            if not basis:
                continue
            span = sympy.Matrix(basis).T
            for vec in _sympy_nullspace(sympy.Matrix(mat)):
                coords = (span.T * span).inv() * span.T * sympy.Matrix(vec)
                assert all(x.is_integer for x in coords)
            # saturated: the maximal minors of the basis are coprime
            minors = [span[list(sub), :].det() for sub in itertools.combinations(range(cols), len(basis))]
            assert math.gcd(*(int(m) for m in minors)) == 1


def test_kernel_of_a_row_with_a_common_factor():
    # the rational nullspace basis (-1, 2, 0), (-1, 0, 2) spans an index-2
    # sublattice; (0, 1, -1) is a kernel vector outside it
    basis = _kernel([[2, 1, 1]])
    expected = [[0, 1, -1], [1, -2, 0]]
    assert _hermite_normal_form(_transpose(basis)) == _hermite_normal_form(_transpose(expected))


def _lattice_cases():
    for name in CATALOGUE_GROUPS:
        fam = parse_group(name)
        lat = winding_lattice(root_system_of(fam))
        for dom in enumerate_domains(fam):
            yield pytest.param(lat, dom.signature, id=f"{name} {dom.label}")
    for family, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2),
                         ("B", 3), ("C", 2), ("C", 3), ("D", 3), ("D", 4)]:
        lat = winding_lattice(build_root_system(family, rank))
        for bits in range(2**rank):
            signature = tuple("I" if bits >> j & 1 else "R" for j in range(rank))
            yield pytest.param(lat, signature, id=f"{family}{rank} {''.join(signature)}")


@pytest.mark.parametrize("lat,signature", list(_lattice_cases()))
def test_domain_sublattice_matches_sympy_pipeline(lat, signature):
    sub = domain_sublattice(lat, signature)
    generators, coeffs = _sympy_domain_sublattice(lat, signature)
    assert sub.generators.tobytes() == generators.tobytes()
    assert sub.coeffs.tobytes() == coeffs.tobytes()


@pytest.mark.parametrize("name", CATALOGUE_GROUPS)
def test_classification_lattice_matches_sympy_pipeline(name):
    fam = parse_group(name)
    expected = _sympy_dual_integral_basis(_system(fam).weights)
    assert _dual_integral_basis(_system(fam).weights).tobytes() == expected.tobytes()
    assert classification_lattice(fam).generators.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# sympy reference pipelines
# ---------------------------------------------------------------------------


def _sympy_nullspace(mat):
    basis = []
    for vec in mat.nullspace():
        mult = sympy.lcm([sympy.fraction(x)[1] for x in vec])
        ints = [sympy.Integer(x * mult) for x in vec]
        g = sympy.gcd(ints)
        basis.append([int(x // g) for x in ints])
    return basis


def _sympy_domain_sublattice(lat, signature):
    rows = []
    for j in (j for j, s in enumerate(signature) if s == IMAGINARY):
        row = [lat.generators[i][j] for i in range(lat.dim)]
        nonzero = [abs(x) for x in row if abs(x) > 1e-12]
        scale = min(nonzero) if nonzero else 1.0
        rows.append([_rationalize(x / scale) for x in row])
    if not rows:
        return lat.generators, lat.coeffs
    basis = _sympy_nullspace(sympy.Matrix(rows))
    if not basis:
        return np.zeros((0, lat.rank)), np.zeros((0, lat.coeffs.shape[1]), dtype=int)
    hnf = hermite_normal_form(sympy.Matrix(basis).T).T
    rel = np.array(hnf.tolist(), dtype=int)
    return rel.astype(float) @ lat.generators, rel @ lat.coeffs


def _sympy_dual_integral_basis(weights):
    r = weights.shape[1]
    scales = np.ones(r)
    for j in range(r):
        nz = np.abs(weights[:, j])
        nz = nz[nz > 1e-12]
        if len(nz):
            scales[j] = nz.min()
    mat = sympy.Matrix([[_rationalize(x) for x in row] for row in weights / scales])
    denom = sympy.lcm([sympy.fraction(sympy.Rational(x))[1] for x in mat])
    mint = sympy.Matrix(mat * denom).applyfunc(sympy.Integer)
    basis_cols = hermite_normal_form(mint.T)
    dual_cols = denom * basis_cols.T.inv()
    dd = sympy.lcm([sympy.fraction(sympy.Rational(x))[1] for x in dual_cols])
    dual_int = sympy.Matrix(dual_cols * dd).applyfunc(sympy.Integer)
    canon = hermite_normal_form(dual_int)
    return np.array(canon.T.tolist(), dtype=float) / float(dd) / scales[None, :]
