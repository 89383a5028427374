"""Weyl group machinery: reflections, characters, dimensions, and the
intertwining operator.  The group is the integer orbit of the simple
reflections acting on weight coordinates, and a character's signed orbit sum
is an entry of a bilinear form between head and tail tables of powers over
two parabolic coset spaces, one pair of matrix products for all levels."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, InternalError, ResourceError, SingularPointError
from .rootsys import RootSystem, integer_orbit

__all__ = [
    "WeylElement",
    "WeylGroup",
    "generate_weyl_group",
    "weyl_function",
    "character",
    "weight_orbit",
    "dimension",
    "casimir_eigenvalue",
]

# matrix entries a closure may store, |W| r^2: A7 (2.0e6), B6 and C6 (1.7e6)
# and D6 pass, A8, B7, C7 and D7 are refused
_ENTRY_CAP = 4 * 10**6
# elements are listed by their Cartesian matrices at this many decimals, reversed
_SORT_DECIMALS = 9
_WALL_TOL = 1e-12

# entries per block of ``orbit_sums`` and of the kernel's point axis: points
# x table entries or window offsets, points x heads x tails of the second
# product, levels x Weyl images of the terms multiplied out on a wall; the
# temporaries of one block stay cache-sized
_BLOCK = 2**15


@dataclass(frozen=True)
class WeylElement:
    """One orthogonal transform of root space with its parity."""

    matrix: np.ndarray
    parity: int

    def __repr__(self):
        return f"WeylElement(parity={self.parity:+d})"


class WeylGroup:
    """Finite reflection group; elements listed once, identity first.

    ``matrices`` (|W|, r, r) are the elements in Cartesian coordinates and
    ``parities`` their determinants.  ``weight_matrices`` are the same
    elements in the basis of fundamental weights, integer matrices: weight
    coordinates c map to c @ weight_matrices[k].
    """

    def __init__(self, matrices: np.ndarray, parities: np.ndarray, weight_matrices: np.ndarray):
        self.matrices = matrices
        self.parities = parities
        self.weight_matrices = weight_matrices
        self.elements = [WeylElement(matrix=m, parity=int(e)) for m, e in zip(matrices, parities)]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"WeylGroup(order={self.order})"


def reflection_matrix(root: np.ndarray) -> np.ndarray:
    root = np.asarray(root, dtype=float)
    return np.eye(len(root)) - 2.0 * np.outer(root, root) / (root @ root)


def _close_group(gens, start, name: str, weights: np.ndarray) -> WeylGroup:
    """Closure of ``start`` under left multiplication by ``gens`` (Cartesian),
    as the ``integer_orbit`` of their matrices in the basis of the weights
    (rows), checked integral once; each element's Cartesian matrix is g @ m
    for the generator g and parent m it was found from.  Sorted by rounded
    Cartesian matrix, reversed.  Past ``_ENTRY_CAP`` stored entries the
    generators are malformed: ``generate_weyl_group`` refuses larger groups."""
    mats = np.concatenate([gens, start])
    basis = weights @ mats.transpose(0, 2, 1) @ np.linalg.inv(weights)
    keys = np.rint(basis).astype(np.int64)
    if np.abs(basis - keys).max() > 1e-9:
        raise InternalError(f"the generators of {name} are not integral in the basis of fundamental weights")
    weight_matrices, sources = integer_orbit(keys[: len(gens)], keys[len(gens) :], name,
                                             _ENTRY_CAP // gens[0].size)
    matrices = []
    for parent, g in sources:
        matrices.append(start[parent] if g < 0 else gens[g] @ matrices[parent])
    matrices = np.stack(matrices)
    order = np.lexsort(np.round(matrices, _SORT_DECIMALS).reshape(len(matrices), -1).T[::-1])[::-1]
    parities = np.rint(np.linalg.det(weight_matrices)).astype(np.int64)
    return WeylGroup(matrices[order], parities[order], weight_matrices[order])


@functools.cache
def generate_weyl_group(rs: RootSystem) -> WeylGroup:
    """Closure of the simple-root reflections, whose matrices in the basis
    of fundamental weights have row i e_i - M[:, i], M the Cartan matrix.

    A group whose |W| r^2 matrix entries pass ``_ENTRY_CAP`` is refused
    before any product, by its closed-form order: (r+1)! for A_r, 2^r r! for
    B_r and C_r, 2^(r-1) r! for D_r.
    """
    r = rs.rank
    order = math.factorial(r) * {"A": r + 1, "B": 2**r, "C": 2**r, "D": 2 ** (r - 1)}[rs.family]
    name = f"the Weyl group of {rs.name}"
    if order * r * r > _ENTRY_CAP:
        raise ResourceError(f"{name} has {order} elements, {order * r * r} matrix entries to close, "
                            f"more than the closure cap of {_ENTRY_CAP}")
    gens = [reflection_matrix(g) for g in rs.simple_roots]
    group = _close_group(gens, [np.eye(r)], name, rs.weights)
    if group.order != order:
        raise InternalError(f"closure of {name} has {group.order} elements, not {order}")
    return group


def _check_point(phi, rank: int) -> np.ndarray:
    """phi as a finite real or complex vector of length ``rank``."""
    try:
        phi = np.asarray(phi, dtype=complex if np.iscomplexobj(phi) else float)
    except (TypeError, ValueError) as exc:
        raise ArgumentError(f"phi must be numeric, got {phi!r}") from exc
    if phi.shape != (rank,):
        raise ArgumentError(f"phi must have length {rank}, got shape {phi.shape}")
    if not np.isfinite(phi).all():
        raise ArgumentError(f"phi must be finite, got {phi}")
    return phi


def weyl_function(rs: RootSystem, phi) -> complex:
    """w(phi) = prod over positive roots of sin(alpha.phi/2); complex-safe."""
    phi = _check_point(phi, rs.rank)
    half = rs.positive_roots @ phi / 2.0
    return complex(np.prod(np.sin(half)))


_INT64_MAX = int(np.iinfo(np.int64).max)


def _check_dominant(l, rank) -> np.ndarray:
    l = np.asarray(l)
    if l.shape != (rank,):
        raise ArgumentError(f"weight vector must have length {rank}, got shape {l.shape}")
    # on Python scalars, within np.allclose's tolerance of the nearest int64
    vals = l.tolist()
    li = [round(x) if isinstance(x, (int, float)) and math.isfinite(x) else -1 for x in vals]
    if any(not 0 <= k <= _INT64_MAX or abs(x - k) > 1e-8 + 1e-5 * k for x, k in zip(vals, li)):
        raise ArgumentError(f"dominant weight must be componentwise nonnegative integers, got {l}")
    return np.array(li)


def weight_orbit(group: WeylGroup, coords) -> np.ndarray:
    """Weyl orbits of integer weight coordinates ``coords``, (r,) or (L, r),
    in weight coordinates, axis first: shape (r, |W|) or (r, L, |W|)."""
    # float products of these small integers are exact, and run on BLAS
    axes = group.weight_matrices.transpose(2, 1, 0).astype(float)
    return (np.asarray(coords, dtype=float) @ axes).astype(np.int64)


def character(rs: RootSystem, l, phi) -> complex:
    """Weyl character chi_l(phi): the one-level ``orbit_sums``.

    On a Weyl wall the quotient is 0/0, and the value is its exact limit;
    at phi=0 that is the representation dimension.
    """
    levels = _check_dominant(l, rs.rank)[None]
    phi = _check_point(phi, rs.rank)
    sums, denoms = orbit_sums(rs, split_levels(rs, levels), phi[None])
    return complex(sums[0, 0]) / complex(denoms[0])


def wall_denominator(rs: RootSystem, phi, direction=None) -> tuple:
    """The wall rule: the positive roots on a wall at phi, where
    |sin(alpha.phi/2)| <= 1e-12 (complex-safe), and the leading Taylor
    coefficient of w there (w(phi) itself off every wall).

    On a wall a quotient by w is 0/0; its value is the limit, the ratio of
    the same coefficient of numerator and w.  With a ``direction`` d that is
    the s^k coefficient at phi + s d, k the number of wall roots; without
    one, the image under prod_beta (beta.grad) over the wall roots.  A wall
    root orthogonal to d has no limit along d: ``SingularPointError``.
    """
    half = rs.positive_roots @ phi / 2.0
    sines = np.sin(half)
    wall = np.abs(sines) <= _WALL_TOL
    roots = rs.positive_roots[wall]
    if not len(roots):
        return roots, complex(np.prod(sines))
    if direction is None:
        gram = roots @ roots.T
        slopes, scale = np.full(len(roots), 0.5), _permanent(gram.tobytes(), len(gram))
    else:
        slopes, scale = roots @ direction / 2.0, 1.0
        if (np.abs(slopes) <= _WALL_TOL).any():
            raise SingularPointError(
                f"phi lies on the wall of positive root {roots[np.argmin(np.abs(slopes))]}, "
                f"which is orthogonal to the limit direction {direction}: no limit there"
            )
    # each wall factor sin(beta.phi/2) contributes its first derivative
    sines = sines.astype(complex)
    sines[wall] = slopes * np.cos(half[wall])
    return roots, scale * complex(np.prod(sines))


@functools.lru_cache(maxsize=256)
def _permanent(data: bytes, k: int) -> float:
    """Permanent of the k x k float matrix with raw bytes ``data``, by
    Ryser's formula; memoized, as each wall-limit call asks again."""
    g = np.frombuffer(data).reshape(k, k)
    subsets = (np.arange(1, 2**k)[:, None] >> np.arange(k)) & 1
    return float((-1) ** k * ((-1.0) ** subsets.sum(axis=1) @ np.prod(subsets @ g.T, axis=1)))


def _distinct_rows(rows) -> tuple:
    """The distinct rows of an integer matrix, in lexicographic order, and
    each row's place among them, found as the distinct mixed-radix keys."""
    shifted = rows - rows.min(axis=0)
    span = shifted.max(axis=0) + 1
    _, first, place = np.unique(shifted @ (np.cumprod(span[::-1])[::-1] // span), return_index=True,
                                return_inverse=True)
    return rows[first], place.reshape(-1)


@functools.cache
def _cosets(rs: RootSystem) -> tuple:
    """The two coset spaces of the orbit sums over the Weyl group of ``rs``:
    (images, reps, cosets, signs), read-only.

    With h = r // 2, the head weights omega_j (j < h) are fixed exactly by
    the parabolic subgroup W_T = <s_k : k >= h>, so w's head images
    w(omega_j) depend only on its coset a = w W_T; likewise its tail images
    on b = w W_H, W_H = <s_k : k < h>.  ``images[j]`` are the distinct
    w(omega_j) in weight coordinates, ``reps[j]`` the index among them that
    each coset takes (cosets in W/W_T for j < h, in W/W_H for j >= h), and
    ``cosets`` (2, |W|) each w's (a, b).  W_H and W_T meet in the identity,
    so w is the one element of both its cosets: ``signs`` (|W/W_T|,
    |W/W_H|) holds parity(w) at (a, b) and 0 elsewhere, |W| nonzeros,
    complex for the product with the complex head table.
    """
    group = generate_weyl_group(rs)
    images, places = zip(*map(_distinct_rows, group.weight_matrices.transpose(1, 0, 2)))
    places, half = np.stack(places, axis=1), rs.rank // 2
    # a coset is known by its images, whose stabilizer is the parabolic subgroup
    (head_reps, a), (tail_reps, b) = _distinct_rows(places[:, :half]), _distinct_rows(places[:, half:])
    signs = np.zeros((len(head_reps), len(tail_reps)), dtype=complex)
    signs[a, b] = group.parities
    if np.count_nonzero(signs) != group.order:
        raise InternalError("two Weyl elements share both their head and tail cosets")
    cosets = (images, (*head_reps.T, *tail_reps.T), np.stack([a, b]), signs)
    for x in images + cosets[1] + cosets[2:]:
        x.flags.writeable = False
    return cosets


def split_levels(rs: RootSystem, levels) -> tuple:
    """The dominant weights l, rows of ``levels`` (L, r) in lexicographic
    order, as ``orbit_sums`` reads them: (m, phases, powers, heads, head,
    tails, tail, cosets, signs), m = l + 1 the weight coordinates of l + rho.

    ``phases`` holds v u per axis j, distinct value v of m_j and distinct
    image u = w(omega_j) (row j of w's weight matrix).  ``heads`` are the
    distinct value-coded first h = r // 2 axes, ``tails`` the rest, and
    ``head``, ``tail`` each level's row.  ``powers[j]`` places axis j's
    phases by value and coset: values x |W/W_T| on a head axis, values x
    |W/W_H| on a tail axis.  ``cosets`` and ``signs`` are the Weyl group's
    (``_cosets``).  The arrays are read-only, as the spectral tables share
    them.
    """
    images, reps, cosets, signs = _cosets(rs)
    m = np.asarray(levels, dtype=np.int64) + 1
    phases, powers, codes, offset = [], [], [], 0
    for distinct, rep, col in zip(images, reps, m.T):
        values, code = np.unique(col, return_inverse=True)
        phases.append(np.multiply.outer(values, distinct.astype(float)).reshape(-1, len(m.T)))
        powers.append(offset + len(distinct) * np.arange(len(values))[:, None] + rep)
        offset += len(phases[-1])
        codes.append(code.reshape(-1))
    codes, half = np.stack(codes, axis=1), rs.rank // 2
    split = (m, np.concatenate(phases), tuple(powers), *_distinct_rows(codes[:, :half]),
             *_distinct_rows(codes[:, half:]), cosets, signs)
    for x in split[:2] + split[2] + split[3:7]:
        x.flags.writeable = False
    return split


def _coset_tables(rs: RootSystem, split, phi) -> tuple:
    """H[p, head, a] = prod_{j<h} exp(i m_j u_j.phi_p) over the points phi
    (P, r), the distinct heads and the cosets a of W/W_T, u_j = w(omega_j)
    for any w in a, and T[p, b, tail] over the cosets b of W/W_H and the
    axes j >= h: one exp per phase entry and point.  A level's signed term
    at w is H[p, head, a(w)] T[p, b(w), tail] parity(w).  With no head axis
    (rank 1) H holds one head of ones per point."""
    _, phases, powers, heads, _, tails, _, _, signs = split
    factors = np.exp(1j * _matvecs(phases, _matvecs(rs.weights, phi)))
    head_table = tail_table = None
    for j, c in enumerate(heads.T):
        power = factors.take(powers[j], axis=1).take(c, axis=1)
        head_table = power if head_table is None else np.multiply(head_table, power, out=head_table)
    for j, c in enumerate(tails.T, len(heads.T)):
        power = factors.take(powers[j].T, axis=1).take(c, axis=2)
        tail_table = power if tail_table is None else np.multiply(tail_table, power, out=tail_table)
    if head_table is None:
        head_table = np.ones((len(phi), 1, len(signs)), dtype=complex)
    return head_table, tail_table


def _term_sums(split, head_table, tail_table, walls) -> np.ndarray:
    """Level sums at one point with each term multiplied out: H[head, a(w)]
    T[tail, b(w)] parity(w) times prod_beta i m.walls[beta, :, w], summed
    over w, in blocks of levels."""
    m, _, _, _, head, _, tail, (a, b), signs = split
    head_rows = head_table[:, a] * signs[a, b]
    tail_rows = tail_table[:, b]
    sums = np.empty(len(m), dtype=complex)
    step = max(1, _BLOCK // len(a))
    for start in range(0, len(m), step):
        rows = slice(start, start + step)
        terms = head_rows[head[rows]] * tail_rows[tail[rows]]
        for wall in walls:
            terms *= 1j * (m[rows] @ wall)
        sums[rows] = terms.sum(axis=1)
    return sums


def orbit_sums(rs: RootSystem, split, phi) -> tuple:
    """Signed orbit sums of every level of a ``split_levels`` at each point
    phi (P, r), (P, L), and the denominators (2i)^p w(phi), (P,), by the
    wall rule without a direction, so that on a Weyl wall the quotient of
    the two is its exact limit.

    A term is a head factor, which depends on w only through its coset in
    W/W_T, times a tail factor, which depends only on its coset in W/W_H,
    times parity(w).  So a level's signed sum is the entry (head, tail) of
    (H @ C) @ T, with H and T ``_coset_tables``' tables and C the cached
    ``signs``: heads x |W/W_T| x |W/W_H| and heads x |W/W_H| x tails
    multiply-adds per point, against heads x tails x |W| over the elements
    themselves (D4: 48 x 32 cosets for 192 elements).  The points are taken
    in blocks of about ``_BLOCK`` table entries, each point with the matrix
    products a single point gets, the second in blocks of about ``_BLOCK``
    points x heads x tails; phi may be complex.  On a wall each term gains
    prod_beta i beta.w(l + rho), which does not split: the terms are
    multiplied out, one point at a time.  The wall roots' reflections fix
    the exponential and flip the sign of that product, so the signed terms
    of a coset add up instead of cancelling, as powers of v.d would.  Each
    level's signed sum is formed before any level weight multiplies it:
    d_l exp(-lambda_l t) on the cancelling terms would lose digits.
    """
    phi = np.asarray(phi, dtype=complex if np.iscomplexobj(phi) else float)
    m, phases, _, heads, head, tails, tail, _, signs = split
    sines = np.sin(_matvecs(rs.positive_roots, phi) / 2.0)
    sums = np.empty((len(phi), len(m)), dtype=complex)
    denoms = np.prod(sines, axis=1) * (2j) ** rs.p
    # each level's place in a head block's product
    places = head * len(tails) + tail
    # the blocks as if off the walls, then each wall point multiplied out;
    # a point's entries in the phase, head and tail tables and in the products
    width = max(len(phases), len(heads) * max(signs.shape), len(tails) * (len(heads) + len(signs.T)))
    step = max(1, _BLOCK // width)
    on_wall = (np.abs(sines) <= _WALL_TOL).any(axis=1).tolist()
    for start in range(0, len(phi), step):
        at = slice(start, start + step)
        if all(on_wall[at]):
            continue
        head_table, tail_table = _coset_tables(rs, split, phi[at])
        count = len(head_table)
        left = (head_table.reshape(-1, len(signs)) @ signs).reshape(count, len(heads), -1)
        # the second product in blocks of heads, one matrix product per point
        chunk = max(1, _BLOCK // (count * len(tails)))
        for first in range(0, len(heads), chunk):
            lo, hi = np.searchsorted(head, [first, first + chunk])
            block = (left[:, first : first + chunk] @ tail_table).reshape(count, -1)
            sums[at, lo:hi] = block.take(places[lo:hi] - first * len(tails) if first else places[lo:hi], axis=1)
    for i in [i for i, wall in enumerate(on_wall) if wall]:
        roots, w = wall_denominator(rs, phi[i])
        head_table, tail_table = _coset_tables(rs, split, phi[i : i + 1])
        # beta.w(l + rho) = m.(G_w weights beta)
        walls = generate_weyl_group(rs).weight_matrices @ (rs.weights @ roots.T)
        sums[i] = _term_sums(split, head_table[0], tail_table[0].T, walls.T)
        denoms[i] = (2j) ** rs.p * w
    return sums, denoms


def _matvecs(matrix: np.ndarray, points: np.ndarray) -> np.ndarray:
    """matrix @ p for each row p of ``points`` (P, n), (P, m): one
    matrix-vector product per point, the one a single point gets, where a
    matrix product's entries would depend on P."""
    if len(points) == 1:
        return (matrix @ points[0])[None]
    return np.matmul(matrix, points[:, :, None])[:, :, 0]


def dimension(rs: RootSystem, l) -> int:
    """Representation dimension by the product formula, checked to be integral."""
    li = _check_dominant(l, rs.rank)
    nvec = (li + 1) @ rs.weights
    value = float(np.prod(rs.positive_roots @ nvec) / np.prod(rs.positive_roots @ rs.rho))
    nearest = round(value)
    if abs(value - nearest) > 1e-9 * max(1.0, abs(value)):
        raise InternalError(f"dimension formula gave non-integer {value} for l={li}")
    return int(nearest)


def casimir_eigenvalue(rs: RootSystem, l) -> float:
    """Laplacean eigenvalue (|l+rho|^2 - |rho|^2)/lambda."""
    li = _check_dominant(l, rs.rank)
    nvec = (li + 1) @ rs.weights
    return float((nvec @ nvec - rs.rho @ rs.rho) / rs.lam)


def weyl_order_from_intertwiner(rs: RootSystem) -> float:
    """N(W) via the identity (2^p / prod alpha.rho) * (D w)(0).

    By the denominator identity (2i)^p w is the signed orbit sum of
    exp(i rho.phi), and rho has weight coordinates all ones.  D = prod_alpha
    alpha.grad multiplies each term exp(i v.phi) by prod_alpha i alpha.v, so
    (D w)(0) = sum_w parity(w) prod_alpha i alpha.v / (2i)^p.
    """
    group = generate_weyl_group(rs)
    orbit = weight_orbit(group, np.ones(rs.rank, dtype=int))
    factors = np.prod(1j * ((rs.positive_roots @ rs.weights.T) @ orbit), axis=0)
    value = complex(factors @ group.parities) / (2j) ** rs.p
    scale = 2.0**rs.p / float(np.prod(rs.positive_roots @ rs.rho))
    result = scale * value
    if abs(result.imag) > 1e-9 * max(1.0, abs(result)):
        raise InternalError(f"intertwiner order identity returned non-real {result}")
    return result.real
