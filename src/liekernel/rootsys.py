"""Classical root systems and the derived constants everything else consumes.

Simple roots are stored as explicit Cartesian vectors in rank-dimensional
Euclidean space.  The A family at every rank is one rule, the pair frame of
the sum-zero hyperplane, on which the difference of each weight pair of the
defining representation is an axis; for A1-A3 it gives the coordinates of
the non-compact group catalogue's reference tables bit for bit, as the
literal B2 and C3 frames do, so winding vectors and eigenvalue phrases
compare verbatim.  The other systems use standard orthogonal realizations.

Every root is a Weyl image of a simple root, so the roots are closed in
integer simple-root coordinates by ``integer_orbit``, which also closes the
Weyl groups (``weyl._close_group``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ArgumentError, ConfigurationError, InternalError

__all__ = ["RootSystem", "build_root_system", "cartan_matrix", "rescale"]

_SORT_DECIMALS = 10  # positive roots are sorted by height, then coordinates


@dataclass(frozen=True)
class RootSystem:
    """Root data of one classical family at fixed rank.

    Attributes
    ----------
    family : str
        One of ``"A" "B" "C" "D"``.
    rank : int
        Rank r of the algebra (dimension of the root space).
    simple_roots : ndarray, shape (r, r)
        Simple roots as rows.
    positive_roots : ndarray, shape (p, r)
        All positive roots, ordered by height then coordinates.
    highest_root : ndarray, shape (r,)
    highest_root_coeffs : ndarray of int, shape (r,)
        Expansion of the highest root over the simple roots.
    weights : ndarray, shape (r, r)
        Fundamental weights as rows; ``simple_roots[i] @ weights[j]``
        equals ``|gamma_i|^2/2 * delta_ij``.
    rho : ndarray, shape (r,)
        Half sum of the positive roots.
    lam : float
        Scale factor 2/r * sum of squared positive-root lengths.
    n : int
        Group dimensionality, n = 2p + r.
    p : int
        Number of positive roots.
    """

    family: str
    rank: int
    simple_roots: np.ndarray
    positive_roots: np.ndarray
    highest_root: np.ndarray
    highest_root_coeffs: np.ndarray
    weights: np.ndarray
    rho: np.ndarray
    lam: float
    n: int
    p: int

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def coroots(self) -> np.ndarray:
        """Simple coroots 2*gamma_i/|gamma_i|^2 as rows.

        Squared norms are snapped to the nearest quarter-integer (they are
        exactly 1 or 2 in every stored convention, up to rescale factors),
        which keeps integer coroot components free of last-bit noise.
        """
        g = self.simple_roots
        norms = (g * g).sum(axis=1, keepdims=True)
        snapped = np.round(norms * 4.0) / 4.0
        norms = np.where(np.abs(snapped - norms) < 1e-12, snapped, norms)
        return 2.0 * g / norms

    @functools.cached_property
    def _key(self) -> tuple:
        return (self.family, self.rank, self.simple_roots.round(12).tobytes())

    def __eq__(self, other):
        return isinstance(other, RootSystem) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"RootSystem({self.name}, n={self.n}, p={self.p})"


def _pair_frame_roots(rank: int) -> np.ndarray:
    """A_r simple roots (e_i - e_i+1)/sqrt(2) in the pair frame of the sum-zero
    hyperplane of R^(r+1): axis 2k is (e_2k - e_2k+1)/sqrt(2), and axis 2k+1
    contrasts the coordinates before 2k+2 with the one or two that follow.

    With v the integer direction of axis j, entry (i, j) is
    sign(d) sqrt(d^2 / 2|v|^2), d = v_i - v_i+1: one correctly rounded integer
    quotient before the square root, so A1-A3 reproduce the reference
    tables' 1, 1/2, sqrt(2)/2 and sqrt(3)/2 bit for bit.
    """
    n = rank + 1
    g = np.zeros((rank, rank))
    for j in range(rank):
        lo, hi = (j, j + 2) if j % 2 == 0 else (0, min(j + 3, n))
        head, tail = j + 1 - lo, hi - j - 1  # coordinates lo..j against j+1..hi-1
        v = [0] * lo + [tail] * head + [-head] * tail + [0] * (n - hi)
        norm2 = 2 * sum(x * x for x in v)
        for i in range(rank):
            d = v[i] - v[i + 1]
            g[i, j] = math.copysign(math.sqrt(d * d / norm2), d)
    return g


def _simple_roots(family: str, rank: int) -> np.ndarray:
    """Cartesian simple roots in the package's fixed per-family convention."""
    s2h = np.sqrt(2.0) / 2.0  # exact half of sqrt(2); doubling is lossless
    if family == "A":
        return _pair_frame_roots(rank)
    if family == "B":
        g = np.zeros((rank, rank))
        for i in range(rank - 1):
            g[i, i], g[i, i + 1] = 1.0, -1.0
        g[rank - 1, rank - 1] = 1.0
        return g
    if family == "C":
        if rank == 3:
            return np.array(
                [
                    [1.0, 0.0, 0.0],
                    [-0.5, 0.5, -s2h],
                    [0.0, 0.0, 2 * s2h],
                ]
            )
        # orthogonal axes f_i of squared length 1/2
        g = np.zeros((rank, rank))
        for i in range(rank - 1):
            g[i, i], g[i, i + 1] = s2h, -s2h
        g[rank - 1, rank - 1] = 2 * s2h
        return g
    if family == "D":
        g = np.zeros((rank, rank))
        for i in range(rank - 1):
            g[i, i], g[i, i + 1] = 1.0, -1.0
        g[rank - 1, rank - 2] = 1.0
        g[rank - 1, rank - 1] = 1.0
        return g
    raise ConfigurationError(f"unknown family {family!r}; supported: A, B, C, D")


def integer_orbit(gens, start, name: str, cap: int | None = None) -> tuple:
    """Orbit of the integer arrays ``start`` under right multiplication by
    the integer matrices ``gens``, breadth first (start items, then each
    item's images by the generators in order), items known by their bytes:
    (items stacked, ``sources``), ``sources[k]`` item k's (parent, generator)
    or (index in ``start``, -1).  Past ``cap`` items: ``InternalError``."""
    gens = np.asarray(gens, dtype=np.int64)
    seen, levels, sources = set(), [], []
    candidates, base = np.asarray(start, dtype=np.int64), None
    while len(candidates):
        fresh = []
        for k, x in enumerate(candidates):
            key = x.tobytes()
            if key not in seen:
                if cap is not None and len(seen) >= cap:
                    raise InternalError(f"closure of {name} exceeded {cap} elements; generators look malformed")
                seen.add(key)
                fresh.append(k)
                sources.append((k, -1) if base is None else (base + k // len(gens), k % len(gens)))
        base = len(seen) - len(fresh)
        levels.append(candidates[fresh])
        # the next candidates: each item of this level times each generator
        images = np.moveaxis(np.tensordot(levels[-1], gens, (-1, 1)), -2, 1)
        candidates = images.reshape(-1, *levels[-1].shape[1:])
    return np.concatenate(levels), sources


def _cartan(g: np.ndarray, name: str) -> np.ndarray:
    """``cartan_matrix`` of the simple roots ``g`` (rows)."""
    raw = 2.0 * (g @ g.T) / (g * g).sum(axis=1, keepdims=True)
    m = np.round(raw).astype(int)
    if not np.allclose(raw, m, atol=1e-9):
        raise InternalError(f"non-integral Cartan matrix for {name}")
    return m


@functools.cache
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system of a classical family, once per (family,
    rank) as given; its arrays are read-only, as every caller shares them.
    A changed system is a new one (``dataclasses.replace``, as ``rescale``).

    Parameters
    ----------
    family : str
        ``"A"``, ``"B"``, ``"C"`` or ``"D"``.
    rank : int
        Rank; A/B/C need rank >= 1 (B/C are degenerate below 2 and are
        accepted from 2), D needs rank >= 3.

    Returns
    -------
    RootSystem
    """
    family = family.upper()
    if family not in "ABCD" or len(family) != 1:
        raise ConfigurationError(f"unknown family {family!r}; supported: A, B, C, D")
    if rank < 1:
        raise ConfigurationError(f"rank must be >= 1, got {rank}")
    if family in "BC" and rank < 2:
        raise ConfigurationError(f"{family}-family needs rank >= 2, got {rank}")
    if family == "D" and rank < 3:
        raise ConfigurationError(f"D-family needs rank >= 3, got {rank} (D3 ~ A3 is the smallest)")

    simple = _simple_roots(family, rank)
    # the simple reflections b -> b - (M b)_i e_i on rows b of simple-root coordinates
    eye = np.eye(rank, dtype=np.int64)
    reflections = eye - _cartan(simple, f"{family}{rank}")[:, :, None] * eye[:, None, :]
    roots, _ = integer_orbit(reflections, eye, f"the roots of {family}{rank}")
    coeffs = roots[(roots >= 0).all(axis=1)]
    positive = coeffs @ simple
    order = np.lexsort(np.vstack([np.round(positive, _SORT_DECIMALS).T[::-1], coeffs.sum(axis=1)]))
    coeffs, positive = coeffs[order], positive[order]
    p = len(positive)

    n = 2 * p + rank
    rho = positive.sum(axis=0) / 2.0
    lam = 2.0 / rank * float((positive**2).sum())
    highest = positive[-1]
    highest_coeffs = coeffs[-1]
    if (highest_coeffs <= 0).any():
        raise InternalError(f"highest-root coefficients not positive: {highest_coeffs}")

    # fundamental weights from gamma_i . w_j = (gamma_i^2/2) delta_ij
    half_norms = np.diag((simple**2).sum(axis=1) / 2.0)
    weights = np.linalg.solve(simple, half_norms).T

    rs = RootSystem(
        family=family,
        rank=rank,
        simple_roots=simple,
        positive_roots=positive,
        highest_root=highest,
        highest_root_coeffs=highest_coeffs,
        weights=weights,
        rho=rho,
        lam=lam,
        n=n,
        p=p,
    )
    _validate(rs)
    for a in (simple, positive, highest, highest_coeffs, weights, rho):
        a.flags.writeable = False
    return rs


def _validate(rs: RootSystem) -> None:
    if rs.p != (rs.n - rs.rank) // 2:
        raise InternalError("positive-root count inconsistent with dimensionality")
    ratio = float(rs.rho @ rs.rho) / rs.lam
    if abs(ratio - rs.n / 24.0) > 1e-12:
        raise InternalError(f"rho^2/lambda = {ratio} != n/24 = {rs.n / 24} for {rs.name}")


def cartan_matrix(rs: RootSystem) -> np.ndarray:
    """Integer Cartan matrix M_jk = 2 gamma_j.gamma_k / gamma_j^2."""
    return _cartan(rs.simple_roots, rs.name)


def rescale(rs: RootSystem, factor: float) -> RootSystem:
    """Rescale every root and weight by ``factor`` (lambda scales by factor^2)."""
    if not factor > 0:
        raise ArgumentError(f"rescale factor must be positive, got {factor}")
    return replace(
        rs,
        simple_roots=rs.simple_roots * factor,
        positive_roots=rs.positive_roots * factor,
        highest_root=rs.highest_root * factor,
        weights=rs.weights * factor,
        rho=rs.rho * factor,
        lam=rs.lam * factor**2,
    )
