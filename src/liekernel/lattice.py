"""Winding lattices, domain sublattices, and alcove reduction.

The compact winding lattice is spanned by the simple coroots; translations of
the radial vector by 2*pi times a lattice point leave every central function
unchanged.  On a non-compact evolution domain only the sublattice that
vanishes along the imaginary coordinate directions survives.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ArgumentError, InternalError, ResourceError
from .rootsys import RootSystem
from .weyl import WeylElement, WeylGroup, _check_point, generate_weyl_group, reflection_matrix

__all__ = [
    "REAL",
    "IMAGINARY",
    "RadialPoint",
    "WindingLattice",
    "winding_lattice",
    "domain_sublattice",
    "enumerate_points",
    "canonicalize",
    "reduce_lexmax",
]

REAL = "R"
IMAGINARY = "I"

_POINT_CAP = 10**7
_WALL_EPS = 1e-12


def _check_signature(signature) -> None:
    if any(s not in (REAL, IMAGINARY) for s in signature):
        raise ArgumentError(f"signature entries must be 'R' or 'I', got {signature}")


@dataclass(frozen=True)
class RadialPoint:
    """Radial coordinates with a per-axis real/imaginary signature.

    ``values[j]`` stores phi_j on REAL axes and theta_j on IMAGINARY axes;
    the complex radial vector has component phi_j or i*theta_j respectively.
    """

    values: tuple
    signature: tuple

    def __post_init__(self):
        try:
            values, signature = tuple(self.values), tuple(self.signature)
        except TypeError as exc:
            raise ArgumentError(f"values and signature must be sequences, got {self.values!r}") from exc
        if len(values) != len(signature):
            raise ArgumentError("values and signature must have equal length")
        _check_signature(signature)
        try:
            object.__setattr__(self, "values", tuple(float(v) for v in values))
        except (TypeError, ValueError) as exc:
            raise ArgumentError(f"radial values must be real numbers, got {self.values}") from exc
        object.__setattr__(self, "signature", signature)
        if not all(map(math.isfinite, self.values)):
            raise ArgumentError(f"radial values must be finite, got {self.values}")

    @classmethod
    def real(cls, values) -> "RadialPoint":
        values = np.atleast_1d(np.asarray(values, dtype=float))
        return cls(tuple(values), (REAL,) * len(values))

    @classmethod
    def mixed(cls, values, signature) -> "RadialPoint":
        values = np.atleast_1d(np.asarray(values, dtype=float))
        return cls(tuple(values), tuple(signature))

    @property
    def rank(self) -> int:
        return len(self.values)

    @property
    def real_axes(self) -> tuple:
        return tuple(j for j, s in enumerate(self.signature) if s == REAL)

    @property
    def imag_axes(self) -> tuple:
        return tuple(j for j, s in enumerate(self.signature) if s == IMAGINARY)

    @property
    def is_compact(self) -> bool:
        return not self.imag_axes

    def complex_vector(self) -> np.ndarray:
        return np.asarray(self.values) * _axis_factors(self.signature)

    def phi_vector(self) -> np.ndarray:
        """Real parts as a full-rank vector (zeros on imaginary axes)."""
        return np.array([v if s == REAL else 0.0 for v, s in zip(self.values, self.signature)])

    def theta_vector(self) -> np.ndarray:
        """Imaginary parts as a full-rank vector (zeros on real axes)."""
        return np.array([v if s == IMAGINARY else 0.0 for v, s in zip(self.values, self.signature)])


@functools.cache
def _axis_factors(signature: tuple) -> np.ndarray:
    """1 on the real axes and i on the imaginary ones, read-only."""
    factors = np.where(np.array(signature) == REAL, 1.0 + 0j, 1j)
    factors.flags.writeable = False
    return factors


@dataclass(frozen=True)
class WindingLattice:
    """Integer lattice of winding vectors inside root space.

    ``generators`` are the basis vectors (rows); ``coeffs`` expresses each
    basis vector as integer combinations of the parent compact lattice's
    simple coroots, so sublattices remember where they came from.
    """

    generators: np.ndarray
    coeffs: np.ndarray

    @functools.cached_property
    def _key(self) -> tuple:
        return (self.generators.shape, self.generators.tobytes(), self.coeffs.tobytes())

    def __eq__(self, other):
        return isinstance(other, WindingLattice) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    @property
    def dim(self) -> int:
        return len(self.generators)

    @property
    def rank(self) -> int:
        return self.generators.shape[1] if self.generators.ndim == 2 else 0


@functools.cache
def winding_lattice(rs: RootSystem) -> WindingLattice:
    """Full compact winding lattice spanned by the simple coroots."""
    return WindingLattice(generators=rs.coroots, coeffs=np.eye(rs.rank, dtype=int))


def _rationalize(x: float) -> Fraction:
    frac = Fraction(x).limit_denominator(10**6)
    if abs(float(frac) - x) > 1e-9:
        raise InternalError(f"lattice component {x} is not rational after scaling")
    return frac


# ---------------------------------------------------------------------------
# exact integer core: matrices are lists of rows of ints or Fractions
# ---------------------------------------------------------------------------


def _transpose(mat) -> list:
    return [list(col) for col in zip(*mat)]


def _lcm_denominators(entries) -> int:
    return math.lcm(*(x.denominator for x in entries))


def _gcdex(a: int, b: int) -> tuple:
    """(u, v, d) with u a + v b = d = gcd(a, b) >= 0, and v = 0 when a divides b."""
    if a and b % a == 0:
        return (1 if a > 0 else -1), 0, abs(a)
    r0, r1, u0, u1, v0, v1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1, u0, u1, v0, v1 = r1, r0 - q * r1, u1, u0 - q * u1, v1, v0 - q * v1
    return (-u0, -v0, -r0) if r0 < 0 else (u0, v0, r0)


def _hermite_normal_form(mat) -> list:
    """Column Hermite normal form of an integer matrix (Cohen, Algorithm 2.4.5).

    Pivots sit in the rightmost columns, rows are cleared from the bottom up,
    each pivot is positive and each entry right of a pivot lies in
    ``[0, pivot)``.  Only the columns that received a pivot are returned, so
    the result is the unique basis of the column lattice.
    """
    a = [[int(x) for x in row] for row in mat]
    n = len(a[0]) if a else 0
    k = n
    for i in range(len(a) - 1, -1, -1):
        if k == 0:
            break
        k -= 1
        for j in range(k - 1, -1, -1):
            if a[i][j]:
                u, v, d = _gcdex(a[i][k], a[i][j])
                r, s = a[i][k] // d, a[i][j] // d
                for row in a:
                    row[k], row[j] = u * row[k] + v * row[j], r * row[j] - s * row[k]
        if a[i][k] < 0:
            for row in a:
                row[k] = -row[k]
        b = a[i][k]
        if b == 0:
            k += 1
            continue
        for j in range(k + 1, n):
            q = a[i][j] // b
            for row in a:
                row[j] -= q * row[k]
    return [row[k:] for row in a]


def _kernel(mat) -> list:
    """Basis of the integer kernel {c in Z^n : mat @ c = 0}, one vector per row.

    Each row of ``mat`` (ints or Fractions) is scaled to integers.  The column
    Hermite normal form of the identity stacked above ``mat`` clears the
    bottom rows first, so the columns left without a pivot there vanish on
    ``mat``.  The column operations are unimodular, so the identity part of
    those columns is a basis of the whole kernel lattice: saturated by
    construction.
    """
    n = len(mat[0])
    stacked = [[int(i == j) for j in range(n)] for i in range(n)]
    for row in mat:
        mult = _lcm_denominators(row)
        stacked.append([int(x * mult) for x in row])
    return [col[:n] for col in _transpose(_hermite_normal_form(stacked)) if not any(col[n:])]


def domain_sublattice(lat: WindingLattice, domain) -> WindingLattice:
    """Restrict a winding lattice to vectors vanishing on imaginary axes.

    ``domain`` is anything carrying a ``signature`` attribute or a signature
    sequence itself.  The resulting basis is unique (row Hermite normal form
    of the integer coefficient matrix), which keeps emitted tables stable.
    """
    signature = tuple(getattr(domain, "signature", domain))
    _check_signature(signature)
    if len(signature) != lat.rank:
        raise ArgumentError(
            f"signature rank {len(signature)} does not match lattice rank {lat.rank}"
        )
    return _sublattice(lat, signature)


@functools.cache
def _sublattice(lat: WindingLattice, signature: tuple) -> WindingLattice:
    imag_axes = [j for j, s in enumerate(signature) if s == IMAGINARY]
    if not imag_axes:
        return lat

    rows = []
    for j in imag_axes:
        row = [lat.generators[i][j] for i in range(lat.dim)]
        nonzero = [abs(x) for x in row if abs(x) > 1e-12]
        scale = min(nonzero) if nonzero else 1.0
        rows.append([_rationalize(x / scale) for x in row])
    basis = _kernel(rows)
    if not basis:
        return WindingLattice(
            generators=np.zeros((0, lat.rank)), coeffs=np.zeros((0, lat.coeffs.shape[1]), dtype=int)
        )
    rel = np.array(_transpose(_hermite_normal_form(_transpose(basis))), dtype=int)
    return WindingLattice(generators=rel.astype(float) @ lat.generators, coeffs=rel @ lat.coeffs)


def _ellipsoid_points(gens, x0, scale: float, radius2: float, lower: int | None = None,
                      cap: int = _POINT_CAP):
    """Integer c with |x0 + scale * c @ gens|^2 <= radius2 (Fincke-Pohst).

    With gram = L L^T and y = c - c_min (c_min the real minimizer, perp the
    residual off the span) the squared norm is |perp|^2 + |L^T y|^2, and
    (L^T y)_i involves only y_i..y_last.  Coordinates are fixed from the last
    one down within the budget the fixed ones leave, one vectorized layer at
    a time, each checked against ``cap`` before it is allocated, so a search
    past the cap is refused at its first layer of more than ``cap``
    candidates.  ``lower`` bounds every coefficient from below.  Returns
    ``(coeffs, d2)`` with ``coeffs`` in lexicographic order.
    """
    basis = scale * gens
    dim = len(basis)
    gram = basis @ basis.T
    chol = np.linalg.cholesky(gram)
    c_min = np.linalg.solve(gram, -(basis @ x0))
    perp = x0 + c_min @ basis
    coeffs = np.zeros((1, 0), dtype=int)
    rest = np.array([radius2 - perp @ perp])
    for i in range(dim - 1, -1, -1):
        center = c_min[i] - (coeffs - c_min[i + 1 :]) @ chol[i + 1 :, i] / chol[i, i]
        # the margin keeps rounding from dropping a boundary point; the norm
        # test at the end is the exact one
        reach = np.sqrt(np.maximum(rest, 0.0)) / chol[i, i] + 1e-9
        lo = np.ceil(center - reach)
        if lower is not None:
            lo = np.maximum(lo, lower)
        # counted in floats, so a reach beyond the integers is refused too
        counts = np.maximum(np.floor(center + reach) - lo + 1, 0)
        total = counts.sum()
        if not total <= cap:
            raise ResourceError(
                f"lattice cutoff needs ~{total:.3g} candidate points (> {cap}); "
                "increase tol or shorten the time step"
            )
        lo, counts, total = lo.astype(int), counts.astype(int), int(total)
        parent = np.repeat(np.arange(len(counts)), counts)
        ci = np.arange(total) + np.repeat(lo - np.cumsum(counts) + counts, counts)
        rest = rest[parent] - (chol[i, i] * (ci - center[parent])) ** 2
        coeffs = np.column_stack([ci, coeffs[parent]])
    pts = coeffs @ gens
    d2 = ((x0 + scale * pts) ** 2).sum(axis=1)
    keep = d2 <= radius2
    coeffs, d2 = coeffs[keep], d2[keep]
    order = np.lexsort(coeffs.T[::-1])
    return coeffs[order], d2[order]


# (lattice, window) pairs whose offsets stay resident: a compact grid, a
# (domain, damping) pair or a CLI grid reuses one window for every point
_WINDOW_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_WINDOW_CACHE_SIZE)
def _window_offsets(lat: WindingLattice, window: float) -> tuple:
    """Integer offsets c with |2 pi c @ gens| <= R + sqrt(R^2 + window).

    R = pi max_{s in {-1, 1}^dim} |s @ gens| is the radius of the Babai cell:
    rounding the real minimizer's coordinates moves the point by at most R.
    The closest lattice point is therefore within R of the minimizer, every
    point the window keeps within sqrt(R^2 + window) of it, and so within
    the offsets' reach of the rounded point.  The offsets come in
    lexicographic order as float rows, one per coordinate (dim x n, exact
    small integers), with their norms |2 pi c @ gens| in single precision
    and the projection (gens gens^T)^-1 gens onto the coordinates.
    """
    gens = lat.generators
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=lat.dim)))
    cell = np.pi * math.sqrt(((signs @ gens) ** 2).sum(axis=1).max())
    reach = cell + math.sqrt(cell**2 + window)
    # the margin covers the rounding of the distances; extra offsets only
    # cost candidates that the distance test drops
    coeffs, d2 = _ellipsoid_points(gens, np.zeros(lat.rank), 2.0 * np.pi, reach**2 * (1.0 + 1e-9))
    rows = np.ascontiguousarray(coeffs.T, dtype=float)
    return rows, np.sqrt(d2).astype(np.float32), np.linalg.solve(gens @ gens.T, gens)


def enumerate_points(lat: WindingLattice, phi, t_like: float, tol: float, lam: float = 1.0) -> np.ndarray:
    """Lattice points whose Gaussian path weight survives a relative cutoff.

    A point m is kept while exp(-lam |phi + 2 pi m|^2 / (4 t_like)) is at
    least ``tol`` times the largest such weight.  Returns the kept points of
    ``_window_select`` as an (N, rank) float array, the transpose of their
    (rank, N) coordinate rows ``gens.T @ coeffs``, in lattice order:
    lexicographic in their integer coordinates over the basis of ``lat``.
    """
    window = _window(t_like, tol, lam)
    x0 = _check_point(phi.phi_vector() if isinstance(phi, RadialPoint) else phi, lat.rank).real[None]
    return (lat.generators.T @ _window_select(lat, x0, window, coeffs=True)[4]).T


def _window(t_like: float, tol: float, lam: float) -> float:
    """The squared distance 4 t_like log(1/tol) / lam by which a kept point
    may exceed the closest one, after checking the three arguments."""
    if not 0.0 < tol < 1.0:
        raise ArgumentError(f"tol must lie in (0, 1), got {tol}")
    if not 0.0 < t_like < math.inf:
        raise ArgumentError(f"t_like must be positive and finite, got {t_like}")
    if not 0.0 < lam < math.inf:
        raise ArgumentError(f"lam must be positive and finite, got {lam}")
    return 4.0 * t_like * np.log(1.0 / tol) / lam


@functools.lru_cache(maxsize=_WINDOW_CACHE_SIZE)
def _axis_table(lat: WindingLattice, window: float) -> tuple:
    """The window's axis grid: for each axis j, the distinct values of the
    coordinate (gens.T @ offsets)_j over the cached offsets, one
    ``np.unique`` per axis, laid end to end in one table of T entries.

    Returns ``(index, reps, flat, axes)``: ``index`` (rank x n) gives each
    offset's entry per axis, axis j's entries in the slice ``axes[j]``;
    ``reps`` (dim x T) holds the integer coefficients of one offset per
    entry, and ``flat`` each entry's position in the (rank x T) product
    ``gens.T @ reps``.  So an offset's coordinate on axis j is its entry's:
    ``(gens.T @ reps).take(flat)[index[j]]`` equals ``(gens.T @ offsets)[j]``
    bit for bit.  The arrays are read-only.
    """
    offsets = _window_offsets(lat, window)[0]
    firsts, inverses = [], []
    for row in lat.generators.T @ offsets:
        _, first, inverse = np.unique(row, return_index=True, return_inverse=True)
        firsts.append(first)
        inverses.append(inverse)
    starts = np.cumsum([0] + [len(first) for first in firsts]).tolist()
    size = starts[-1]
    # the narrowest index type: the gathers read index rows of window size
    dtype = np.uint8 if size <= 2**8 else np.uint16 if size <= 2**16 else np.intp
    index = np.array([inverse + start for inverse, start in zip(inverses, starts)], dtype=dtype)
    reps = offsets[:, np.concatenate(firsts)]
    axes = tuple(slice(start, stop) for start, stop in zip(starts, starts[1:]))
    flat = np.concatenate([np.arange(a.start, a.stop) + j * size for j, a in enumerate(axes)])
    for a in (index, reps, flat):
        a.flags.writeable = False
    return index, reps, flat, axes


def _window_blocks(lat: WindingLattice, x0: np.ndarray, window: float, block: int):
    """The points x0 (P, rank) as slices for ``_window_select``: runs of
    consecutive points whose real minimizers round to the same centre, one
    matrix product for all points, cut so that a block's points times the
    window's offsets stay within ``block`` entries."""
    if not lat.dim or len(x0) == 1:
        return [slice(start, start + block) for start in range(0, len(x0), block)]
    offsets, _, proj = _window_offsets(lat, float(window))
    centres = np.round(proj @ (-x0.T / (2.0 * np.pi)))
    cuts = (np.flatnonzero((centres[:, 1:] != centres[:, :-1]).any(axis=0)) + 1).tolist()
    step = max(1, block // offsets.shape[1])
    return [slice(start, min(start + step, hi)) for lo, hi in zip([0, *cuts], [*cuts, len(x0)])
            for start in range(lo, hi, step)]


@functools.lru_cache(maxsize=_WINDOW_CACHE_SIZE)
def _centre_table(lat: WindingLattice, window: float, centre: tuple) -> tuple:
    """What a window centre c gives each point rounded to it, read-only:
    the shift 2 pi c @ gens, each axis-table entry's coordinate
    2 pi (gens.T @ (reps + c)) and the entry's axis."""
    _, reps, flat, _ = _axis_table(lat, window)
    base = np.array(centre)
    coords = lat.generators.T @ (reps + base[:, None])
    coords *= 2.0 * np.pi
    table = (2.0 * np.pi * (base @ lat.generators), coords.take(flat), flat // reps.shape[1])
    for a in table:
        a.flags.writeable = False
    return table


def _window_select(lat: WindingLattice, x0: np.ndarray, window: float, coeffs: bool = False) -> tuple:
    """The points of a checked window at the real points x0 (P, rank) whose
    minimizers round to the same centre, that of the first point, on the
    window's axis table: ``(x, index, axes, keep, kept)``.

    ``x`` (P, T) holds each point's real coordinates x_j = 2 pi v + x0_j of
    the table's values v, axis j's in ``x[:, axes[j]]``, and ``index``
    (rank x N) the entries of the candidates some point keeps, one row per
    axis, so that candidate m's coordinates at point p are
    ``x[p, index[:, m]]``.  ``keep`` (P, N) marks the candidates each point
    keeps, the set it keeps alone; None for a lone point, which keeps them
    all.  ``kept`` is the candidates' integer coefficients over the basis
    (dim x N) with ``coeffs``, else None.  The candidates come in lattice
    order.

    The candidates are the window's cached offsets around the centre, out
    to the norm d0 + sqrt(d0^2 + window) that a kept point's offset cannot
    pass, d0 the farthest point's distance from the centre; adding the
    integer centre keeps the order.  A point's closest lattice point is
    among its own candidates, so the candidates of the others change
    neither its radius nor the set it keeps.  The table's coordinates are
    formed from the absolute coefficients of one offset per entry, as a
    point's are from its own, and a candidate's squared distance is the sum
    of its gathered squares, in axis order.  Where at most one axis takes more than one
    value, the entry's offset is the point's own: each point's coordinates
    and distance are those its coefficients give, bit for bit, whatever the
    rounding of the centre.
    """
    if lat.dim == 0:
        axes = tuple(slice(j, j + 1) for j in range(lat.rank))
        return x0.copy(), np.arange(lat.rank)[:, None], axes, None, np.zeros((0, 1))
    window = float(window)
    offsets, norms, proj = _window_offsets(lat, window)
    index, _, _, axes = _axis_table(lat, window)
    base = np.round(proj @ (-x0[0] / (2.0 * np.pi)))
    shift, coords, entry_axes = _centre_table(lat, window, tuple(base.tolist()))
    near = x0 + shift
    # the farthest point's reach covers every point's
    d0 = math.sqrt((near * near).sum(axis=1).max())
    # the margin covers the slack of the distance test below and the norms' rounding
    near_enough = norms <= (d0 + math.sqrt(d0 * d0 + window)) * (1.0 + 1e-6) + 1e-6
    x = coords + x0.take(entry_axes, axis=1)
    squares = x * x
    # the window-sized arrays are filled in place and freed once read:
    # fresh arrays of this size cost more in page faults than in arithmetic
    # (every entry is in range: mode "clip" only spares the buffered copy
    # that mode "raise" makes of ``out``)
    rows = index.compress(near_enough, axis=1)
    d2 = squares.take(rows[0], axis=1)
    if len(rows) > 1:
        term = np.empty_like(d2)
        for row in rows[1:]:
            d2 += squares.take(row, axis=1, out=term, mode="clip")
        del term
    radius2 = d2.min(axis=1) + window
    keep = d2 <= (radius2 + 1e-12 * np.maximum(1.0, radius2))[:, None]
    del d2
    used = keep[0] if len(keep) == 1 else keep.any(axis=0)
    kept = None
    if coeffs:
        kept = offsets.compress(near_enough, axis=1).compress(used, axis=1)
        kept += base[:, None]
    return x, rows.compress(used, axis=1), axes, None if len(keep) == 1 else keep.compress(used, axis=1), kept


def _coeffs_of(lat: WindingLattice, vector: np.ndarray) -> np.ndarray:
    sol, *_ = np.linalg.lstsq(lat.generators.T, vector, rcond=None)
    rounded = np.round(sol)
    if not np.allclose(sol, rounded, atol=1e-8) or not np.allclose(
        rounded @ lat.generators, vector, atol=1e-8
    ):
        raise InternalError(f"vector {vector} is not a lattice point")
    return rounded.astype(int)


def canonicalize(rs: RootSystem, phi: RadialPoint) -> tuple:
    """Reduce a radial point to its canonical representative.

    Compact points land in the Weyl alcove (gamma.phi >= 0 for simple roots,
    highest_root.phi <= 2 pi).  Mixed points get their real coordinates
    reduced modulo the domain sublattice, then the lexicographically largest
    image under the signature-preserving Weyl elements is chosen.  Returns
    ``(canonical, sigma, m)`` with ``canonical = sigma(phi + 2 pi m)`` and
    ``m`` integer coefficients over the simple coroots.
    """
    if phi.rank != rs.rank:
        raise ArgumentError(f"radial point has rank {phi.rank}, the root system has rank {rs.rank}")
    if phi.is_compact:
        return _canonicalize_compact(rs, winding_lattice(rs), phi)
    return _reduce_lexmax(_weyl_tables(rs, phi.signature), phi)


@functools.cache
def _weyl_tables(rs: RootSystem, signature: tuple) -> tuple:
    """``canonicalize``'s reduction tables for one signature."""
    return _lexmax_tables(generate_weyl_group(rs), winding_lattice(rs), signature)


def _canonicalize_compact(rs: RootSystem, lat: WindingLattice, phi: RadialPoint):
    x = np.asarray(phi.values, dtype=float)
    sigma = np.eye(rs.rank)
    mcoeffs = np.zeros(rs.rank, dtype=int)
    highest = rs.highest_root
    hvee = 2.0 * highest / (highest @ highest)
    hvee_coeffs = _coeffs_of(lat, hvee)
    simple_refl = [reflection_matrix(g) for g in rs.simple_roots]
    refl_h = reflection_matrix(highest)

    for _ in range(100000):
        moved = False
        for g, refl in zip(rs.simple_roots, simple_refl):
            if g @ x < -_WALL_EPS:
                x = refl @ x
                sigma = refl @ sigma
                moved = True
        if highest @ x > 2.0 * np.pi + _WALL_EPS:
            x = refl_h @ x + 2.0 * np.pi * hvee
            sigma = refl_h @ sigma
            mcoeffs = mcoeffs + _coeffs_of(lat, sigma.T @ hvee)
            moved = True
        if not moved:
            break
    else:
        raise InternalError("alcove reduction did not terminate")

    parity = int(round(np.linalg.det(sigma)))
    return (
        RadialPoint.real(x),
        WeylElement(matrix=sigma, parity=parity),
        mcoeffs,
    )


def _signature_preserving(group: WeylGroup, signature, target=None) -> np.ndarray:
    """Indices of the Weyl elements mapping the imaginary axes of
    ``signature`` onto those of ``target``, ascending.

    ``target`` (by default ``signature`` itself) must have as many imaginary
    axes.  An element qualifies when its (target-real, source-imaginary)
    block vanishes.
    """
    target = signature if target is None else target
    real_axes = [j for j, s in enumerate(target) if s == REAL]
    imag_axes = [j for j, s in enumerate(signature) if s == IMAGINARY]
    if not real_axes or not imag_axes:
        return np.arange(group.order)
    blocks = group.matrices[:, real_axes][:, :, imag_axes]
    return np.flatnonzero(np.abs(blocks).max(axis=(1, 2)) <= 1e-10)


def reduce_lexmax(group: WeylGroup, lat: WindingLattice, phi: RadialPoint):
    """Deterministic orbit representative under W x lattice translations.

    Babai-reduces the coordinates modulo the sublattice of ``lat`` compatible
    with the point's signature, then keeps the lexicographically largest
    image under the signature-preserving Weyl elements.  Complete: orbit
    companions map to the same representative (cell reduction kills lattice
    offsets exactly, and candidates range over the full stabilizer coset).
    Returns ``(canonical, sigma, m)`` with canonical = sigma(phi + 2 pi m),
    m in integer coordinates over ``lat``'s basis.
    """
    return _reduce_lexmax(_lexmax_tables(group, lat, phi.signature), phi)


def _reduce_lexmax(tables: tuple, phi: RadialPoint) -> tuple:
    """``reduce_lexmax`` with the ``_lexmax_tables`` of phi's signature."""
    canonical, elem, shift = _lexmax_image(tables, phi)
    lat = tables[1]
    # m is applied before sigma: canonical = sigma(phi + 2 pi m)
    mcoeffs = _coeffs_of(lat, elem.matrix.T @ (shift @ lat.generators))
    return canonical, elem, mcoeffs


def _lexmax_tables(group: WeylGroup, lat: WindingLattice, signature: tuple) -> tuple:
    """What ``_lexmax_image`` needs of a group, a lattice and a signature,
    which no point changes: (group, lat, sublattice of the signature,
    indices of the signature-preserving elements, their matrices, the
    sublattice's generators and Gram matrix stacked once, the tie-break
    key), the arrays read-only."""
    sub = domain_sublattice(lat, signature)
    idx = _signature_preserving(group, signature)
    gens = sub.generators
    arrays = (idx, group.matrices[idx], gens[None], (gens @ gens.T)[None], -np.arange(len(idx)))
    for a in arrays:
        a.flags.writeable = False
    return (group, lat, sub) + arrays


def _lexmax_image(tables: tuple, phi: RadialPoint) -> tuple:
    """``reduce_lexmax``'s representative and Weyl element, with its shift in
    coordinates over the lattice's basis applied after sigma, left undecoded;
    ``tables`` are the ``_lexmax_tables`` of phi's signature."""
    group, _, sub, idx, matrices, gens, gram, tie_break = tables
    ys = matrices @ np.asarray(phi.values, dtype=float)
    shifts = np.zeros((len(idx), sub.dim), dtype=int)
    if sub.dim:
        # stacked matrix-vector products and solves, each the same call per
        # element as a loop would make, so the reduction is unchanged
        center = np.linalg.solve(gram, gens @ ys[..., None])[..., 0]
        shifts = -np.round(center / (2.0 * np.pi)).astype(int)
        ys = ys + 2.0 * np.pi * (shifts[:, None] @ sub.generators)[:, 0]
    # the first of the lexicographically largest rounded images: the last in
    # ascending order of (keys, -index)
    keys = np.round(ys, 10)
    best = np.lexsort((tie_break, *keys.T[::-1]))[-1]
    return RadialPoint(tuple(ys[best]), phi.signature), group.elements[idx[best]], shifts[best] @ sub.coeffs
