"""Evolution kernels: dual series on compact groups, domain-restricted path
sums on non-compact groups, and the rank-1 closed forms used as oracles.

Conventions.  The complex power (4 pi i t)^{-n/2} is exp(-(n/2) Log(4 pi i t))
with the principal logarithm; heat mode substitutes t = -i tau, which makes
the argument positive real, and the real-time phase follows by continuity
from the lower half plane.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    BranchPointError,
    ConvergenceError,
    PoleError,
    ResourceError,
    SingularPointError,
    UnsupportedOperationError,
)
from .lattice import IMAGINARY, REAL, RadialPoint, domain_sublattice, winding_lattice
from .lattice import (
    _POINT_CAP,
    _axis_factors,
    _ellipsoid_points,
    _window,
    _window_blocks,
    _window_select,
)
from .rootsys import RootSystem
from .volumes import coset_volume, group_volume
from .weyl import _BLOCK, _WALL_TOL, _matvecs, generate_weyl_group, orbit_sums, split_levels, wall_denominator

__all__ = [
    "TimeMode",
    "TimeParameter",
    "ConvergenceTag",
    "KernelValue",
    "KernelRequest",
    "compact_pathsum",
    "compact_spectral",
    "noncompact_pathsum",
    "pathsum_grid",
    "spectral_grid",
    "su2_resolvent",
    "su2_resolvent_poles",
    "su2_spectral_series",
    "su2_pathsum_series",
    "su11_kernel_d0",
    "su11_resolvent_d0",
    "radial_convolve",
    "integrate_central_su2",
]

# most terms of a spectral sum, in levels x Weyl images
_ORBIT_CAP = 3 * 10**7

# grid x quadrature entries per block of radial_convolve
_CONVOLVE_BLOCK = 2**18

# roots x points entries per block of a path sum's root factors
_FACTOR_BLOCK = 2**14


class TimeMode(enum.Enum):
    REAL_TIME = "real"
    HEAT = "heat"


class ConvergenceTag(enum.Enum):
    CONVERGENT = "CONVERGENT"
    OSCILLATORY = "OSCILLATORY"
    GROWING = "GROWING"


@dataclass(frozen=True)
class TimeParameter:
    """Evolution time: real time t (with damping epsilon) or heat time tau."""

    value: float
    mode: TimeMode = TimeMode.REAL_TIME
    epsilon: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.value, numbers.Real) and isinstance(self.epsilon, numbers.Real)):
            raise ArgumentError(f"time and epsilon must be real numbers, got {self.value!r}, {self.epsilon!r}")
        if not (math.isfinite(self.value) and math.isfinite(self.epsilon)):
            raise ArgumentError(f"time and epsilon must be finite, got {self.value} and {self.epsilon}")
        if self.mode is TimeMode.HEAT and not self.value > 0:
            raise ArgumentError(f"heat mode needs tau > 0, got {self.value}")
        if self.epsilon < 0:
            raise ArgumentError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.mode is TimeMode.REAL_TIME and self.value == 0:
            raise ArgumentError("real time t must be nonzero")

    @classmethod
    def heat(cls, tau: float) -> "TimeParameter":
        return cls(value=tau, mode=TimeMode.HEAT)

    @classmethod
    def real(cls, t: float, epsilon: float = 0.0) -> "TimeParameter":
        return cls(value=t, mode=TimeMode.REAL_TIME, epsilon=epsilon)

    @property
    def effective(self) -> complex:
        """Complex time entering every formula."""
        if self.mode is TimeMode.HEAT:
            return -1j * self.value
        return self.value - 1j * self.epsilon

    @property
    def conditionally_convergent(self) -> bool:
        return self.mode is TimeMode.REAL_TIME and self.epsilon == 0.0

    def decay_scale(self) -> float:
        """t-like scale controlling the Gaussian decay of lattice weights.

        In heat mode this is tau; with damping it is |t|^2/epsilon.  Without
        damping the lattice sum only converges conditionally, so a finite
        Abel-style window |t|^2 / (1e-3 |t|) stands in and the result is
        tagged OSCILLATORY.
        """
        if self.mode is TimeMode.HEAT:
            return self.value
        t = abs(self.effective) ** 2
        eps = self.epsilon if self.epsilon > 0 else 1e-3 * abs(self.value)
        return t / eps


@dataclass(frozen=True)
class KernelValue:
    value: complex
    tag: ConvergenceTag
    warning: str | None = None

    def __complex__(self):
        return complex(self.value)


@dataclass
class KernelRequest:
    """One kernel evaluation: where, when, and how hard to truncate."""

    rs: RootSystem
    phi: RadialPoint
    time: TimeParameter
    domain: object | None = None
    tol: float = 1e-14
    level_cutoff: int | None = None

    def __post_init__(self):
        if self.phi.rank != self.rs.rank:
            raise ArgumentError("radial point rank does not match root system rank")
        if not (isinstance(self.tol, numbers.Real) and 0.0 < self.tol < 1.0):
            raise ArgumentError(f"tol must lie in (0, 1), got {self.tol!r}")
        if self.level_cutoff is not None and not (
            isinstance(self.level_cutoff, numbers.Integral) and self.level_cutoff >= 0
        ):
            raise ArgumentError(f"level_cutoff must be an integer >= 0, got {self.level_cutoff!r}")
        if self.domain is None and not self.phi.is_compact:
            raise ArgumentError("mixed-signature point needs an evolution domain")
        if self.domain is not None:
            if not hasattr(self.domain, "signature"):
                raise ArgumentError(f"domain must carry a signature, got {self.domain!r}")
            try:
                dsig = tuple(self.domain.signature)
            except TypeError as exc:
                raise ArgumentError(f"domain signature must be a sequence, got {self.domain!r}") from exc
            if dsig != self.phi.signature:
                raise ArgumentError(
                    f"point signature {self.phi.signature} does not match domain {dsig}"
                )


def _prefactor(n: int, t: complex) -> complex:
    return np.exp(-(n / 2.0) * np.log(4j * np.pi * t))


# (system, signature, time, tol) keys whose path plans stay resident; a plan
# holds a few rank-sized arrays and scalars
@functools.lru_cache(maxsize=256)
def _path_plan(rs: RootSystem, signature: tuple, time: TimeParameter, tol: float) -> dict:
    """What a path sum needs that no point changes: the winding sublattice of
    the signature, the window (its arguments checked), the complex time t
    and the prefactor (4 pi i t)^{-n/2}, rho's part on the real axes (the
    wall-limit direction d), the positive roots' products with d, and the
    phase constant i rho^2 t / lam, and the mask of the real axes.  The
    arrays are read-only."""
    t = time.effective
    real = np.array(signature) == REAL
    direction = np.where(real, rs.rho, 0.0)
    slopes = rs.positive_roots @ direction
    real.flags.writeable = direction.flags.writeable = slopes.flags.writeable = False
    return {
        "real": real,
        "sub": domain_sublattice(winding_lattice(rs), signature),
        "window": _window(time.decay_scale(), tol, rs.lam),
        "t": t,
        "prefactor": _prefactor(rs.n, t),
        "direction": direction,
        "slopes": slopes,
        "rho_phase": 1j * (rs.rho @ rs.rho) / rs.lam * t,
    }


def _pathsum_terms(rs: RootSystem, values: np.ndarray, signature: tuple, plan: dict) -> list:
    """Sums of van Vleck terms over the window's points of the winding
    sublattice of ``signature``, at the points ``values`` (P, r) of that
    signature, from real rows x_m = phi + 2 pi m: theta enters as
    constants, i beta.theta and -theta^2; ``plan`` is the signature's
    ``_path_plan``.  Per point, the sum over (2^p w(phi)), or the
    ``SingularPointError`` of a wall with no limit along d.

    Points off the walls are evaluated together, in ``_window_blocks`` of
    points that share a window centre.  On a wall, one point at a time, the
    s^k coefficient of prod_beta beta.(z_m + s d) exp(i lam (z_m + s d)^2 / 4t),
    z_m = x_m + i theta, over that of the denominator: the wall rule along
    d, rho's part on the real axes.
    """
    x0, theta, z = values, None, values
    if IMAGINARY in signature:
        x0, theta = np.where(plan["real"], values, 0.0), np.where(plan["real"], 0.0, values)
        z = values * _axis_factors(signature)
    # z is real on a compact signature: its root products are formed as the numerators' are
    sines = np.sin(_matvecs(rs.positive_roots, z) / 2.0)
    on_wall = (np.abs(sines) <= _WALL_TOL).any(axis=1).tolist()
    # the blocks as if off the walls, then each wall point by the wall rule
    sums = np.empty(len(values), dtype=complex)
    for rows in _window_blocks(plan["sub"], x0, plan["window"], _BLOCK):
        if not all(on_wall[rows]):
            sums[rows] = _window_sums(rs, x0[rows], None if theta is None else theta[rows], plan, 0)
    scale = 2.0**rs.p
    out = [None if wall else s / (scale * complex(d))
           for s, d, wall in zip(sums.tolist(), np.prod(sines, axis=1).tolist(), on_wall)]
    for i in [i for i, wall in enumerate(on_wall) if wall]:
        try:
            roots, d = wall_denominator(rs, z[i], plan["direction"])
        except SingularPointError as exc:
            out[i] = exc
            continue
        at = slice(i, i + 1)
        s = _window_sums(rs, x0[at], None if theta is None else theta[at], plan, len(roots))[0]
        out[i] = complex(s) / (scale * d)
    return out


def _window_sums(rs: RootSystem, x0: np.ndarray, theta: np.ndarray, plan: dict, k: int) -> np.ndarray:
    """The sums of terms at the points x0 + i theta (P, r) of one window
    centre, theta None on a compact signature: the Gaussians times
    prod_beta beta.(x_m + i theta), or on a wall of k roots the
    ``_numerators``, over the candidates each point keeps.  A run of
    consecutive points that keep the same candidates is taken together,
    with one matrix product per point for its root factors and its terms
    summed over its own candidates: each point's sum has the bits it has
    alone."""
    x, index, axes, keep, _ = _window_select(plan["sub"], x0, plan["window"])
    gauss = _gaussians(rs, theta, x, index, axes, plan)
    shift = None if theta is None else 1j * _matvecs(rs.positive_roots, theta)[:, :, None]
    cuts = [] if keep is None else (np.flatnonzero((keep[1:] != keep[:-1]).any(axis=1)) + 1).tolist()
    step = max(1, _FACTOR_BLOCK // len(rs.positive_roots))
    sums = []
    for lo, hi in zip([0, *cuts], [*cuts, len(x)]):
        rows, terms = index, gauss[lo:hi]
        if keep is not None:
            rows, terms = index.compress(keep[lo], axis=1), terms.compress(keep[lo], axis=1)
        nums = np.empty(terms.shape, dtype=float if shift is None and not k else complex)
        # the points gathered and their root factors formed in blocks, each
        # column as the whole product forms it
        for start in range(0, rows.shape[1], step):
            cols = slice(start, start + step)
            coords = x[lo:hi].take(rows[:, cols], axis=1)
            factors = np.matmul(rs.positive_roots, coords)
            if shift is not None:
                factors = factors + shift[lo:hi]
            if k:
                # d.x_m added axis by axis: a matrix-vector product's columns depend on its length
                along = (plan["direction"][:, None] * coords[0]).sum(axis=0)
                nums[:, cols] = _numerators(rs, factors[0], along, plan, k)
            else:
                nums[:, cols] = factors.prod(axis=1)
        terms *= nums
        # a BLAS dot of this length can wait milliseconds on a second thread
        sums.append(terms.sum(axis=1))
    return sums[0] if len(sums) == 1 else np.concatenate(sums)


def _gaussians(rs: RootSystem, theta: np.ndarray, table: np.ndarray, index: np.ndarray, axes: tuple,
               plan: dict) -> np.ndarray:
    """exp(i lam (|x_m|^2 - |theta|^2) / 4t + i rho^2 t / lam) for the points
    of a ``_window_select`` table, (P, N), as the product over the axes of
    exp(i lam x_j^2 / 4t): one exp per table entry and point, and one
    gathered factor per candidate and axis that takes more than one value;
    theta is None on a compact signature.

    The constant goes into the table of the axis with the most values,
    together with the squares of the axes of one value, added in axis
    order: where at most one axis varies, each point's exponent is the one
    its whole squared norm gives, bit for bit.
    """
    t = plan["t"]
    counts = [a.stop - a.start for a in axes]
    main = counts.index(max(counts))
    squares = table * table
    norms = None
    for j, a in enumerate(axes):
        if j == main or counts[j] == 1:
            norms = squares[:, a] if norms is None else norms + squares[:, a]
    if theta is not None:
        # (x_m + i theta)^2 = |x_m|^2 - |theta|^2: x_m vanishes on the imaginary axes
        norms = norms - (theta[:, None, :] @ theta[:, :, None])[:, 0]
    squares[:, axes[main]] = norms
    phases = 1j * rs.lam * squares
    # divided entry by entry: a rounded i lam / 4t shared by all terms moves them coherently
    phases /= 4.0 * t
    phases[:, axes[main]] += plan["rho_phase"]
    factors = np.exp(phases, out=phases)
    gauss = factors.take(index[main], axis=1)
    varying = [j for j in range(len(axes)) if j != main and counts[j] > 1]
    if varying:
        term = np.empty_like(gauss)
        for j in varying:
            gauss *= factors.take(index[j], axis=1, out=term, mode="clip")
    return gauss


def _numerators(rs: RootSystem, factors: np.ndarray, along: np.ndarray, plan: dict, k: int) -> np.ndarray:
    """Wall numerators of points with root factors ``factors`` (one column
    each) and products d.x_m ``along``: the s^k coefficient of
    prod_beta (u_beta + s v_beta) exp(a s + b s^2)."""
    direction, t = plan["direction"], plan["t"]
    # prod_beta (u_beta + s v_beta) to order s^k, one column per point
    poly = np.zeros((k + 1, len(along)), dtype=complex)
    poly[0] = 1.0
    for u, v in zip(factors, plan["slopes"]):
        poly[1:] = poly[1:] * u + poly[:-1] * v
        poly[0] *= u
    c = 1j * rs.lam / (4.0 * t)
    a, b = 2.0 * c * along, c * (direction @ direction)
    # exp(a s + b s^2) has coefficients g_{n+1} = (a g_n + 2 b g_{n-1}) / (n + 1)
    gauss = [np.ones(len(along)), a]
    for n in range(1, k):
        gauss.append((a * gauss[n] + 2.0 * b * gauss[n - 1]) / (n + 1))
    return sum(poly[j] * gauss[k - j] for j in range(k + 1))


def compact_pathsum(req: KernelRequest) -> KernelValue:
    """Kernel on a compact group as the sum over classical paths.

    A domain with no imaginary axis is the compact group: its request gives
    the same value.
    """
    if not req.phi.is_compact:
        raise ArgumentError("compact_pathsum needs a point with no imaginary axis")
    return _one(_pathsum_values(req, np.array([req.phi.values])))


def noncompact_pathsum(req: KernelRequest) -> KernelValue:
    """Kernel on a non-compact evolution domain by the restricted path sum."""
    if req.domain is None:
        raise ArgumentError("noncompact_pathsum needs an evolution domain")
    return _one(_pathsum_values(req, np.array([req.phi.values])))


def _one(results: list) -> KernelValue:
    """The value of a one-point grid, raising its wall point's error."""
    (value,) = results
    if isinstance(value, SingularPointError):
        raise SingularPointError(str(value)) from value
    return value


def _grid_values(req: KernelRequest, values) -> np.ndarray:
    """``values`` as finite points (P, r) of the request's rank."""
    try:
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ArgumentError(f"grid values must be real numbers, got {values!r}") from exc
    if values.ndim != 2 or values.shape[1] != req.rs.rank:
        raise ArgumentError(f"grid values must have shape (points, {req.rs.rank}), got {values.shape}")
    if not np.isfinite(values).all():
        raise ArgumentError("radial values must be finite")
    return values


def pathsum_grid(req: KernelRequest, values) -> list:
    """The sum over classical paths of ``req`` at each row of ``values``
    (P, r), points in the signature of ``req.phi`` (phi on its real axes,
    theta on its imaginary ones): the winding sublattice of the signature,
    the whole lattice when no axis is imaginary.  Per point a
    ``KernelValue``, or the ``SingularPointError`` of a wall point with no
    limit along the real axes, in place of raising it: the other points
    keep their values.  The points are evaluated together, as
    ``_pathsum_terms`` says."""
    return _pathsum_values(req, _grid_values(req, values))


def _pathsum_values(req: KernelRequest, values: np.ndarray) -> list:
    """``pathsum_grid`` at checked values."""
    rs, signature, time = req.rs, req.phi.signature, req.time
    plan = _path_plan(rs, signature, time, req.tol)
    if IMAGINARY in signature:
        theta = np.where(plan["real"], 0.0, values)
        tags = [_pathsum_tag(rs, time, th2, plan["t"]) for th2 in np.einsum("ij,ij->i", theta, theta).tolist()]
    else:
        tags = itertools.repeat(_pathsum_tag(rs, time, 0.0, plan["t"]))
    return [s if isinstance(s, SingularPointError) else KernelValue(plan["prefactor"] * s, *tag)
            for s, tag in zip(_pathsum_terms(rs, values, signature, plan), tags)]


def _spectral_levels(rs: RootSystem, t_like: float, tol: float, level_cutoff: int | None,
                     cap: int = _POINT_CAP):
    """Dominant weights retained by the spectral truncation rule.

    Retains every l whose Boltzmann-like weight exp(-lambda_l * t_like) is
    within tol * 1e-6 of the largest (the margin absorbs dimension growth),
    i.e. every l >= 0 with |l + rho|^2 <= rho^2 + lam * lambda_cut, in
    lexicographic order.  ``level_cutoff`` keeps the cube 0 <= l_i <= cutoff
    instead.  The search raises ``ResourceError`` at its first layer of more
    than ``cap`` candidates, before it is built.
    """
    if level_cutoff is not None:
        return np.indices((level_cutoff + 1,) * rs.rank).reshape(rs.rank, -1).T
    lam_cut = math.log(1.0 / (tol * 1e-6)) / t_like
    labels, _ = _ellipsoid_points(rs.weights, rs.rho, 1.0, rs.rho @ rs.rho + rs.lam * lam_cut, lower=0, cap=cap)
    return labels


def _orbit_cap_message(levels, images: int) -> str:
    return (f"spectral table needs {levels} levels x {images} Weyl images "
            f"(> {_ORBIT_CAP} orbit entries); use the path sum")


# (system, time) pairs whose spectral data stay resident, the time rounded to
# 12 decimals by ``compact_spectral``; a compact grid over ten systems holds 30
@functools.lru_cache(maxsize=64)
def _spectral_data(rs: RootSystem, t_like: float, tol: float, level_cutoff: int | None):
    """Representation data for the retained dominant weights l: (lambda_l,
    d_l, split, d_l / V_G), ``split`` the levels' ``weyl.split_levels``.

    A table of more than ``_ORBIT_CAP`` orbit entries is refused before its
    levels are built: the cube of ``level_cutoff`` by its size, the search
    at its first layer of more levels than the cap leaves."""
    group = generate_weyl_group(rs)
    cap = _ORBIT_CAP // group.order
    # the cube's size, in Python integers, before it is built
    if level_cutoff is not None and (level_cutoff + 1) ** rs.rank > cap:
        raise ResourceError(_orbit_cap_message((level_cutoff + 1) ** rs.rank, group.order))
    try:
        labels = _spectral_levels(rs, t_like, tol, level_cutoff, cap)
    except ResourceError as exc:
        raise ResourceError(_orbit_cap_message(f"more than {cap}", group.order)) from exc
    nvecs = (labels + 1) @ rs.weights
    lam_l = (np.einsum("li,li->l", nvecs, nvecs) - rs.rho @ rs.rho) / rs.lam
    dims = np.prod(nvecs @ rs.positive_roots.T, axis=1) / np.prod(rs.positive_roots @ rs.rho)
    return lam_l, dims, split_levels(rs, labels), dims / group_volume(rs)


@functools.lru_cache(maxsize=64)
def _level_weights(rs: RootSystem, time: TimeParameter, tol: float, level_cutoff: int | None) -> tuple:
    """The spectral data's level split, and the level weights
    d_l exp(-i lambda_l t) / V_G at the time itself: times that share a
    decay scale (heat tau=10.1 and t=1, eps=0.1) share the levels, not the
    weights.  The weights are read-only."""
    lam_l, _, split, weights = _spectral_data(rs, round(time.decay_scale(), 12), tol, level_cutoff)
    weights = weights * np.exp(-1j * lam_l * time.effective)
    weights.flags.writeable = False
    return split, weights


def compact_spectral(req: KernelRequest) -> KernelValue:
    """Kernel on a compact group as the sum over unitary representations.

    A domain with no imaginary axis is the compact group, as in
    ``compact_pathsum``.
    """
    return _spectral_values(req, np.array([req.phi.values]))[0]


def spectral_grid(req: KernelRequest, values) -> list:
    """The sum over unitary representations of ``req`` at each row of
    ``values`` (P, r), real points: a ``KernelValue`` per point.  The
    points' level sums are formed in blocks of about ``_BLOCK`` points x
    levels, each weighted and summed over its levels at once."""
    return _spectral_values(req, _grid_values(req, values))


def _spectral_values(req: KernelRequest, values: np.ndarray) -> list:
    """``spectral_grid`` at checked values."""
    if not req.phi.is_compact:
        raise ArgumentError("compact_spectral needs a point with no imaginary axis")
    if req.time.conditionally_convergent:
        raise ConvergenceError(
            "spectral series does not converge for real time with epsilon=0; "
            "supply an Abel regulator epsilon > 0 or use heat mode"
        )
    split, weights = _level_weights(req.rs, req.time, req.tol, req.level_cutoff)
    out, step = [], max(1, _BLOCK // len(weights))
    for start in range(0, len(values), step):
        sums, denoms = orbit_sums(req.rs, split, values[start : start + step])
        # one dot per point: a matrix-vector product of this size waits on BLAS threads
        out += (np.matmul(weights, sums[:, :, None])[:, 0] / denoms).tolist()
    return [KernelValue(value, ConvergenceTag.CONVERGENT) for value in out]


def _pathsum_tag(rs: RootSystem, time: TimeParameter, theta2: float, t: complex):
    """A path sum's convergence tag and warning at a point with |theta|^2 =
    ``theta2``; with no imaginary axis (theta = 0) only the time decides
    them."""
    # real part of the theta-direction exponent i*lam*(-theta^2)/(4t)
    growth = (1j * rs.lam * (-theta2) / (4.0 * t)).real
    if time.mode is TimeMode.HEAT:
        if theta2 > 0 and growth > 0:
            return (
                ConvergenceTag.GROWING,
                "heat mode on an open torus direction: the theta exponent grows; "
                "no stable heat solution exists on this domain",
            )
        return ConvergenceTag.CONVERGENT, None
    if time.conditionally_convergent:
        return (
            ConvergenceTag.OSCILLATORY,
            "real time with epsilon=0: conditionally defined, truncated on an Abel window",
        )
    if growth > 1e-15:
        return (
            ConvergenceTag.GROWING,
            "damping epsilon > 0 makes the open-direction factor grow",
        )
    return ConvergenceTag.CONVERGENT, None


# ---------------------------------------------------------------------------
# rank-1 closed forms (oracles)
# ---------------------------------------------------------------------------


def su2_resolvent(phi: float, lam: complex) -> complex:
    """Radial resolvent on the compact rank-1 group, phi in (0, 2 pi).

    Closed form sin(k(2 pi - phi)) / (8 sqrt2 pi sin(2 k pi) sin(phi/2))
    with k^2 = 1/4 + 2 lam; simple poles at lam = (n^2 - 1)/8.
    """
    if not 0.0 < phi < 2.0 * np.pi:
        raise ArgumentError(f"phi must lie in (0, 2 pi), got {phi}")
    lam = complex(lam)
    n_near = round(math.sqrt(max(8.0 * lam.real + 1.0, 0.0)))
    if abs(lam - (n_near**2 - 1) / 8.0) < 1e-12 and abs(lam.imag) < 1e-12:
        raise PoleError(
            f"lambda = {lam} sits on the resolvent pole (n^2-1)/8 with n = {n_near}",
            index=n_near,
        )
    k = np.sqrt(0.25 + 2.0 * lam)
    return complex(
        np.sin(k * (2.0 * np.pi - phi))
        / (8.0 * np.sqrt(2.0) * np.pi * np.sin(2.0 * np.pi * k) * np.sin(phi / 2.0))
    )


def su2_resolvent_poles(lam_max: float) -> list:
    """Locate resolvent poles on the real axis up to lam_max.

    Scans sin(2 pi k(lam)) for sign changes and polishes with brentq; no
    knowledge of the (n^2-1)/8 pattern enters.
    """
    from scipy.optimize import brentq

    def h(lam):
        return math.sin(2.0 * np.pi * math.sqrt(0.25 + 2.0 * lam))

    lo = -1.0 / 8.0 + 1e-9
    grid = np.linspace(lo, lam_max, max(1000, int((lam_max - lo) * 400)))
    vals = [h(x) for x in grid]
    poles = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            poles.append(float(a))
        elif fa * fb < 0:
            poles.append(float(brentq(h, a, b, xtol=1e-14)))
    return poles


def su2_spectral_series(phi: float, time: TimeParameter, nmax: int = 400) -> complex:
    """Printed rank-1 spectral series with prefactor 1/(32 sqrt2 pi^2).

    The character ratio uses the half-angle sin(n phi/2)/sin(phi/2) that the
    path sum and the resolvent contour fix; see the tests for the term-match
    against the generic engine.
    """
    t = time.effective
    n = np.arange(1, nmax + 1)
    terms = n * np.sin(n * phi / 2.0) / np.sin(phi / 2.0) * np.exp(-1j * (n**2 - 1) / 8.0 * t)
    return complex(terms.sum() / (32.0 * np.sqrt(2.0) * np.pi**2))


def su2_pathsum_series(phi: float, time: TimeParameter, mmax: int = 40) -> complex:
    """Printed rank-1 path sum: (phi + 4 pi m)/(2 sin(phi/2)) van Vleck terms."""
    t = time.effective
    m = np.arange(-mmax, mmax + 1)
    x = phi + 4.0 * np.pi * m
    terms = x / (2.0 * np.sin(phi / 2.0)) * np.exp(1j * x**2 / (2.0 * t) + 1j * t / 8.0)
    return complex(_prefactor(3, t) * terms.sum())


def su11_kernel_d0(theta: float, time: TimeParameter) -> complex:
    """Closed-form kernel on the fully open rank-1 domain."""
    if theta <= 0:
        raise ArgumentError(f"theta must be positive, got {theta}")
    t = time.effective
    return complex(
        _prefactor(3, t)
        * theta
        / (2.0 * np.sinh(theta / 2.0))
        * np.exp(-1j * theta**2 / (2.0 * t) + 1j * t / 8.0)
    )


def su11_resolvent_d0(theta: float, lam: complex) -> complex:
    """Resolvent on the open rank-1 domain, decaying branch.

    exp(-sqrt(1/4 + 2 lam) theta) / (8 sqrt2 pi sinh(theta/2)) with the
    principal square root; for 1/4 + 2 lam < 0 this is the boundary value
    from the upper half lambda plane, matching the printed piecewise form.
    """
    if theta <= 0:
        raise ArgumentError(f"theta must be positive, got {theta}")
    lam = complex(lam)
    if abs(0.25 + 2.0 * lam) < 1e-12:
        raise BranchPointError("lambda = -1/8 is the branch point of the open-domain resolvent")
    root = np.sqrt(0.25 + 2.0 * lam)
    return complex(np.exp(-root * theta) / (8.0 * np.sqrt(2.0) * np.pi * np.sinh(theta / 2.0)))


# ---------------------------------------------------------------------------
# rank-1 radial convolution (semigroup harness)
# ---------------------------------------------------------------------------


def radial_convolve(rs: RootSystem, f_samples, g_samples, gauss_order: int = 48):
    """Convolution of two central functions on the rank-1 compact group.

    Both inputs are samples on the uniform alcove grid [0, 2 pi] (endpoints
    included).  The class angle of a product follows the two-argument cosine
    rule, the coset average is a single Legendre quadrature, and g is cubic-
    spline interpolated.  Only rank 1 ships; the composed radial coordinate
    has no closed two-argument form we implement beyond it.
    """
    from scipy.integrate import simpson
    from scipy.interpolate import CubicSpline
    from scipy.special import roots_legendre

    if rs.rank != 1:
        raise UnsupportedOperationError("radial_convolve is implemented for rank 1 only")
    f_samples = np.asarray(f_samples)
    g_samples = np.asarray(g_samples)
    if f_samples.shape != g_samples.shape or f_samples.ndim != 1 or len(f_samples) < 8:
        raise ArgumentError("f and g must be equal-length 1-d sample arrays (>= 8 points)")
    npts = len(f_samples)
    grid = np.linspace(0.0, 2.0 * np.pi, npts)
    vgt = coset_volume(rs)
    measure = rs.lam ** 0.5 * 2.0 ** (rs.n - rs.rank) * np.sin(grid / 2.0) ** 2

    nodes, wts = roots_legendre(gauss_order)
    spline = CubicSpline(grid, g_samples)

    cos_half = np.cos(grid / 2.0)[:, None]
    sin_half = np.sin(grid / 2.0)[:, None]
    out = np.empty(npts, dtype=np.result_type(f_samples, g_samples, np.float64))
    # inner[i, j], the coset average of g at the class angle of y_j^{-1} x_i,
    # is symmetric in (i, j) bit for bit: each block of rows is formed from
    # its first row's column on and mirrored into the later rows.  The
    # (rows, columns, gauss_order) temporaries stay near _CONVOLVE_BLOCK.
    inner = np.empty((npts, npts), dtype=np.result_type(g_samples, np.float64))
    step = max(1, _CONVOLVE_BLOCK // (npts * gauss_order))
    for start in range(0, npts, step):
        rows = slice(start, start + step)
        # class angle over axis angle u = cos(omega)
        arg = cos_half[rows, None] * cos_half[start:] + sin_half[rows, None] * sin_half[start:] * nodes
        c = 2.0 * np.arccos(np.clip(arg, -1.0, 1.0))
        inner[rows, start:] = (spline(c) * wts).sum(axis=-1) * (vgt / 2.0)
        inner[start:, rows] = inner[rows, start:].T
        out[rows] = simpson(f_samples * measure * inner[rows], x=grid)
    return out


def integrate_central_su2(rs: RootSystem, func) -> float:
    """Integral of a central function against the invariant measure (rank 1)."""
    from scipy.integrate import quad

    if rs.rank != 1:
        raise UnsupportedOperationError("implemented for rank 1 only")
    vgt = coset_volume(rs)

    def integrand(x):
        return float(
            np.real(func(x)) * vgt * rs.lam**0.5 * 2.0 ** (rs.n - rs.rank) * np.sin(x / 2.0) ** 2
        )

    val, _ = quad(integrand, 0.0, 2.0 * np.pi, limit=300)
    return val
