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
    UnsupportedOperationError,
)
from .lattice import REAL, RadialPoint, domain_sublattice, winding_lattice
from .lattice import _POINT_CAP, _ellipsoid_points, _window, _window_select
from .rootsys import RootSystem
from .volumes import coset_volume, group_volume
from .weyl import generate_weyl_group, orbit_sums, split_levels, wall_denominator

__all__ = [
    "TimeMode",
    "TimeParameter",
    "ConvergenceTag",
    "KernelValue",
    "KernelRequest",
    "compact_pathsum",
    "compact_spectral",
    "noncompact_pathsum",
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
    phase constant i rho^2 t / lam.  The arrays are read-only."""
    t = time.effective
    direction = np.where(np.array(signature) == REAL, rs.rho, 0.0)
    slopes = rs.positive_roots @ direction
    direction.flags.writeable = slopes.flags.writeable = False
    return {
        "sub": domain_sublattice(winding_lattice(rs), signature),
        "window": _window(time.decay_scale(), tol, rs.lam),
        "t": t,
        "prefactor": _prefactor(rs.n, t),
        "direction": direction,
        "slopes": slopes,
        "rho_phase": 1j * (rs.rho @ rs.rho) / rs.lam * t,
    }


def _pathsum_terms(rs: RootSystem, phi: RadialPoint, plan: dict) -> complex:
    """Sum of van Vleck terms over the window's points of phi's winding
    sublattice, from real rows x_m = phi + 2 pi m: theta enters as
    constants, i beta.theta and -theta^2; ``plan`` is the ``_path_plan`` of
    phi's signature.

    On a wall, the s^k coefficient of prod_beta beta.(z_m + s d) exp(i lam
    (z_m + s d)^2 / 4t), z_m = x_m + i theta, over that of the denominator:
    the wall rule along d, rho's part on the real axes.
    """
    x0, theta = phi.phi_vector(), phi.theta_vector()
    t, direction = plan["t"], plan["direction"]
    # real root products on a compact point, formed as the numerators' are
    roots, w = wall_denominator(rs, x0 if phi.is_compact else phi.complex_vector(), direction)
    k = len(roots)
    table, index, axes, _ = _window_select(plan["sub"], x0, plan["window"])
    shift = None if phi.is_compact else 1j * (rs.positive_roots @ theta)[:, None]
    nums = np.empty(index.shape[1], dtype=float if shift is None and not k else complex)
    # the points gathered and their root factors formed in blocks, each
    # column as the whole product forms it
    step = max(1, _FACTOR_BLOCK // len(rs.positive_roots))
    for start in range(0, index.shape[1], step):
        cols = slice(start, start + step)
        x = table.take(index[:, cols])
        factors = rs.positive_roots @ x
        if shift is not None:
            factors = factors + shift
        if k:
            # d.x_m added axis by axis: a matrix-vector product's columns depend on its length
            nums[cols] = _numerators(rs, factors, (direction[:, None] * x).sum(axis=0), plan, k)
        else:
            nums[cols] = factors.prod(axis=0)
    gauss = _gaussians(rs, theta, table, index, axes, plan)
    # a BLAS dot of this length can wait milliseconds on a second thread
    return complex(np.multiply(gauss, nums, out=gauss).sum()) / (2.0**rs.p * w)


def _gaussians(rs: RootSystem, theta: np.ndarray, table: np.ndarray, index: np.ndarray, axes: tuple,
               plan: dict) -> np.ndarray:
    """exp(i lam (|x_m|^2 - |theta|^2) / 4t + i rho^2 t / lam) for the points
    of a ``_window_select`` table, as the product over the axes of
    exp(i lam x_j^2 / 4t): one exp per table entry, and one gathered factor
    per point and axis that takes more than one value.

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
            norms = squares[a] if norms is None else norms + squares[a]
    # (x_m + i theta)^2 = |x_m|^2 - |theta|^2: x_m vanishes on the imaginary axes
    squares[axes[main]] = norms - theta @ theta
    phases = 1j * rs.lam * squares
    # divided entry by entry: a rounded i lam / 4t shared by all terms moves them coherently
    phases /= 4.0 * t
    phases[axes[main]] += plan["rho_phase"]
    factors = np.exp(phases, out=phases)
    gauss = factors.take(index[main])
    varying = [j for j in range(len(axes)) if j != main and counts[j] > 1]
    if varying:
        term = np.empty_like(gauss)
        for j in varying:
            gauss *= factors.take(index[j], out=term, mode="clip")
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
    return _pathsum(req)


def noncompact_pathsum(req: KernelRequest) -> KernelValue:
    """Kernel on a non-compact evolution domain by the restricted path sum."""
    if req.domain is None:
        raise ArgumentError("noncompact_pathsum needs an evolution domain")
    return _pathsum(req)


def _pathsum(req: KernelRequest) -> KernelValue:
    """The sum over classical paths on the winding sublattice of the point's
    signature: the whole lattice when no axis is imaginary."""
    rs = req.rs
    plan = _path_plan(rs, req.phi.signature, req.time, req.tol)
    value = plan["prefactor"] * _pathsum_terms(rs, req.phi, plan)
    return KernelValue(value, *_pathsum_tag(rs, req, plan["t"]))


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
    if not req.phi.is_compact:
        raise ArgumentError("compact_spectral needs a point with no imaginary axis")
    if req.time.conditionally_convergent:
        raise ConvergenceError(
            "spectral series does not converge for real time with epsilon=0; "
            "supply an Abel regulator epsilon > 0 or use heat mode"
        )
    rs = req.rs
    split, weights = _level_weights(rs, req.time, req.tol, req.level_cutoff)
    sums, denom = orbit_sums(rs, split, req.phi.values)
    value = complex(weights @ sums / denom)
    return KernelValue(value, ConvergenceTag.CONVERGENT)


def _pathsum_tag(rs: RootSystem, req: KernelRequest, t: complex):
    """A path sum's convergence tag and warning; with no imaginary axis
    (theta = 0) only the time decides them."""
    theta = req.phi.theta_vector()
    theta2 = float(theta @ theta)
    # real part of the theta-direction exponent i*lam*(-theta^2)/(4t)
    growth = (1j * rs.lam * (-theta2) / (4.0 * t)).real
    if req.time.mode is TimeMode.HEAT:
        if theta2 > 0 and growth > 0:
            return (
                ConvergenceTag.GROWING,
                "heat mode on an open torus direction: the theta exponent grows; "
                "no stable heat solution exists on this domain",
            )
        return ConvergenceTag.CONVERGENT, None
    if req.time.conditionally_convergent:
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
