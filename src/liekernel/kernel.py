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
from .lattice import REAL, RadialPoint, domain_sublattice, enumerate_points, winding_lattice
from .lattice import _ellipsoid_points
from .rootsys import RootSystem
from .volumes import coset_volume, group_volume
from .weyl import generate_weyl_group, orbit_quotient, wall_denominator, weight_orbit

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

# largest spectral table, in levels x Weyl images; each entry holds rank
# integer orbit coordinates (int16 where they fit).  It also bounds the
# entries that the spectral cache keeps resident.
_ORBIT_CAP = 3 * 10**7

# orbit entries per block of levels in compact_spectral: the temporaries of
# one block stay cache-sized
_BLOCK = 2**15

# grid x quadrature entries per block of radial_convolve
_CONVOLVE_BLOCK = 2**18


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
    wall_limit: bool = False

    def __post_init__(self):
        if self.phi.rank != self.rs.rank:
            raise ArgumentError("radial point rank does not match root system rank")
        if not 0.0 < self.tol < 1.0:
            raise ArgumentError(f"tol must lie in (0, 1), got {self.tol}")
        if self.domain is None and not self.phi.is_compact:
            raise ArgumentError("mixed-signature point needs an evolution domain")
        if self.domain is not None:
            dsig = tuple(getattr(self.domain, "signature"))
            if dsig != self.phi.signature:
                raise ArgumentError(
                    f"point signature {self.phi.signature} does not match domain {dsig}"
                )


def _prefactor(n: int, t: complex) -> complex:
    return np.exp(-(n / 2.0) * np.log(4j * np.pi * t))


@functools.cache
def _path_constants(rs: RootSystem, signature: tuple) -> tuple:
    """rho's part on the real axes (the wall-limit direction d), the positive
    roots' products with d, and rho.rho: the per-signature constants of
    ``_pathsum_terms``."""
    direction = np.where(np.array(signature) == REAL, rs.rho, 0.0)
    return direction, rs.positive_roots @ direction, rs.rho @ rs.rho


def _pathsum_terms(rs: RootSystem, phi: RadialPoint, points: np.ndarray, t: complex,
                   wall_limit: bool) -> complex:
    """Sum of van Vleck terms over the given winding points.

    On a wall, the s^k coefficient of prod_beta beta.(x_m + s d)
    exp(i lam |x_m + s d|^2 / 4t), x_m = phi + 2 pi m, over that of the
    denominator: the wall rule along d, rho's part on the real axes.
    """
    cv = phi.complex_vector()
    direction, slopes, rho2 = _path_constants(rs, phi.signature)
    roots, w = wall_denominator(rs, cv, wall_limit, direction)
    k = len(roots)
    shifted = cv[None, :] + 2.0 * np.pi * points
    factors = shifted @ rs.positive_roots.T
    if k:
        # prod_beta (u_beta + s v_beta) to order s^k, one row per point
        poly = np.zeros((len(points), k + 1), dtype=complex)
        poly[:, 0] = 1.0
        for u, v in zip(factors.T, slopes):
            poly[:, 1:] = poly[:, 1:] * u[:, None] + poly[:, :-1] * v
            poly[:, 0] *= u
        c = 1j * rs.lam / (4.0 * t)
        a, b = 2.0 * c * (shifted @ direction), c * (direction @ direction)
        # exp(a s + b s^2) has coefficients g_{n+1} = (a g_n + 2 b g_{n-1}) / (n + 1)
        gauss = [np.ones(len(points)), a]
        for n in range(1, k):
            gauss.append((a * gauss[n] + 2.0 * b * gauss[n - 1]) / (n + 1))
        nums = sum(poly[:, j] * gauss[k - j] for j in range(k + 1))
    else:
        # np.prod(factors, axis=1) on split real and imaginary rows, in the
        # same order and rounding: a complex elementwise product rounds
        # differently from the reduction
        re, im = factors.real.T, factors.imag.T
        nre, nim = re[0], im[0]
        for ure, uim in zip(re[1:], im[1:]):
            nre, nim = nre * ure - nim * uim, nre * uim + nim * ure
        nums = np.empty(len(points), dtype=complex)
        nums.real, nums.imag = nre, nim
    denom = 2.0**rs.p * w
    action = np.einsum("ki,ki->k", shifted, shifted)
    phases = np.exp(1j * rs.lam * action / (4.0 * t) + 1j * rho2 / rs.lam * t)
    return complex((nums / denom) @ phases)


def compact_pathsum(req: KernelRequest) -> KernelValue:
    """Kernel on a compact group as the sum over classical paths."""
    if req.domain is not None or not req.phi.is_compact:
        raise ArgumentError("compact_pathsum needs a compact request (no domain)")
    rs = req.rs
    t = req.time.effective
    lat = winding_lattice(rs)
    points = enumerate_points(lat, req.phi, req.time.decay_scale(), req.tol, lam=rs.lam)
    value = _prefactor(rs.n, t) * _pathsum_terms(rs, req.phi, points, t, req.wall_limit)

    if req.time.conditionally_convergent:
        return KernelValue(
            value,
            ConvergenceTag.OSCILLATORY,
            warning="real time with epsilon=0: lattice tail does not decay; "
            "sum truncated on an Abel window",
        )
    return KernelValue(value, ConvergenceTag.CONVERGENT)


def _spectral_levels(rs: RootSystem, t_like: float, tol: float, level_cutoff: int | None):
    """Dominant weights retained by the spectral truncation rule.

    Retains every l whose Boltzmann-like weight exp(-lambda_l * t_like) is
    within tol * 1e-6 of the largest (the margin absorbs dimension growth),
    i.e. every l >= 0 with |l + rho|^2 <= rho^2 + lam * lambda_cut, in
    lexicographic order.  ``level_cutoff`` keeps the cube 0 <= l_i <= cutoff
    instead.
    """
    if level_cutoff is not None:
        return np.indices((level_cutoff + 1,) * rs.rank).reshape(rs.rank, -1).T
    lam_cut = math.log(1.0 / (tol * 1e-6)) / t_like
    labels, _ = _ellipsoid_points(rs.weights, rs.rho, 1.0, rs.rho @ rs.rho + rs.lam * lam_cut, lower=0)
    return labels


_spectral_cache: dict = {}


def _spectral_data(rs: RootSystem, t_like: float, tol: float, level_cutoff: int | None):
    """Representation data for the retained dominant weights l.

    Returns (lambda_l, d_l, orbit, d_l / V_G).  ``orbit`` is (coords,
    parities, reach): the weight coordinates of each Weyl orbit of l + rho,
    shape (r, L, |W|), the parities of the Weyl images, and a bound on the
    coordinates' moduli.  The cache keeps at most ``_ORBIT_CAP`` orbit
    entries and drops the oldest tables to make room.
    """
    key = (rs.cache_key(), round(float(t_like), 12), tol, level_cutoff)
    cached = _spectral_cache.get(key)
    if cached is not None:
        return cached
    group = generate_weyl_group(rs)
    labels = _spectral_levels(rs, t_like, tol, level_cutoff)
    size = len(labels) * group.order
    if size > _ORBIT_CAP:
        raise ResourceError(
            f"spectral table needs {len(labels)} levels x {group.order} Weyl images "
            f"(> {_ORBIT_CAP} orbit entries); use the path sum"
        )
    # drop the oldest tables until this one fits under the cap
    resident = [orbit[0][0].size for _, _, orbit, _ in _spectral_cache.values()]
    while resident and size + sum(resident) > _ORBIT_CAP:
        del _spectral_cache[next(iter(_spectral_cache))]
        resident.pop(0)
    nvecs = (labels + 1) @ rs.weights
    lam_l = (np.einsum("li,li->l", nvecs, nvecs) - rs.rho @ rs.rho) / rs.lam
    dims = np.prod(nvecs @ rs.positive_roots.T, axis=1) / np.prod(rs.positive_roots @ rs.rho)
    # |coordinate j of w(l + rho)| <= sum_i (l_i + 1) max_w |W_w[i, j]|
    reach = int(((labels + 1) @ np.abs(group.weight_matrices).max(axis=0)).max())
    dtype = next(d for d in (np.int16, np.int32, np.int64) if reach <= np.iinfo(d).max)
    coords = np.empty((rs.rank, len(labels), group.order), dtype=dtype)
    step = max(1, _BLOCK // group.order)
    for start in range(0, len(labels), step):
        coords[:, start : start + step] = weight_orbit(group, labels[start : start + step] + 1)
    data = (lam_l, dims, (coords, group.parities.astype(complex), reach), dims / group_volume(rs))
    _spectral_cache[key] = data
    return data


def _level_sums(rs: RootSystem, orbit, phi, limit: bool) -> tuple:
    """Signed orbit sum of every level at phi, and the Weyl denominator.

    Walks the levels in blocks of about ``_BLOCK`` orbit entries.  Each
    level's signed sum is formed before any level weight multiplies it:
    d_l exp(-lambda_l t) on the cancelling terms would lose digits.
    """
    coords, parities, reach = orbit
    terms, denom = orbit_quotient(rs, phi, limit, reach)
    step = max(1, _BLOCK // len(parities))
    sums = np.empty(coords.shape[1], dtype=complex)
    for start in range(0, len(sums), step):
        sums[start : start + step] = terms(coords[:, start : start + step]) @ parities
    return sums, denom


def compact_spectral(req: KernelRequest) -> KernelValue:
    """Kernel on a compact group as the sum over unitary representations."""
    if req.domain is not None or not req.phi.is_compact:
        raise ArgumentError("compact_spectral needs a compact request (no domain)")
    if req.time.conditionally_convergent:
        raise ConvergenceError(
            "spectral series does not converge for real time with epsilon=0; "
            "supply an Abel regulator epsilon > 0 or use heat mode"
        )
    rs = req.rs
    t = req.time.effective
    x = np.asarray(req.phi.values, dtype=float)
    lam_l, _, orbit, weights = _spectral_data(rs, req.time.decay_scale(), req.tol, req.level_cutoff)
    sums, denom = _level_sums(rs, orbit, x, req.wall_limit)
    value = complex((weights * np.exp(-1j * lam_l * t)) @ sums / denom)
    return KernelValue(value, ConvergenceTag.CONVERGENT)


def noncompact_pathsum(req: KernelRequest) -> KernelValue:
    """Kernel on a non-compact evolution domain by the restricted path sum."""
    if req.domain is None:
        raise ArgumentError("noncompact_pathsum needs an evolution domain")
    rs = req.rs
    t = req.time.effective
    sub = domain_sublattice(winding_lattice(rs), req.domain)
    points = enumerate_points(sub, req.phi, req.time.decay_scale(), req.tol, lam=rs.lam)
    value = _prefactor(rs.n, t) * _pathsum_terms(rs, req.phi, points, t, req.wall_limit)

    tag, warning = _noncompact_tag(rs, req, t)
    return KernelValue(value, tag, warning)


def _noncompact_tag(rs: RootSystem, req: KernelRequest, t: complex):
    theta = req.phi.theta_vector()
    theta2 = float(theta @ theta)
    # real part of the theta-direction exponent i*lam*(-theta^2)/(4t)
    growth = float(np.real(1j * rs.lam * (-theta2) / (4.0 * t)))
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
