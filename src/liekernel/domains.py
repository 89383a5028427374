"""Evolution domains of non-compact real forms and element classification.

Each supported family carries a "classification system": the compact
parent's root system together with the weight forms of the defining
representation, so that an element with complex radial vector phi has
eigenvalue multiset { exp(i mu_k . phi) }.  Classification inverts that map;
domain enumeration lists the signature masks the family's eigenvalue
conditions allow.  Explicit coordinates (and hence masks and classification)
ship for SU(p,q) and SL(n,R) at every rank, whose weight pairs differ along
the axes 2k of the A pair frame; for SO(p,q) with p+q odd and Sp(2n,R) at
every rank; for USp(2p,2q) where its mixed quartets fit (|p-q| <= 1 at rank
3, p = q elsewhere); and for even orthogonal groups at p+q = 6 (through the
A3 ~ D3 identification).  Sp(2,R) and USp(2) are SL(2,R) and SU(2).  Domain
counts are available for every (p, q).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    ClassificationError,
    ConfigurationError,
    InternalError,
    NotInGroupError,
)
from .lattice import (
    IMAGINARY,
    REAL,
    RadialPoint,
    WindingLattice,
    _hermite_normal_form,
    _kernel,
    _lcm_denominators,
    _lexmax_image,
    _lexmax_tables,
    _rationalize,
    _signature_preserving,
    _transpose,
)
from .rootsys import RootSystem, build_root_system
from .weyl import _close_group, generate_weyl_group

__all__ = [
    "GroupKind",
    "GroupFamily",
    "EvolutionDomain",
    "parse_group",
    "enumerate_domains",
    "domain_count",
    "classify_element",
    "build_element",
    "domain_of_radial",
    "canonical_radial",
    "classification_lattice",
    "predicted_eigenvalues",
    "check_defining_relation",
    "root_system_of",
]

_UNIT_TOL = 1e-9
_GUARD_TOL = 1e-6
_DEFINING_TOL = 1e-8
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
_EPS = float(np.finfo(float).eps)


class GroupKind(enum.Enum):
    SU = "SU"
    SL = "SL"
    SO = "SO"
    USP = "USp"
    SP = "Sp"


@dataclass(frozen=True)
class GroupFamily:
    """A classical matrix group, possibly a non-compact real form.

    SU(p,q) and SO(p,q) use signature integers (q = 0 for the compact
    group); USp(2p,2q) stores the halved indices; SL(n,R) and Sp(2n,R)
    store n with q = 0.
    """

    kind: GroupKind
    p: int
    q: int = 0

    def __post_init__(self):
        if self.p < 1 or self.q < 0:
            raise ConfigurationError(f"bad signature ({self.p},{self.q}) for {self.kind.value}")
        if self.kind in (GroupKind.SL, GroupKind.SP) and self.q != 0:
            raise ConfigurationError(f"{self.kind.value} takes a single integer")
        if self.kind is GroupKind.SU and self.p + self.q < 2:
            raise ConfigurationError("SU needs p+q >= 2")
        if self.kind is GroupKind.SL and self.p < 2:
            raise ConfigurationError("SL needs n >= 2")
        if self.kind is GroupKind.SO and self.p + self.q < 5:
            raise ConfigurationError("SO supported for p+q >= 5")
        if self.kind in (GroupKind.SP, GroupKind.USP) and self.p + self.q == 1:
            same = "SL(2,R)" if self.kind is GroupKind.SP else "SU(2)"
            raise ConfigurationError(f"{self.name} is {same}, the same matrices; use {same} "
                                     "(parse_group maps the name)")

    @property
    def name(self) -> str:
        k = self.kind
        if k is GroupKind.SU:
            return f"SU({self.p},{self.q})" if self.q else f"SU({self.p})"
        if k is GroupKind.SL:
            return f"SL({self.p},R)"
        if k is GroupKind.SO:
            return f"SO({self.p},{self.q})" if self.q else f"SO({self.p})"
        if k is GroupKind.USP:
            return f"USp({2 * self.p},{2 * self.q})" if self.q else f"USp({2 * self.p})"
        return f"Sp({2 * self.p},R)"

    @property
    def is_compact(self) -> bool:
        return self.kind in (GroupKind.SU, GroupKind.SO, GroupKind.USP) and self.q == 0

    @property
    def rank(self) -> int:
        k = self.kind
        if k in (GroupKind.SU, GroupKind.SL):
            return (self.p + self.q if k is GroupKind.SU else self.p) - 1
        if k is GroupKind.SO:
            m = self.p + self.q
            return (m - 1) // 2 if m % 2 else m // 2
        return self.p + self.q if k is GroupKind.USP else self.p

    @property
    def matrix_dim(self) -> int:
        k = self.kind
        if k is GroupKind.SU:
            return self.p + self.q
        if k is GroupKind.SL:
            return self.p
        if k is GroupKind.SO:
            return self.p + self.q
        if k is GroupKind.USP:
            return 2 * (self.p + self.q)
        return 2 * self.p

    def __str__(self):
        return self.name


_GROUP_RE = re.compile(
    r"^\s*(SU|SL|SO|USP|SP)\s*\(?\s*(\d+)\s*(?:,\s*(\d+|R)\s*)?\)?\s*(R?)\s*$", re.IGNORECASE
)


def parse_group(name: str) -> GroupFamily:
    """Parse names like ``SU(2,1)``, ``SU21``, ``Sp(6,R)``, ``SP6R``, ``SO5``."""
    if not isinstance(name, str):
        raise ArgumentError(f"group name must be a string, got {name!r}")
    m = _GROUP_RE.match(name)
    if not m:
        raise ConfigurationError(f"cannot parse group name {name!r}")
    head = m.group(1).upper()
    first = m.group(2)
    second = m.group(3)
    trail_r = bool(m.group(4)) or (second or "").upper() == "R"
    if (second or "").upper() == "R":
        second = None

    if head in ("SL", "SP"):
        n = int(first)
        if second is not None:
            raise ConfigurationError(f"{head} takes one integer (and R): {name!r}")
        if head == "SP":
            if n % 2:
                raise ConfigurationError(f"Sp(2n,R) needs an even matrix size, got {n}")
            if n != 2:
                return GroupFamily(GroupKind.SP, n // 2)
        return GroupFamily(GroupKind.SL, n)  # Sp(2,R) is SL(2,R)
    if trail_r:
        raise ConfigurationError(f"trailing R only applies to SL and Sp: {name!r}")

    if second is None and len(first) >= 2 and "(" not in name:
        # compressed two-digit signature like SU21
        first, second = first[:-1], first[-1]
    p = int(first)
    q = int(second) if second is not None else 0
    if head == "SU":
        return GroupFamily(GroupKind.SU, p, q)
    if head == "SO":
        return GroupFamily(GroupKind.SO, p, q)
    if head == "USP":
        if p % 2 or q % 2:
            raise ConfigurationError(f"USp takes even arguments USp(2p,2q): {name!r}")
        if (p, q) == (2, 0):
            return GroupFamily(GroupKind.SU, 2)  # USp(2) is SU(2)
        return GroupFamily(GroupKind.USP, p // 2, q // 2)
    raise ConfigurationError(f"cannot parse group name {name!r}")


@dataclass(frozen=True)
class EvolutionDomain:
    """One coordinate patch D_a: signature mask over the root-space axes."""

    family: GroupFamily
    label: str
    a: int
    signature: tuple

    @property
    def b(self) -> int:
        return len(self.signature) - self.a

    def __str__(self):
        return f"{self.family.name} {self.label} {''.join(self.signature)}"


# ---------------------------------------------------------------------------
# classification systems
# ---------------------------------------------------------------------------

# slot kinds: ("apair", w1, w2, diff_axis) | ("asingle", w) |
#             ("pair", wplus, wminus, axis) | ("quartet", (w...), (axis_a, axis_b)) |
#             ("zero", w)


@dataclass(frozen=True)
class _System:
    rs: RootSystem
    weights: np.ndarray
    slots: tuple
    concrete: bool  # masks/classification available
    eigen_group: object = None  # stabilizer of the weight multiset, if larger than W


def _system_a(n: int) -> _System:
    rs = build_root_system("A", n - 1)
    chain = [rs.weights[0]]
    for k in range(n - 1):
        chain.append(chain[-1] - rs.simple_roots[k])
    weights = np.array(chain)
    if not np.allclose(weights.sum(axis=0), 0.0, atol=1e-10):
        raise InternalError("defining-representation weights do not sum to zero")
    # weights 2k and 2k+1 differ by gamma_2k, which is the pair frame's axis 2k
    slots = [("apair", 2 * k, 2 * k + 1, 2 * k) for k in range(n // 2)]
    if n % 2:
        slots.append(("asingle", n - 1))
    return _System(rs, weights, tuple(slots), True)


def _system_b(r: int) -> _System:
    rs = build_root_system("B", r)
    weights = np.vstack([np.eye(r), -np.eye(r), np.zeros((1, r))])
    slots = [("pair", j, r + j, j) for j in range(r)] + [("zero", 2 * r)]
    return _System(rs, weights, tuple(slots), True)


def _system_c(r: int) -> _System:
    rs = build_root_system("C", r)
    if r == 3:
        f = np.array([[0.5, 0.5, 0.0], [0.5, -0.5, 0.0], [0.0, 0.0, np.sqrt(2.0) / 2.0]])
        weights = np.vstack([f, -f])
        slots = (("quartet", (0, 1, 3, 4), (0, 1)), ("pair", 2, 5, 2))
        return _System(rs, weights, slots, True)
    f = np.eye(r) * (np.sqrt(2.0) / 2.0)
    weights = np.vstack([f, -f])
    slots = tuple(("pair", j, r + j, j) for j in range(r))
    return _System(rs, weights, slots, True)


def _system_d6() -> _System:
    """SO(6)-type system through the A3 coordinates of the reference tables."""
    a3 = _system_a(4)
    rs = a3.rs
    mus = a3.weights
    # the weights mu_i + mu_j of the vector representation pair up as +-v,
    # v = mu_0 + mu_k, since the four mu sum to zero
    vecs = [mus[0] + mus[k] for k in (1, 2, 3)]
    # pure axis-1 pair goes last; the two x/z mixers form the quartet
    vecs.sort(key=lambda v: abs(v[1]))
    weights = np.vstack([vecs, [-v for v in vecs]])
    slots = (("quartet", (0, 1, 3, 4), (0, 2)), ("pair", 2, 5, 1))
    # the vector-eigenvalue map is blind to the sign of a single rotation
    # plane, so its stabilizer extends W(A3) by one axis flip (order 48)
    gens = [*generate_weyl_group(rs).matrices, np.diag([1.0, -1.0, 1.0])]
    eigen_group = _close_group(gens, gens, "the SO(6) eigenvalue stabilizer", rs.weights)
    return _System(rs, weights, slots, True, eigen_group)


@functools.cache
def _system(family: GroupFamily) -> _System:
    k = family.kind
    if k in (GroupKind.SU, GroupKind.SL):
        return _system_a(family.matrix_dim)
    if k is GroupKind.SO and (family.p + family.q) % 2:
        return _system_b(family.rank)
    if k is GroupKind.SO:
        if family.p + family.q == 6:
            return _system_d6()
        rs = build_root_system("D", family.rank)
        weights = np.vstack([np.eye(family.rank), -np.eye(family.rank)])
        slots = tuple(("pair", j, family.rank + j, j) for j in range(family.rank))
        return _System(rs, weights, slots, False)
    return _system_c(family.rank)


def root_system_of(family: GroupFamily) -> RootSystem:
    return _system(family).rs


def _rational_columns(weights: np.ndarray) -> tuple:
    """(rows of Fractions, column scales): each column of ``weights`` divided
    by its smallest nonzero magnitude, which makes the entries rational."""
    scales = np.ones(weights.shape[1])
    for j in range(weights.shape[1]):
        nz = np.abs(weights[:, j])
        nz = nz[nz > 1e-12]
        if len(nz):
            scales[j] = nz.min()
    return [[_rationalize(x) for x in row] for row in weights / scales], scales


def _dual_integral_basis(weights: np.ndarray) -> np.ndarray:
    """Basis rows of {m : mu_k . m integer for every weight row mu_k}.

    The column-scaled problem is solved exactly over the integers and the
    basis is unscaled at the end.
    """
    r = weights.shape[1]
    fracs, scales = _rational_columns(weights)
    denom = _lcm_denominators(f for row in fracs for f in row)
    basis = _hermite_normal_form(_transpose([[int(f * denom) for f in row] for row in fracs]))
    if len(basis[0]) != r:
        raise InternalError("defining weights do not span the root space")
    # the rows of basis^T span the integer row lattice of the scaled weights,
    # so the dual is {m : basis^T @ m in denom Z^r}; basis is triangular, so
    # c = det * m is integral, and the c are the first r coordinates of the
    # integer kernel of [basis^T | -denom det I_r]
    det = math.prod(basis[j][j] for j in range(r))
    rows = [row + [-denom * det * (i == k) for k in range(r)] for i, row in enumerate(_transpose(basis))]
    canon = _hermite_normal_form(_transpose([vec[:r] for vec in _kernel(rows)]))
    gens_scaled = np.array(_transpose(canon), dtype=float) / float(det)
    return gens_scaled / scales[None, :]


@functools.cache
def classification_lattice(family: GroupFamily):
    """Periodicity lattice of the defining representation's eigenvalue map.

    Contains the coroot winding lattice; strictly finer for vector
    representations that do not see the center (odd orthogonal groups and
    the six-dimensional systems), where radial parameters are only defined
    modulo this lattice.
    """
    gens = _dual_integral_basis(_system(family).weights)
    return WindingLattice(generators=gens, coeffs=np.eye(len(gens), dtype=int))


def canonical_radial(family: GroupFamily, point: RadialPoint) -> RadialPoint:
    """Canonical representative of a radial point for classification.

    Reduces modulo the defining representation's periodicity lattice and the
    signature-preserving Weyl moves; classify_element returns this
    representative.  Round trips through build_element and classify_element
    compare equal when the point lies inside its reduction cell: its
    coordinates over the domain sublattice are off half-integers, where the
    rounding ties, and no two Weyl images tie in the lexicographic order.  On
    such a boundary (SU(3,1) D3 at (pi, 8.886, pi), for example) the round
    trip's rounding may land on another representative, with the same domain
    and eigenvalue multiset.
    """
    return _lexmax_image(_canonical_tables(family, point.signature), point)[0]


@functools.cache
def _canonical_tables(family: GroupFamily, signature: tuple) -> tuple:
    """``canonical_radial``'s reduction tables for one signature; a signature
    that no domain has is refused."""
    _signature_domain(family, signature)
    sys = _system(family)
    return _lexmax_tables(sys.eigen_group or generate_weyl_group(sys.rs), classification_lattice(family), signature)


# ---------------------------------------------------------------------------
# domain enumeration
# ---------------------------------------------------------------------------


def domain_count(family: GroupFamily) -> int:
    """Number of evolution domains from the per-family eigenvalue analysis."""
    k = family.kind
    if family.is_compact:
        return 1
    if k is GroupKind.SU:
        return min(family.p, family.q) + 1
    if k is GroupKind.SL:
        return family.p // 2 + 1
    if k is GroupKind.SO and (family.p + family.q) % 2:
        return min(family.p, family.q) + 1
    if k is GroupKind.SO:
        return len(_even_so_bvalues(family.p, family.q))
    if k is GroupKind.USP:
        # printed rule; the quartet analysis would give min(p,q)+1, which the
        # catalogued case cannot discriminate between the two
        return abs(family.p - family.q) + 1
    return family.p + 1  # Sp(2n,R)


def _even_so_bvalues(p: int, q: int) -> list:
    """Achievable counts of imaginary parameters for even SO(p,q).

    beta plain boosts (one +,- plane each, parity of p), kappa mixed-plane
    quartets (two + and two - axes, one real and one imaginary parameter).
    """
    if (p + q) % 2:
        raise ArgumentError("even case only")
    if (p - q) % 2:
        raise InternalError("p and q must share parity when p+q is even")
    bs = set()
    for beta in range(p % 2, min(p, q) + 1, 2):
        kappa = 0
        while beta + 2 * kappa <= min(p, q):
            bs.add(beta + kappa)
            kappa += 1
    if not bs:
        bs = {0}
    return sorted(bs)


def _mask(rank: int, imag_axes) -> tuple:
    sig = [REAL] * rank
    for j in imag_axes:
        sig[j] = IMAGINARY
    return tuple(sig)


def _domain(family: GroupFamily, signature) -> EvolutionDomain:
    a = sum(1 for s in signature if s == REAL)
    return EvolutionDomain(family=family, label=f"D{a}", a=a, signature=tuple(signature))


def enumerate_domains(family: GroupFamily) -> list:
    """Evolution domains with signature masks, most compact first."""
    return list(_domains(family))


@functools.cache
def _domains(family: GroupFamily) -> tuple:
    sys = _system(family)
    rank = family.rank
    if family.is_compact:
        return [_domain(family, (REAL,) * rank)]
    if not sys.concrete:
        raise ConfigurationError(
            f"explicit domain coordinates are not implemented for {family.name}; "
            "domain_count is available for every signature"
        )
    k = family.kind
    domains = []
    if k is GroupKind.SU:
        diff_axes = [slot[3] for slot in sys.slots if slot[0] == "apair"]
        for b in range(min(family.p, family.q) + 1):
            domains.append(_domain(family, _mask(rank, diff_axes[:b])))
    elif k is GroupKind.SL:
        diff_axes = [slot[3] for slot in sys.slots if slot[0] == "apair"]
        for pairs in range(family.p // 2, -1, -1):
            real_axes = set(diff_axes[len(diff_axes) - pairs:])
            domains.append(_domain(family, _mask(rank, set(range(rank)) - real_axes)))
    elif k is GroupKind.SO and (family.p + family.q) % 2:
        for b in range(min(family.p, family.q) + 1):
            domains.append(_domain(family, _mask(rank, range(rank - b, rank))))
    elif k is GroupKind.SO:
        domains = [_domain(family, sig) for sig in _even_so_masks(family, sys)]
    elif k is GroupKind.USP:
        quartets = [slot for slot in sys.slots if slot[0] == "quartet"]
        if abs(family.p - family.q) > len(quartets):
            raise ConfigurationError(
                f"{family.name} needs {abs(family.p - family.q)} mixed quartets; "
                f"coordinates implemented for rank 3 only"
            )
        for b in range(abs(family.p - family.q) + 1):
            imag = [quartets[i][2][0] for i in range(b)]
            domains.append(_domain(family, _mask(rank, imag)))
    else:  # Sp(2n,R)
        masks = _sp_masks(family, sys)
        domains = [_domain(family, sig) for sig in masks]
    counted = domain_count(family)
    if len(domains) != counted:
        raise InternalError(
            f"{family.name}: enumerated {len(domains)} domains but the closed form says {counted}"
        )
    return tuple(domains)


def _sp_masks(family: GroupFamily, sys: _System) -> list:
    """Sp(2n,R) masks: every pair slot flips alone, quartet axes flip jointly."""
    rank = family.rank
    options = []
    for slot in sys.slots:
        if slot[0] == "pair":
            options.append(((), (slot[3],)))
        else:
            options.append(((), slot[2]))
    masks = {}
    for combo in itertools.product(*options):
        imag = tuple(sorted(j for grp in combo for j in grp))
        masks.setdefault(len(imag), _mask(rank, imag))
    return [masks[b] for b in sorted(masks)]


def _even_so_masks(family: GroupFamily, sys: _System) -> list:
    """Feasible signature masks for even SO(p,q) at p+q = 6 by axis counting."""
    p, q = family.p, family.q
    quartet = next(s for s in sys.slots if s[0] == "quartet")
    pair = next(s for s in sys.slots if s[0] == "pair")
    ax_a, ax_b = quartet[2]
    pair_axis = pair[3]
    # consumption options (plus_axes, minus_axes) per slot state
    quartet_states = {
        (): [(4, 0), (2, 2), (0, 4)],        # two rotations
        (ax_a,): [(2, 2)],                    # mixed plane, canonical orientation
        (ax_a, ax_b): [(2, 2)],               # two boosts
    }
    pair_states = {(): [(2, 0), (0, 2)], (pair_axis,): [(1, 1)]}
    feasible = {}
    for qs, ps in itertools.product(quartet_states, pair_states):
        ok = any(
            cq[0] + cp[0] == p and cq[1] + cp[1] == q
            for cq in quartet_states[qs]
            for cp in pair_states[ps]
        )
        if ok:
            imag = tuple(sorted(qs + ps))
            feasible[imag] = _mask(family.rank, imag)
    return [feasible[k] for k in sorted(feasible, key=lambda im: (len(im), im))]


# ---------------------------------------------------------------------------
# defining relations and eigenvalue classification
# ---------------------------------------------------------------------------


@functools.cache
def _eta(family: GroupFamily) -> np.ndarray:
    signs = [1.0] * family.p + [-1.0] * family.q
    if family.kind is GroupKind.USP:
        signs += signs
    elif family.kind not in (GroupKind.SU, GroupKind.SO):
        raise InternalError("eta undefined for this family")
    eta = np.diag(signs)
    eta.flags.writeable = False
    return eta


@functools.cache
def _zeta(n: int) -> np.ndarray:
    zeta = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    zeta.flags.writeable = False
    return zeta


def check_defining_relation(family: GroupFamily, g) -> np.ndarray:
    """Raise NotInGroupError unless g satisfies the family's relations;
    return g as a complex array."""
    try:
        g = np.asarray(g, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise NotInGroupError(f"{family.name} elements are numeric matrices: {exc}") from None
    d = family.matrix_dim
    if g.shape != (d, d):
        raise NotInGroupError(f"{family.name} elements are {d}x{d}, got {g.shape}")
    scale = float(np.abs(g).max())
    # NaN and inf fail here; the tolerances below grow as scale^d, and the
    # products' entries reach d scale^2, so both must stay finite
    if not (math.isfinite(scale) and d * math.log(max(1.0, scale)) + math.log(d) < _LOG_FLOAT_MAX):
        raise NotInGroupError(f"{family.name}: entries must be finite and of size below "
                              f"{math.exp((_LOG_FLOAT_MAX - math.log(d)) / d):.3g}, got {scale:.3g}")
    scale = max(1.0, scale)
    k = family.kind

    def _req(cond, msg):
        if not cond:
            raise NotInGroupError(f"{family.name}: {msg}")

    if k in (GroupKind.SL, GroupKind.SO, GroupKind.SP):
        _req(np.abs(g.imag).max() <= _DEFINING_TOL * scale, "matrix must be real")
    if k in (GroupKind.SU, GroupKind.SO, GroupKind.USP):
        # g eta by broadcasting, eta being diagonal; SO's g is real
        eta, dagger = _eta(family), k is not GroupKind.SO
        _req(
            np.abs((g * eta.diagonal()) @ (g.conj().T if dagger else g.T) - eta).max() <= _DEFINING_TOL * scale**2,
            "g eta g^dagger != eta" if dagger else "g eta g^T != eta",
        )
    if k in (GroupKind.USP, GroupKind.SP):
        zeta = _zeta(d // 2)
        _req(
            np.abs(g.T @ zeta @ g - zeta).max() <= _DEFINING_TOL * scale**2,
            "g^T zeta g != zeta",
        )
    if k in (GroupKind.SU, GroupKind.SL, GroupKind.SO):
        _req(abs(np.linalg.det(g) - 1.0) <= 100 * _DEFINING_TOL * scale**d, "det(g) != 1")
    return g


def _unit_class(eigenvalues: np.ndarray) -> np.ndarray:
    """True for unit-modulus eigenvalues; guard band raises."""
    mods = np.abs(np.abs(eigenvalues) - 1.0)
    if ((mods > _UNIT_TOL) & (mods < _GUARD_TOL)).any():
        raise ClassificationError(
            "eigenvalue modulus sits in the guard band around |lambda|=1 "
            f"({_UNIT_TOL}, {_GUARD_TOL}); element is too close to a domain boundary",
            eigenvalues=eigenvalues,
        )
    return mods <= _UNIT_TOL


def _spectrum(eig: np.ndarray) -> dict:
    """What ``_match_domain`` reads of an element's eigenvalues on every
    domain, computed once: the unit-modulus class (``_unit_class``'s guard
    band raises first), the phases and the match tolerance; and, unless a
    modulus vanishes, which no exp(i W phi) has, the log-moduli and the
    pruning bounds of ``_assignments``.
    """
    unit = _unit_class(eig)
    mods = np.abs(eig)
    args = np.angle(eig)
    tol = 1e-8 * max(1.0, float(mods.max()))
    spec = {"eig": eig, "unit": np.flatnonzero(unit).tolist(), "args": args, "tol": tol, "log_mod": None}
    if mods.all():
        log_mod = np.log(mods)
        spec.update(
            log_mod=log_mod,
            logs=log_mod.tolist(),
            phases=args.tolist(),
            mod_bound=1e-7 + 1e-9 * (1.0 + float(np.abs(log_mod).max())),
            # a modulus within 2 tol of 0 leaves the phase free: spread pi
            spread=(2.0 * np.arcsin(1.001 * tol / np.maximum(mods, 1.001 * tol))).tolist(),
        )
    return spec


def _relations(rows: list, order: list) -> tuple:
    """Per search depth d, the integer relation among the rows of slots
    order[:d+1] that depth d adds, or None when it adds none.

    A relation is ``(terms, l1)``: terms are (depth, c) pairs with
    sum c rows[order[depth]] = 0 and c nonzero at d itself.  The relations up
    to depth d span all relations among those rows, so checking each one as
    it appears checks them all.  Without columns every row vanishes, and each
    depth relates its row to nothing else.
    """
    out = []
    for d in range(len(order)):
        if not rows[0]:
            out.append((((d, 1),), 1))
            continue
        found = [c for c in _kernel(_transpose([rows[s] for s in order[: d + 1]])) if c[d]]
        if not found:
            out.append(None)
            continue
        c = min(found, key=lambda c: (sum(map(bool, c)), sum(map(abs, c))))
        out.append((tuple((p, k) for p, k in enumerate(c) if k), sum(map(abs, c))))
    return tuple(out)


@functools.cache
def _matcher(dom: EvolutionDomain) -> dict:
    """What ``_match_domain`` needs of a domain, built once.

    The weight columns of its real (w_r) and imaginary (w_i) axes; the slots
    whose weights vanish on the imaginary axes, which take unit-modulus
    eigenvalues; the search order (those slots first); and, per search depth,
    the integer relations that the depth's row adds among the w_i rows and
    among the w_r rows of the slots before it.  The phase rows are the slots
    whose w_r row adds no relation: an exact basis of w_r's row space, one per
    real axis, which ``a_sub_inv`` solves for the real parameters, with every
    lattice offset of their phases in ``offsets``.  Without real or imaginary
    axes the arrays are empty, and their products are zeros.
    """
    weights = _system(dom.family).weights
    real_axes = [j for j, s in enumerate(dom.signature) if s == REAL]
    imag_axes = [j for j, s in enumerate(dom.signature) if s == IMAGINARY]
    w_r = weights[:, real_axes]
    w_i = weights[:, imag_axes]
    slot_unit = np.array([np.allclose(w_i[k], 0.0, atol=1e-12) for k in range(len(weights))])
    # the search visits unit slots first, as the permutation order does
    order = np.flatnonzero(slot_unit).tolist() + np.flatnonzero(~slot_unit).tolist()
    exact, _ = _rational_columns(weights)
    relations = {}
    for key, axes, w in (("modulus", imag_axes, w_i), ("phase", real_axes, w_r)):
        relations[key] = _relations([[row[j] for j in axes] for row in exact], order)
        for rel in filter(None, relations[key]):
            if np.abs(sum(c * w[order[p]] for p, c in rel[0])).max(initial=0.0) > 1e-12:
                raise InternalError("integer weight relation does not hold in floating point")
    sub_rows = [order[d] for d, rel in enumerate(relations["phase"]) if rel is None]
    if len(sub_rows) != len(real_axes):
        raise InternalError("the weights do not span the real axes")
    offsets = 2.0 * np.pi * np.array(list(itertools.product((-1, 0, 1), repeat=len(sub_rows))))
    return {
        "real_axes": real_axes,
        "imag_axes": imag_axes,
        "w_r": w_r,
        "w_i": w_i,
        "slot_unit": slot_unit,
        "sub_rows": sub_rows,
        "a_sub_inv": np.linalg.inv(w_r[sub_rows]),
        "offsets": offsets,
        "pinv_wi": np.linalg.pinv(-w_i),
        "order": order,
        "unit_depth": int(slot_unit.sum()),
        "relations": relations,
    }


def _assignments(m: dict, spec: dict):
    """Slot assignments (eigenvalue index per slot, by search depth) in the
    order of ``itertools.permutations`` over unit slots then the rest.

    A prefix is cut only where no completion can pass ``_match_domain``'s two
    tests.  Those tests need |L_k + (w_i y)_k| <= 1e-7 (L the log-moduli) and
    |exp(i (w_r x)_k - (w_i y)_k) - eig_k| <= tol for every slot k.  So an
    integer relation c among the w_i rows of assigned slots bounds
    |sum c_k L_k| by |c|_1 1e-7, and one among their w_r rows puts
    sum c_k arg(eig_k) within sum |c_k| delta_k of 2 pi Z, delta_k the phase
    error that 2 tol allows an eigenvalue of modulus |eig_k|.  Both bounds
    carry a margin far above rounding.  The yielded list is reused.
    """
    order, unit_depth = m["order"], m["unit_depth"]
    nw = len(order)
    mod_rel, phase_rel = m["relations"]["modulus"], m["relations"]["phase"]
    logs, phases, mod_bound, spread, unit = (spec[k] for k in ("logs", "phases", "mod_bound", "spread", "unit"))
    free = [True] * nw
    pos = [0] * nw

    def fits(d):
        rel = mod_rel[d]
        if rel is not None and abs(sum(c * logs[pos[p]] for p, c in rel[0])) > rel[1] * mod_bound:
            return False
        rel = phase_rel[d]
        if rel is None:
            return True
        drift = abs(math.remainder(sum(c * phases[pos[p]] for p, c in rel[0]), 2.0 * math.pi))
        return drift <= sum(abs(c) * spread[pos[p]] for p, c in rel[0]) + 1e-9

    def walk(d):
        if d == nw:
            yield pos
            return
        for e in unit if d < unit_depth else range(nw):
            if free[e]:
                pos[d] = e
                if fits(d):
                    free[e] = False
                    yield from walk(d + 1)
                    free[e] = True

    return walk(0)


def _match_domain(dom: EvolutionDomain, spec: dict):
    """Solve exp(i W phi) = eig for phi with dom's signature, or return None;
    ``spec`` is the ``_spectrum`` of eig.

    Slots of weights that vanish on the imaginary axes need unit-modulus
    eigenvalues; the other slots take the rest, which may include unit ones
    (a zero imaginary parameter).  The first assignment of eigenvalues to
    slots, in permutation order, that passes both tests wins, with the first
    lattice offset of its phases that does.
    """
    m = _matcher(dom)
    eig, log_mod, args, tol = spec["eig"], spec["log_mod"], spec["args"], spec["tol"]
    if m["unit_depth"] > len(spec["unit"]) or log_mod is None:
        return None
    w_r, w_i = m["w_r"], m["w_i"]

    def verify(x, y, assign):
        pred = np.exp(1j * (w_r @ x) - w_i @ y)
        return bool(np.abs(pred - eig[assign]).max() <= tol)

    assign = np.empty(len(eig), dtype=int)
    for pos in _assignments(m, spec):
        assign[m["order"]] = pos
        y = m["pinv_wi"] @ log_mod[assign]
        damp = w_i @ y
        if np.abs(damp + log_mod[assign]).max() > 1e-7:
            continue
        base = args[assign][m["sub_rows"]]
        # every offset at once, with a margin over the rounding by which
        # these products differ from verify's; verify decides, in order
        cands = (base + m["offsets"]) @ m["a_sub_inv"].T
        miss = np.abs(np.exp(1j * (cands @ w_r.T) - damp) - eig[assign]).max(axis=1)
        x = None
        for k in np.flatnonzero(miss <= 1.001 * tol):
            cand = m["a_sub_inv"] @ (base + m["offsets"][k])
            if verify(cand, y, assign):
                x = cand
                break
        if x is None:
            continue
        values = np.zeros(len(dom.signature))
        values[m["real_axes"]] = x
        values[m["imag_axes"]] = y
        return values
    return None


def classify_element(family: GroupFamily, matrix) -> tuple:
    """Classify a matrix-group element into (EvolutionDomain, RadialPoint).

    The radial point is returned canonicalized (reduced modulo the domain's
    winding sublattice and the signature-preserving Weyl moves).
    """
    sys = _system(family)
    if not sys.concrete:
        raise ConfigurationError(f"classification coordinates not implemented for {family.name}")
    eig = np.linalg.eigvals(check_defining_relation(family, matrix))
    spec = _spectrum(eig)
    for dom in _domains(family):
        values = _match_domain(dom, spec)
        if values is None:
            continue
        point = RadialPoint(tuple(values), dom.signature)
        canonical = canonical_radial(family, point)
        if not _eigen_multiset_close(sys, canonical, eig):
            raise InternalError("canonicalization changed the eigenvalue multiset")
        return dom, canonical
    raise ClassificationError(
        f"eigenvalues of this {family.name} element match no evolution domain "
        f"(complex radial parameters or boundary element)",
        eigenvalues=eig,
    )


def _eigen_multiset_close(sys: _System, point: RadialPoint, eig: np.ndarray, tol: float = 1e-8) -> bool:
    pred = np.exp(1j * (sys.weights @ point.complex_vector()))
    return _pairing_residual(pred, eig) <= tol * max(1.0, float(np.abs(eig).max()))


def _pairing_residual(pred: np.ndarray, eig: np.ndarray) -> float:
    """Largest |pred - eig| under the one-to-one pairing of least total distance.

    That pairing is ``_least_cost_pairing``'s, read off without it where it
    is plain: when the rows' nearest columns are distinct and each row's
    nearest beats its next nearest by more than 2 n eps times the largest
    cost, every other pairing moves some row off its strict minimum and
    costs more, by more than the Hungarian's potentials, sums of at most 2n
    costs, can round.  Otherwise (repeated eigenvalues, near ties) the
    Hungarian decides.
    """
    cost = np.abs(pred[:, None] - eig[None, :])
    rows = cost.tolist()
    # a NaN or inf cost fails the margin test, so the Hungarian handles it
    margin = 2 * len(rows) * _EPS * float(cost.max())
    nearest = []
    for row in rows:
        low = sorted(row)[:2]
        if len(low) == 2 and not low[1] - low[0] > margin:
            break
        nearest.append(row.index(low[0]))
    if len(set(nearest)) < len(rows):
        return float(cost[np.arange(len(rows)), _least_cost_pairing(rows)].max())
    return max(row[j] for row, j in zip(rows, nearest))


def _least_cost_pairing(cost: list) -> list:
    """Column of each row in a pairing of least total cost.

    Shortest augmenting paths with dual potentials (Crouse 2016), one row at a
    time, in the order of operations and the tie rules of
    ``scipy.optimize.linear_sum_assignment``: columns are scanned from the
    last, and among equally short paths one ending at a free column wins.  So
    among several least-cost pairings it picks scipy's, and the residual does
    not depend on which module pairs.
    """
    n = len(cost)
    u, v = [0.0] * n, [0.0] * n
    col4row, row4col = [-1] * n, [-1] * n
    path = [-1] * n
    for cur in range(n):
        spc = [math.inf] * n  # shortest path cost to each column
        in_rows, in_cols = [False] * n, [False] * n
        remaining = list(range(n - 1, -1, -1))
        i, min_val, sink = cur, 0.0, -1
        while sink == -1:
            in_rows[i] = True
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + cost[i][j] - u[i] - v[j]
                if r < spc[j]:
                    path[j], spc[j] = i, r
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    index, lowest = it, spc[j]
            if lowest == math.inf:
                raise InternalError("cost matrix has no finite pairing")
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            in_cols[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in range(n):
            if in_rows[i] and i != cur:
                u[i] += min_val - spc[col4row[i]]
        for j in range(n):
            if in_cols[j]:
                v[j] -= min_val - spc[j]
        j = sink
        while True:  # flip the augmenting path
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def predicted_eigenvalues(family: GroupFamily, point: RadialPoint) -> np.ndarray:
    """Eigenvalue multiset exp(i mu_k . phi) for a radial point."""
    if point.rank != family.rank:
        raise ArgumentError(f"radial point has rank {point.rank}, {family.name} has rank {family.rank}")
    return np.exp(1j * (_system(family).weights @ point.complex_vector()))


def domain_of_radial(family: GroupFamily, point: RadialPoint) -> EvolutionDomain:
    """The unique domain whose mask matches up to a Weyl permutation of axes."""
    return _signature_domain(family, point.signature)


@functools.cache
def _signature_domain(family: GroupFamily, signature: tuple) -> EvolutionDomain:
    if len(signature) != family.rank:
        raise ArgumentError(f"radial point has rank {len(signature)}, {family.name} has rank {family.rank}")
    group = generate_weyl_group(_system(family).rs)
    for dom in _domains(family):
        if dom.b == signature.count(IMAGINARY) and len(_signature_preserving(group, signature, dom.signature)):
            return dom
    raise ArgumentError(
        f"signature {''.join(signature)} matches no evolution domain of {family.name}"
    )


# ---------------------------------------------------------------------------
# normal-form construction (radial point -> group element)
# ---------------------------------------------------------------------------


def build_element(family: GroupFamily, point: RadialPoint) -> np.ndarray:
    """Normal-form matrix with radial parameters ``point``.

    Produces block-diagonal rotation/boost/quartet normal forms; generic
    elements are conjugates v g v^{-1}, which classification never needs.
    The result is verified against the defining relation and the predicted
    eigenvalue multiset before being returned.
    """
    sys = _system(family)
    if not sys.concrete:
        raise ConfigurationError(f"normal forms not implemented for {family.name}")
    if len(point.signature) != family.rank:
        raise ArgumentError("radial point rank mismatch")
    _signature_domain(family, point.signature)
    cv = point.complex_vector()
    k = family.kind
    if k is GroupKind.SO:
        g = _build_so(family, sys, cv)
    elif k is GroupKind.SP:
        g = _build_sp(family, sys, cv)
    else:
        g = _build_unitary(family, sys, cv)

    check_defining_relation(family, g)
    if not _eigen_multiset_close(sys, point, np.linalg.eigvals(g)):
        raise InternalError(f"normal form for {family.name} does not reproduce its eigenvalues")
    return g


def _slot_values(sys: _System, slot, cv: np.ndarray) -> list:
    """Complex exponents mu_k . cv for the slot's weights."""
    idxs = {
        "apair": lambda s: [s[1], s[2]],
        "asingle": lambda s: [s[1]],
        "pair": lambda s: [s[1]],
        "quartet": lambda s: list(s[1][:2]),
        "zero": lambda s: [],
    }[slot[0]](slot)
    return [complex(sys.weights[i] @ cv) for i in idxs]


def _rot(a):
    """[[cos a, -sin a], [sin a, cos a]]."""
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s], [s, c]])


def _boost(u):
    """[[cosh u, sinh u], [sinh u, cosh u]]."""
    ch, sh = np.cosh(u), np.sinh(u)
    return np.array([[ch, sh], [sh, ch]])


def _place(g, axes, block):
    """Write ``block`` onto the rows and columns ``axes`` of g, entry by entry."""
    for a, i in enumerate(axes):
        for b, j in enumerate(axes):
            g[i, j] = block[a, b]


def _build_unitary(family: GroupFamily, sys: _System, cv: np.ndarray) -> np.ndarray:
    """SU(p,q), SL(n,R) and USp(2p,2q) normal forms on n = p + q axes.

    A pair of exponents off the unit circle is one 2 x 2 block:
    e^{i chi} boost(u) on a + and a - axis for SU and USp, r rot(psi) on two
    + axes for SL (all of whose axes are +).  Every other exponent c is a
    unit eigenvalue e^{ic} on one axis, a + axis only while more are left
    than the blocks still to come need.  USp repeats each block at axes n + i
    as e^{-i chi} boost(-u), and each unit eigenvalue as e^{-ic}: SU(p,q)'s
    form with its inverse-transpose mirror.
    """
    k = family.kind
    n = family.p + family.q
    g = np.zeros((family.matrix_dim,) * 2, dtype=complex)
    plus, minus = list(range(family.p)), list(range(family.p, n))
    # in slot order, unit exponents and (axis pools, block, USp mirror) triples;
    # need counts the + axes of the blocks still to place
    parts, need = [], 0
    for slot in sys.slots:
        cs = _slot_values(sys, slot, cv)
        if k is GroupKind.USP and len(cs) == 1 and abs(cs[0].imag) > 1e-12:
            raise InternalError("lone symplectic pairs stay on the unit circle")
        if len(cs) == 1 or all(abs(c.real if k is GroupKind.SL else c.imag) < 1e-12 for c in cs):
            parts += cs
            continue
        c1, c2 = cs
        if k is GroupKind.SL:
            if abs(c1.imag - c2.imag) > 1e-9:
                raise InternalError("conjugate pair must share its modulus")
            parts.append(((plus, plus), np.exp(-c1.imag) * _rot(c1.real), None))
            need += 2
            continue
        if k is GroupKind.SU and abs(c1.real - c2.real) > 1e-9:
            raise InternalError("hyperbolic pair must share its phase")
        chi, u = c1.real, -c1.imag
        mirror = np.exp(-1j * chi) * _boost(-u) if k is GroupKind.USP else None
        parts.append(((plus, minus), np.exp(1j * chi) * _boost(u), mirror))
        need += 1
    for part in parts:
        if isinstance(part, complex):
            i = (plus if len(plus) > need else minus).pop(0)
            if k is GroupKind.USP:
                g[i, i], g[n + i, n + i] = np.exp(1j * part.real), np.exp(-1j * part.real)
                continue
            lam = np.exp(1j * part)
            if k is GroupKind.SL and abs(lam.imag) > 1e-9:
                raise InternalError("real unimodular normal form needs real lone eigenvalues")
            g[i, i] = lam if k is GroupKind.SU else lam.real
            continue
        pools, block, mirror = part
        axes = [pool.pop(0) for pool in pools]
        need -= sum(pool is plus for pool in pools)
        _place(g, axes, block)
        if mirror is not None:
            _place(g, [n + i for i in axes], mirror)
    return g


def _build_so(family: GroupFamily, sys: _System, cv: np.ndarray) -> np.ndarray:
    """Rotation, boost and mixed-plane blocks placed on the axes in one pass.

    A boost plane spans one + and one - axis, a mixed plane two of each; a
    rotation then takes two + axes while two are left, else two - axes.  A zero exponent
    takes none, and unused axes (the zero weight's among them) stay fixed.
    The point fixes the planes and a rotation needs only a same-sign pair,
    so no other placement succeeds where this one runs out of axes.
    """
    n = family.matrix_dim
    rots, boosts, mixed = [], [], []
    for slot in sys.slots:
        cs = _slot_values(sys, slot, cv)
        if len(cs) == 2 and all(abs(c.real) > 1e-12 and abs(c.imag) >= 1e-12 for c in cs):
            # mixed plane: eigenvalues e^{+-iA +- B}, matched by the second
            # exponent (a mismatch fails the eigenvalue self-check)
            mixed.append((cs[0].real, cs[0].imag))
            continue
        for c in cs:
            if abs(c.imag) >= 1e-12:
                boosts.append(-c.imag)  # a real part here fails it too
            elif abs(c.real) >= 1e-12:
                rots.append(c.real)
    plus, minus = list(range(family.p)), list(range(family.p, n))
    g = np.eye(n)
    try:
        for angle, u in mixed:
            # diag(R, R) on (p1,p2 | m1,m2) commutes with the boosts [[0, I], [I, 0]], so
            # their product is the outer product boost (x) R, one product per entry
            block = np.multiply.outer(_boost(u), _rot(angle)).transpose(0, 2, 1, 3).reshape(4, 4)
            _place(g, (plus.pop(0), plus.pop(0), minus.pop(0), minus.pop(0)), block)
        for u in boosts:
            _place(g, (plus.pop(0), minus.pop(0)), _boost(u))
        for angle in rots:
            pool = plus if len(plus) >= 2 else minus
            _place(g, (pool.pop(0), pool.pop(0)), _rot(angle))
    except IndexError:
        raise InternalError(f"no axis allocation realizes this domain of {family.name}") from None
    return g


def _build_sp(family: GroupFamily, sys: _System, cv: np.ndarray) -> np.ndarray:
    """Sp(2n,R) normal form: the k-th exponent c, in slot order, on axes
    (k, n + k) as rot(c).T, or as diag(e^u, e^-u) for c = -iu."""
    n = family.p
    g = np.zeros((2 * n, 2 * n))
    for i, c in enumerate(c for slot in sys.slots for c in _slot_values(sys, slot, cv)):
        if abs(c.imag) < 1e-12:
            block = _rot(c.real).T
        elif abs(c.real) > 1e-9:
            raise InternalError("real symplectic pairs are purely rotational or hyperbolic")
        else:
            block = np.diag([np.exp(-c.imag), np.exp(c.imag)])
        _place(g, (i, n + i), block)
    return g
