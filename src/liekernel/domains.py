"""Evolution domains of non-compact real forms and element classification.

Each supported family carries a "classification system": the compact
parent's root system together with the weight forms of the defining
representation, so that an element with complex radial vector phi has
eigenvalue multiset { exp(i mu_k . phi) }.  Classification inverts that map;
domain enumeration lists the signature masks the family's eigenvalue
conditions allow.  Explicit coordinates (and hence masks and classification)
ship for the systems the reference tables cover: rank <= 3 for the A family
and its real forms, all ranks for the B family and Sp(2n,R), rank 3 for
USp(2p,2q), and p+q = 6 for even orthogonal groups (through the A3 ~ D3
identification).  Domain counts are available for every (p, q).
"""

from __future__ import annotations

import enum
import functools
import itertools
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
    _hermite_normal_form,
    _inverse,
    _lcm_denominators,
    _rationalize,
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
            return GroupFamily(GroupKind.SP, n // 2)
        return GroupFamily(GroupKind.SL, n)
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


def _apair_diff_axes(rs: RootSystem) -> list:
    """Axis index carried by gamma_{2k-1} for each A-family weight pair."""
    axes = []
    for k in range(0, rs.rank, 2):
        g = rs.simple_roots[k]
        axis = int(np.argmax(np.abs(g)))
        if not np.allclose(np.delete(g, axis), 0.0, atol=1e-12):
            return []  # not axis-aligned; no concrete coordinates at this rank
        axes.append(axis)
    return axes


def _system_a(n: int) -> _System:
    rs = build_root_system("A", n - 1)
    chain = [rs.weights[0]]
    for k in range(n - 1):
        chain.append(chain[-1] - rs.simple_roots[k])
    weights = np.array(chain)
    if not np.allclose(weights.sum(axis=0), 0.0, atol=1e-10):
        raise InternalError("defining-representation weights do not sum to zero")
    diff_axes = _apair_diff_axes(rs)
    slots = []
    concrete = bool(diff_axes) or n == 2
    if n == 2:
        diff_axes = [0]
    for k in range(n // 2):
        slots.append(("apair", 2 * k, 2 * k + 1, diff_axes[k] if diff_axes else -1))
    if n % 2:
        slots.append(("asingle", n - 1))
    return _System(rs, weights, tuple(slots), concrete)


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
    sums = [mus[i] + mus[j] for i, j in itertools.combinations(range(4), 2)]
    # group into +-v pairs
    vecs = []
    used = set()
    for i, v in enumerate(sums):
        if i in used:
            continue
        for j in range(i + 1, 6):
            if j not in used and np.allclose(sums[j], -v, atol=1e-10):
                used.update((i, j))
                vecs.append(v)
                break
    if len(vecs) != 3:
        raise InternalError("six-dimensional weight pairing failed")
    # pure axis-1 pair goes last; the two x/z mixers form the quartet
    vecs.sort(key=lambda v: abs(v[1]))
    weights = np.vstack([vecs, [-v for v in vecs]])
    slots = (("quartet", (0, 1, 3, 4), (0, 2)), ("pair", 2, 5, 1))
    # the vector-eigenvalue map is blind to the sign of a single rotation
    # plane, so its stabilizer extends W(A3) by one axis flip (order 48)
    group = generate_weyl_group(rs)
    flip = np.diag([1.0, -1.0, 1.0])
    gens = [e.matrix for e in group] + [flip]
    eigen_group = _close_group(gens, gens, "the SO(6) eigenvalue stabilizer")
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


def _dual_integral_basis(weights: np.ndarray) -> np.ndarray:
    """Basis rows of {m : mu_k . m integer for every weight row mu_k}.

    Columns are scaled by their smallest nonzero magnitude so entries become
    rational; the scaled problem is solved exactly over the integers and the
    basis is unscaled at the end.
    """
    r = weights.shape[1]
    scales = np.ones(r)
    for j in range(r):
        nz = np.abs(weights[:, j])
        nz = nz[nz > 1e-12]
        if len(nz):
            scales[j] = nz.min()
    fracs = [[_rationalize(x) for x in row] for row in weights / scales]
    denom = _lcm_denominators(f for row in fracs for f in row)
    basis_cols = _hermite_normal_form(_transpose([[int(f * denom) for f in row] for row in fracs]))
    if len(basis_cols[0]) != r:
        raise InternalError("defining weights do not span the root space")
    # rows of basis_cols^T span the integer row lattice of the scaled weights,
    # so the columns of denom * (basis_cols^T)^-1 generate the dual lattice
    dual_cols = [[denom * x for x in row] for row in _inverse(_transpose(basis_cols))]
    # canonical integer HNF form of the (possibly rational) dual basis
    dd = _lcm_denominators(x for row in dual_cols for x in row)
    canon = _hermite_normal_form([[int(x * dd) for x in row] for row in dual_cols])
    gens_scaled = np.array(_transpose(canon), dtype=float) / float(dd)
    return gens_scaled / scales[None, :]


@functools.cache
def classification_lattice(family: GroupFamily):
    """Periodicity lattice of the defining representation's eigenvalue map.

    Contains the coroot winding lattice; strictly finer for vector
    representations that do not see the center (odd orthogonal groups and
    the six-dimensional systems), where radial parameters are only defined
    modulo this lattice.
    """
    from .lattice import WindingLattice

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
    from .lattice import reduce_lexmax

    sys = _system(family)
    group = sys.eigen_group or generate_weyl_group(sys.rs)
    reduced, _, _ = reduce_lexmax(group, classification_lattice(family), point)
    return reduced


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
    return domains


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


def _eta(family: GroupFamily) -> np.ndarray:
    k = family.kind
    if k in (GroupKind.SU, GroupKind.SO):
        return np.diag([1.0] * family.p + [-1.0] * family.q)
    if k is GroupKind.USP:
        n = family.p + family.q
        eta_n = [1.0] * family.p + [-1.0] * family.q
        return np.diag(eta_n + eta_n)
    raise InternalError("eta undefined for this family")


def _zeta(n: int) -> np.ndarray:
    return np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])


def check_defining_relation(family: GroupFamily, g: np.ndarray) -> None:
    """Raise NotInGroupError unless g satisfies the family's relations."""
    g = np.asarray(g, dtype=complex)
    d = family.matrix_dim
    if g.shape != (d, d):
        raise NotInGroupError(f"{family.name} elements are {d}x{d}, got {g.shape}")
    scale = max(1.0, float(np.abs(g).max()))
    k = family.kind

    def _req(cond, msg):
        if not cond:
            raise NotInGroupError(f"{family.name}: {msg}")

    if k in (GroupKind.SL, GroupKind.SP) or (k is GroupKind.SO):
        _req(np.abs(g.imag).max() <= _DEFINING_TOL * scale, "matrix must be real")
    if k is GroupKind.SU:
        eta = _eta(family)
        _req(
            np.abs(g @ eta @ g.conj().T - eta).max() <= _DEFINING_TOL * scale**2,
            "g eta g^dagger != eta",
        )
    if k is GroupKind.SO:
        eta = _eta(family)
        _req(
            np.abs(g @ eta @ g.T - eta).max() <= _DEFINING_TOL * scale**2,
            "g eta g^T != eta",
        )
    if k is GroupKind.USP:
        eta = _eta(family)
        zeta = _zeta(family.p + family.q)
        _req(
            np.abs(g @ eta @ g.conj().T - eta).max() <= _DEFINING_TOL * scale**2,
            "g eta g^dagger != eta",
        )
        _req(
            np.abs(g.T @ zeta @ g - zeta).max() <= _DEFINING_TOL * scale**2,
            "g^T zeta g != zeta",
        )
    if k is GroupKind.SP:
        zeta = _zeta(family.p)
        _req(
            np.abs(g.T @ zeta @ g - zeta).max() <= _DEFINING_TOL * scale**2,
            "g^T zeta g != zeta",
        )
    if k in (GroupKind.SU, GroupKind.SL, GroupKind.SO):
        _req(abs(np.linalg.det(g) - 1.0) <= 100 * _DEFINING_TOL * scale**d, "det(g) != 1")


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


@functools.cache
def _matcher(dom: EvolutionDomain) -> dict:
    from scipy.linalg import qr

    weights = _system(dom.family).weights
    real_axes = [j for j, s in enumerate(dom.signature) if s == REAL]
    imag_axes = [j for j, s in enumerate(dom.signature) if s == IMAGINARY]
    w_r = weights[:, real_axes]
    w_i = weights[:, imag_axes]
    slot_unit = np.array([np.allclose(w_i[k], 0.0, atol=1e-12) for k in range(len(weights))])
    if w_r.shape[1]:
        _, _, piv = qr(w_r.T, pivoting=True)
        sub_rows = list(piv[: w_r.shape[1]])
        a_sub_inv = np.linalg.inv(w_r[sub_rows])
    else:
        sub_rows, a_sub_inv = [], None
    offsets = [
        2.0 * np.pi * np.array(offs)
        for offs in itertools.product((-1, 0, 1), repeat=len(sub_rows))
    ]
    pinv_wi = np.linalg.pinv(-w_i) if imag_axes else None
    return {
        "real_axes": real_axes,
        "imag_axes": imag_axes,
        "w_r": w_r,
        "w_i": w_i,
        "slot_unit": slot_unit,
        "sub_rows": sub_rows,
        "a_sub_inv": a_sub_inv,
        "offsets": offsets,
        "pinv_wi": pinv_wi,
    }


def _match_domain(sys: _System, dom: EvolutionDomain, eig: np.ndarray):
    """Solve exp(i W phi) = eig for phi with dom's signature, or return None.

    Slots of weights that vanish on the imaginary axes need unit-modulus
    eigenvalues; the other slots take the rest, which may include unit ones
    (a zero imaginary parameter).
    """
    m = _matcher(dom)
    nw = len(sys.weights)
    slot_unit = m["slot_unit"]
    eig_unit = _unit_class(eig)
    if slot_unit.sum() > eig_unit.sum():
        return None

    unit_slots = np.where(slot_unit)[0]
    nonunit_slots = np.where(~slot_unit)[0]
    unit_eigs = np.where(eig_unit)[0].tolist()
    log_mod = np.log(np.abs(eig))
    args = np.angle(eig)
    w_r, w_i = m["w_r"], m["w_i"]
    scale = max(1.0, float(np.abs(eig).max()))

    def verify(x, y, assign):
        phase = w_r @ x if w_r.shape[1] else np.zeros(nw)
        damp = w_i @ y if w_i.shape[1] else np.zeros(nw)
        pred = np.exp(1j * phase - damp)
        return bool(np.abs(pred - eig[assign]).max() <= 1e-8 * scale)

    assign = np.empty(nw, dtype=int)
    for perm_u in itertools.permutations(unit_eigs, len(unit_slots)):
        assign[unit_slots] = perm_u
        rest = [k for k in range(nw) if k not in perm_u]
        for perm_n in itertools.permutations(rest):
            assign[nonunit_slots] = perm_n
            if m["imag_axes"]:
                y = m["pinv_wi"] @ log_mod[assign]
                if np.abs(w_i @ y + log_mod[assign]).max() > 1e-7:
                    continue
            else:
                if np.abs(log_mod[assign]).max() > 1e-7:
                    continue
                y = np.zeros(0)
            x = None
            if not m["sub_rows"]:
                if verify(np.zeros(0), y, assign):
                    x = np.zeros(0)
            else:
                base = args[assign][m["sub_rows"]]
                for off in m["offsets"]:
                    cand = m["a_sub_inv"] @ (base + off)
                    if verify(cand, y, assign):
                        x = cand
                        break
            if x is None:
                continue
            values = np.zeros(len(dom.signature))
            for idx, j in enumerate(m["real_axes"]):
                values[j] = x[idx]
            for idx, j in enumerate(m["imag_axes"]):
                values[j] = y[idx]
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
    g = np.asarray(matrix, dtype=complex)
    check_defining_relation(family, g)
    eig = np.linalg.eigvals(g)

    for dom in enumerate_domains(family):
        values = _match_domain(sys, dom, eig)
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
    """Largest |pred - eig| under the one-to-one pairing of least total distance."""
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(pred[:, None] - eig[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def predicted_eigenvalues(family: GroupFamily, point: RadialPoint) -> np.ndarray:
    """Eigenvalue multiset exp(i mu_k . phi) for a radial point."""
    sys = _system(family)
    return np.exp(1j * (sys.weights @ point.complex_vector()))


def domain_of_radial(family: GroupFamily, point: RadialPoint) -> EvolutionDomain:
    """The unique domain whose mask matches up to a Weyl permutation of axes."""
    sys = _system(family)
    rs = sys.rs
    group = generate_weyl_group(rs)
    proj_point = _span_projector(point.signature)
    for dom in enumerate_domains(family):
        if dom.signature == point.signature:
            return dom
        if dom.b != len(point.imag_axes):
            continue
        proj_dom = _span_projector(dom.signature)
        for elem in group:
            if np.allclose(elem.matrix @ proj_point @ elem.matrix.T, proj_dom, atol=1e-9):
                return dom
    raise ArgumentError(
        f"signature {''.join(point.signature)} matches no evolution domain of {family.name}"
    )


def _span_projector(signature) -> np.ndarray:
    diag = [1.0 if s == IMAGINARY else 0.0 for s in signature]
    return np.diag(diag)


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
    cv = point.complex_vector()
    k = family.kind
    if k in (GroupKind.SU, GroupKind.SL):
        g = _build_a_family(family, sys, cv)
    elif k is GroupKind.SO:
        g = _build_so(family, sys, cv)
    elif k is GroupKind.USP:
        g = _build_usp(family, sys, cv)
    else:
        g = _build_sp(family, sys, cv)

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


def _build_a_family(family: GroupFamily, sys: _System, cv: np.ndarray) -> np.ndarray:
    n = family.matrix_dim
    g = np.zeros((n, n), dtype=complex)
    if family.kind is GroupKind.SU:
        plus = list(range(family.p))
        minus = list(range(family.p, n))
    else:
        plus = list(range(n))
        minus = []
    for slot in sys.slots:
        cs = _slot_values(sys, slot, cv)
        if slot[0] == "asingle":
            (c,) = cs
            lam = np.exp(1j * c)
            _place_diag(g, plus, minus, lam, family)
        elif family.kind is GroupKind.SU:
            c1, c2 = cs
            if abs(c1.imag) < 1e-12 and abs(c2.imag) < 1e-12:
                _place_diag(g, plus, minus, np.exp(1j * c1), family)
                _place_diag(g, plus, minus, np.exp(1j * c2), family)
            else:
                if abs(c1.real - c2.real) > 1e-9:
                    raise InternalError("hyperbolic pair must share its phase")
                i, j = plus.pop(0), minus.pop(0)
                g[np.ix_([i, j], [i, j])] = _hyperbolic(c1.real, -c1.imag)
        else:  # SL(n,R): conjugate pair r e^{+-i psi} or two real eigenvalues
            c1, c2 = cs
            if abs(c1.real) < 1e-12 and abs(c2.real) < 1e-12:
                _place_diag(g, plus, minus, np.exp(1j * c1), family)
                _place_diag(g, plus, minus, np.exp(1j * c2), family)
            else:
                if abs(c1.imag - c2.imag) > 1e-9:
                    raise InternalError("conjugate pair must share its modulus")
                i, j = plus.pop(0), plus.pop(0)
                r, psi = np.exp(-c1.imag), c1.real
                g[np.ix_([i, j], [i, j])] = r * np.array(
                    [[np.cos(psi), -np.sin(psi)], [np.sin(psi), np.cos(psi)]]
                )
    return g


def _place_diag(g, plus, minus, lam, family):
    if family.kind is GroupKind.SL and abs(lam.imag) > 1e-9:
        raise InternalError("real unimodular normal form needs real lone eigenvalues")
    pool = plus if plus else minus
    i = pool.pop(0)
    g[i, i] = lam if family.kind is GroupKind.SU else lam.real


def _hyperbolic(chi, u):
    """e^{i chi} [[cosh u, sinh u], [sinh u, cosh u]]."""
    ch, sh = np.cosh(u), np.sinh(u)
    return np.exp(1j * chi) * np.array([[ch, sh], [sh, ch]])


def _so_rot(n, i, j, angle):
    m = np.eye(n)
    m[i, i] = m[j, j] = np.cos(angle)
    m[i, j] = -np.sin(angle)
    m[j, i] = np.sin(angle)
    return m


def _so_boost(n, i, j, u):
    m = np.eye(n)
    m[i, i] = m[j, j] = np.cosh(u)
    m[i, j] = m[j, i] = np.sinh(u)
    return m


def _build_so(family: GroupFamily, sys: _System, cv: np.ndarray) -> np.ndarray:
    """Rotation, boost and mixed-plane blocks placed on the axes in one pass.

    Boost and mixed planes span one + and one - axis each; a rotation then
    takes two + axes while two are left, else two - axes.  A zero exponent
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
            # diag(R, R) on (p1,p2 | m1,m2) commutes with the boosts [[0, I], [I, 0]]
            p1, p2, m1, m2 = plus.pop(0), plus.pop(0), minus.pop(0), minus.pop(0)
            g = g @ _so_rot(n, p1, p2, angle) @ _so_rot(n, m1, m2, angle)
            g = g @ _so_boost(n, p1, m1, u) @ _so_boost(n, p2, m2, u)
        for u in boosts:
            g = g @ _so_boost(n, plus.pop(0), minus.pop(0), u)
        for angle in rots:
            pool = plus if len(plus) >= 2 else minus
            g = g @ _so_rot(n, pool.pop(0), pool.pop(0), angle)
    except IndexError:
        raise InternalError(f"no axis allocation realizes this domain of {family.name}") from None
    return g


def _build_usp(family: GroupFamily, sys: _System, cv: np.ndarray) -> np.ndarray:
    nslots = family.p + family.q
    g = np.eye(2 * nslots, dtype=complex)
    plus = list(range(family.p))
    minus = list(range(family.p, nslots))

    def put_unit_pair(c):
        pool = plus if plus else minus
        i = pool.pop(0)
        g[i, i] = np.exp(1j * c.real)
        g[nslots + i, nslots + i] = np.exp(-1j * c.real)

    for slot in sys.slots:
        cs = _slot_values(sys, slot, cv)
        if slot[0] == "pair":
            (c,) = cs
            if abs(c.imag) > 1e-12:
                raise InternalError("lone symplectic pairs stay on the unit circle")
            put_unit_pair(c)
        else:
            c1, c2 = cs
            if abs(c1.imag) < 1e-12 and abs(c2.imag) < 1e-12:
                put_unit_pair(c1)
                put_unit_pair(c2)
            else:
                # exp of a = [[i chi, u], [u, i chi]] on (i, j) and of -a^T on (n+i, n+j)
                chi, u = c1.real, -c1.imag
                i, j = plus.pop(0), minus.pop(0)
                g[np.ix_([i, j], [i, j])] = _hyperbolic(chi, u)
                g[np.ix_([nslots + i, nslots + j], [nslots + i, nslots + j])] = _hyperbolic(-chi, -u)
    return g


def _build_sp(family: GroupFamily, sys: _System, cv: np.ndarray) -> np.ndarray:
    nslots = family.p
    g = np.zeros((2 * nslots, 2 * nslots))
    free = list(range(nslots))

    def put_pair(c):
        i = free.pop(0)
        if abs(c.imag) < 1e-12:
            a = c.real
            g[i, i] = g[nslots + i, nslots + i] = np.cos(a)
            g[i, nslots + i] = np.sin(a)
            g[nslots + i, i] = -np.sin(a)
        else:
            if abs(c.real) > 1e-9:
                raise InternalError("real symplectic pairs are purely rotational or hyperbolic")
            u = -c.imag
            g[i, i] = np.exp(u)
            g[nslots + i, nslots + i] = np.exp(-u)

    for slot in sys.slots:
        cs = _slot_values(sys, slot, cv)
        if slot[0] == "pair":
            put_pair(cs[0])
        else:
            put_pair(cs[0])
            put_pair(cs[1])
    return g
