"""The three workloads: seeded inputs, set-up, one op, and its oracle.

A workload object is built from a seed.  ``setup()`` imports liekernel and
builds everything the timed phase assumes ready, including the inputs;
``run(op)`` performs one op and returns an ``Outcome``.  Failures
are classified by the worker with ``core.classify_failure``.
"""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from core import compare_by_value

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs")

COMPACT_SYSTEMS = (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2),
                   ("B", 3), ("C", 2), ("C", 3), ("D", 3), ("D", 4))

# SU(1,1) and the ten catalogued real forms of the acceptance suite.
REAL_FORMS = ("SU(1,1)", "SU(2,1)", "SL(3,R)", "SO(4,1)", "SO(3,2)", "SU(3,1)",
              "SU(2,2)", "SO(3,3)", "SO(5,1)", "USp(4,2)", "Sp(6,R)")

REGULAR_FLOOR = 1e-4   # per-root test: every |sin(alpha.phi/2)| at least this
DUAL_RTOL = 1e-8       # path sum vs spectral expansion, relative
ROUNDTRIP_TOL = 1e-8   # classify(build(x)) vs x
CLI_RTOL = 1e-8        # CLI stdout vs stored reference, by value
CLI_FLOOR = 1e-12      # reference agreement below this is not resolved


@dataclass
class Outcome:
    ok: bool
    residual: float | None = None
    exit_code: int | None = None
    detail: str = ""


def system_name(family, rank):
    return f"{family}{rank}"


def min_root_sine(rs, phi) -> float:
    """Smallest |sin(alpha.phi/2)| over the positive roots."""
    return float(np.abs(np.sin(rs.positive_roots @ np.asarray(phi, dtype=float) / 2.0)).min())


def is_regular(rs, phi) -> bool:
    return min_root_sine(rs, phi) >= REGULAR_FLOOR


def alcove_vertices(rs) -> np.ndarray:
    """Vertices 2 pi w_i / a_i of the fundamental alcove (besides 0).

    w_i are the coweights dual to the simple roots and a_i the highest-root
    coefficients, so every vertex sits on the wall highest_root.phi = 2 pi.
    """
    coweights = np.linalg.inv(rs.simple_roots).T
    return 2.0 * np.pi * coweights / np.asarray(rs.highest_root_coeffs, dtype=float)[:, None]


# Kronecker sequence steps: fractional parts of square roots of primes.
_KRONECKER = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0]) % 1.0


def draw_points(rs, rng, count: int, near_identity: bool) -> list:
    """``count`` regular points, uniform over the alcove or over |phi_j| <= 0.3.

    Randomized quasi-Monte Carlo: a Kronecker sequence shifted by a seeded
    random vector, so each seed gives other points while the share of
    near-wall or far-from-identity points varies little between seeds.
    Alcove points come from sorted coordinates (uniform on the simplex).
    """
    verts = alcove_vertices(rs)
    shift = rng.random(rs.rank)
    points = []
    k = 0
    while len(points) < count:
        k += 1
        u = (k * _KRONECKER[: rs.rank] + shift) % 1.0
        if near_identity:
            phi = 0.6 * u - 0.3
        else:
            cuts = np.concatenate([np.sort(u), [1.0]])
            phi = np.diff(cuts) @ verts
        if is_regular(rs, phi):
            points.append(phi)
    return points


def _relative(a: complex, b: complex) -> float:
    if not (np.isfinite(a) and np.isfinite(b)):
        return float("inf")
    return abs(a - b) / max(abs(b), 1e-300)


class Workload:
    name = ""
    cap_s = 5.0
    # failure causes this workload is known to produce at this commit; any
    # other failure makes the run's ``correct`` false
    known_causes = frozenset()

    def __init__(self, seed: int, index: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, index])
        self.ops = []

    def setup(self):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def failure_tag(self, op) -> str:
        return ""

    def is_known_failure(self, op, cause) -> bool:
        return cause in self.known_causes

    def describe(self, op) -> str:
        return str(op)


class CompactGrid(Workload):
    """Radial points over the alcove and near the identity, fixed times."""

    name = "compact_grid"
    cap_s = 5.0
    known_causes = frozenset({"refusal", "oracle"})
    POINTS_PER_SYSTEM = 32
    # heat times per rank; every system also runs damped real time t=1, eps=0.1
    HEAT_TIMES = {1: (0.25, 1.0), 2: (0.25, 1.0), 3: (1.0, 2.0), 4: (2.0, 8.0)}
    REAL_TIME = (1.0, 0.1)

    def inputs(self, systems):
        ops = []
        for name, rs in systems.items():
            times = [("heat", tau) for tau in self.HEAT_TIMES[rs.rank]]
            times.append(("real",) + self.REAL_TIME)
            for near in (False, True):
                for phi in draw_points(rs, self.rng, self.POINTS_PER_SYSTEM // 2, near):
                    for spec in times:
                        ops.append((name, spec, tuple(phi), near))
        return ops

    def time_of(self, spec):
        tp = self.lk.TimeParameter
        return tp.heat(spec[1]) if spec[0] == "heat" else tp.real(spec[1], epsilon=spec[2])

    def setup(self):
        import liekernel as lk

        self.lk = lk
        self.systems = {}
        for family, rank in COMPACT_SYSTEMS:
            rs = lk.build_root_system(family, rank)
            lk.generate_weyl_group(rs)
            self.systems[system_name(family, rank)] = rs
        self.ops = self.inputs(self.systems)
        self.times = {}
        # one untimed warm call per (system, time) builds the spectral tables
        for name, spec, phi, _ in self.ops:
            if (name, spec) not in self.times:
                self.times[(name, spec)] = time = self.time_of(spec)
                rs = self.systems[name]
                req = self.lk.KernelRequest(rs=rs, phi=self.lk.RadialPoint.real(phi), time=time)
                try:
                    self.lk.compact_spectral(req)
                except self.lk.SingularPointError:
                    # the table is built before the wall guard runs
                    pass

    def run(self, op):
        """Both routes at one point; the op's oracle is their agreement."""
        name, spec, phi, _ = op
        lk = self.lk
        req = lk.KernelRequest(rs=self.systems[name], phi=lk.RadialPoint.real(np.asarray(phi)),
                               time=self.times[(name, spec)])
        path = lk.compact_pathsum(req).value
        spec_value = lk.compact_spectral(req).value
        rel = _relative(path, spec_value)
        return Outcome(ok=rel <= DUAL_RTOL, residual=rel)

    def failure_tag(self, op):
        return op[1][0]

    def describe(self, op):
        return f"{op[0]} {op[1]} near={op[3]}"


class RealtimeDomains(Workload):
    """Build, classify and evolve elements of every domain of the real forms."""

    name = "realtime_domains"
    cap_s = 5.0
    ELEMENTS_PER_DOMAIN = 4
    EPSILONS = (0.0, 0.05)  # Abel window and a small damping, both at t = 1

    def inputs(self, families):
        """Raw radial values per (group, domain); canonicalized in setup."""
        raw = []
        for name in REAL_FORMS:
            fam, domains = families[name]
            for dom in domains:
                for _ in range(self.ELEMENTS_PER_DOMAIN):
                    raw.append((name, dom.label, tuple(self.rng.uniform(0.12, 1.55, fam.rank))))
        return raw

    def setup(self):
        import liekernel as lk
        from liekernel.domains import canonical_radial, root_system_of

        self.lk = lk
        families = {}
        for name in REAL_FORMS:
            fam = lk.parse_group(name)
            families[name] = (fam, lk.enumerate_domains(fam))
        self.families = families
        self.root_systems = {name: root_system_of(fam) for name, (fam, _) in families.items()}
        for rs in self.root_systems.values():
            lk.generate_weyl_group(rs)
        self.times = [lk.TimeParameter.real(1.0, epsilon=eps) for eps in self.EPSILONS]
        ops = []
        for name, label, values in self.inputs(families):
            fam, domains = families[name]
            dom = next(d for d in domains if d.label == label)
            canon = canonical_radial(fam, lk.RadialPoint(values, dom.signature))
            for k in range(len(self.times)):
                ops.append((name, label, canon, k))
        self.ops = ops

    def run(self, op):
        lk = self.lk
        name, label, canon, k = op
        fam, _ = self.families[name]
        g = lk.build_element(fam, canon)
        dom, point = lk.classify_element(fam, g)
        if dom.label != label:
            return Outcome(ok=False, detail=f"classified as {dom.label}")
        want = np.asarray(canon.values)
        roundtrip = float(np.abs(np.asarray(point.values) - want).max()) / max(1.0, float(np.abs(want).max()))
        req = lk.KernelRequest(rs=self.root_systems[name], phi=point, time=self.times[k], domain=dom)
        kv = lk.noncompact_pathsum(req)
        residual = roundtrip
        ok = roundtrip <= ROUNDTRIP_TOL and np.isfinite(kv.value) and kv.tag is not None
        if name == "SU(1,1)" and label == "D0":
            closed = _relative(kv.value, lk.su11_kernel_d0(point.values[0], self.times[k]))
            residual = max(residual, closed)
            ok = ok and closed <= DUAL_RTOL
        return Outcome(ok=bool(ok), residual=residual)

    def describe(self, op):
        return f"{op[0]} {op[1]} eps={self.EPSILONS[op[3]]}"


# Each seeded CLI command picks one of these stored variants; the reference
# output of every variant is captured once into refs/ by capture_refs.py.
SU3_BASES = (0.35, 0.5, 0.65, 0.8)
NONCOMPACT_GRIDS = (
    ("SU11", "D0", "0.2:3.0:60", None),
    ("SU21", "D1", "0.2:1.5:60", "0.3,0.7"),
    ("SO41", "D1", "0.2:1.5:60", "0.4,0.9"),
    ("SL3R", "D1", "0.2:1.5:60", "0.6,0.5"),
)
CLASSIFY_CASES = (
    ("SU21", "D1", (0.7, 0.4)),
    ("SO33", "D0", (0.5, 0.9, 0.3)),
    ("USp42", "D2", (0.6, 0.8, 0.45)),
    ("Sp6R", "D3", (0.4, 0.75, 1.1)),
)


def cli_commands(variants):
    """The five commands of one pass, as (name, argv, reference file)."""
    su3, noncompact, classify = variants
    base = SU3_BASES[su3]
    group, label, grid, point = NONCOMPACT_GRIDS[noncompact]
    argv_nc = ["kernel", group, "--domain", label, "--t", "1.0", "--grid", grid]
    if point:
        argv_nc += ["--point", point]
    cgroup = CLASSIFY_CASES[classify][0]
    return [
        ("kernel_su3", ["kernel", "SU3", "--heat", "0.5", "--route", "both",
                        "--grid", "0.2:2.2:400", "--point", f"0,{base}"], f"kernel_su3_{su3}.json.gz"),
        ("kernel_noncompact", argv_nc, f"kernel_noncompact_{noncompact}.json.gz"),
        ("table", ["table", "Sp6R"], "table_sp6r.json.gz"),
        ("classify", ["domains", "classify", cgroup, os.path.join(REFS, f"classify_{classify}.matrix.json")],
         f"classify_{classify}.json.gz"),
        ("roots", ["roots", "A2"], "roots_a2.json.gz"),
    ]


def load_reference(filename):
    with gzip.open(os.path.join(REFS, filename), "rt", encoding="utf-8") as fh:
        return json.load(fh)


class CliOneshot(Workload):
    """One fresh ``python -m liekernel`` process per op, one at a time."""

    name = "cli_oneshot"
    cap_s = 60.0

    def inputs(self):
        return tuple(int(self.rng.integers(len(pool)))
                     for pool in (SU3_BASES, NONCOMPACT_GRIDS, CLASSIFY_CASES))

    def setup(self):
        import liekernel  # noqa: F401  (set-up is the import alone)

        self.prefix = ["-m", "liekernel"]  # the traced run puts its shim here
        commands = cli_commands(self.inputs())
        self.references = {name: load_reference(ref) for name, _, ref in commands}
        self.ops = [(name, argv) for name, argv, _ in commands]
        self.last_bytes_out = 0

    def run(self, op):
        name, argv = op
        self.last_bytes_out = 0
        proc = subprocess.Popen([sys.executable] + self.prefix + argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate()
        finally:
            if proc.poll() is None:  # the op cap interrupted communicate(): stop the child
                proc.kill()
                proc.communicate()
        self.last_bytes_out = len(out)
        if proc.returncode != 0:
            return Outcome(ok=False, exit_code=proc.returncode, detail=err.decode(errors="replace")[-300:])
        try:
            doc = json.loads(out)
        except ValueError as exc:
            return Outcome(ok=False, exit_code=0, detail=f"stdout is not JSON: {exc}")
        ok, worst, reason = compare_by_value(doc, self.references[name], CLI_RTOL)
        return Outcome(ok=ok, residual=max(worst, CLI_FLOOR), exit_code=0, detail=reason or "")

    def describe(self, op):
        return " ".join(op[1])


WORKLOADS = {cls.name: (k, cls) for k, cls in
             enumerate((CompactGrid, RealtimeDomains, CliOneshot))}


def make(name: str, seed: int) -> Workload:
    index, cls = WORKLOADS[name]
    return cls(seed, index)
