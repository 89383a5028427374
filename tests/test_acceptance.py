"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one ``[criterion N] PASS/FAIL`` line (run pytest with -s to
watch them).  Tolerances are fixed here, not tuned at runtime.
"""

import pathlib
import time

import numpy as np

import liekernel as lk
from liekernel import (
    KernelRequest,
    RadialPoint,
    TimeParameter,
    build_root_system,
    checks,
    compact_pathsum,
    compact_spectral,
    noncompact_pathsum,
)
from liekernel.cli import main as cli_main
from liekernel.domains import (
    build_element,
    canonical_radial,
    classify_element,
    enumerate_domains,
    parse_group,
    root_system_of,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)

CATALOGUE_GROUPS = [
    "SU(2,1)", "SL(3,R)", "SO(4,1)", "SO(3,2)", "SU(3,1)",
    "SU(2,2)", "SO(3,3)", "SO(5,1)", "USp(4,2)", "Sp(6,R)",
]


def _report(number, passed, detail):
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_01_dual_series_equivalence():
    """Both kernel series agree to 1e-8 relative on interior alcove grids.

    The 20 interior points per group sit where the spectral sum is well
    conditioned (the kernel above its cancellation floor; for small tau that
    means radial distances up to ~2).
    """
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = max(
        checks.dual_series(A1, [[phi] for phi in np.linspace(0.3, 2.0, 20)], (0.1, 0.5, 1.0)),
        checks.dual_series(A2, [rng.uniform(0.25, 1.15, 2) for _ in range(20)], (0.1, 0.5, 1.0)),
    )
    elapsed = time.time() - t0
    _report(1, worst < 1e-8 and elapsed < 5.0,
            f"max relative discrepancy {worst:.2e}, runtime {elapsed:.2f}s (< 5s)")


def test_criterion_02_su2_printed_formulas():
    worst = 0.0
    phi = 1.3
    for tp in (TimeParameter.heat(0.7), TimeParameter.real(0.9, epsilon=0.03)):
        for level in (0, 3, 9):
            req = KernelRequest(rs=A1, phi=RadialPoint.real([phi]), time=tp, level_cutoff=level)
            engine = compact_spectral(req).value
            printed = lk.su2_spectral_series(phi, tp, nmax=level + 1)
            worst = max(worst, abs(engine - printed))
    # path sum, term-by-term over the same winding set
    tp = TimeParameter.heat(0.6)
    req = KernelRequest(rs=A1, phi=RadialPoint.real([phi]), time=tp, tol=1e-14)
    engine = compact_pathsum(req).value
    lat = lk.winding_lattice(A1)
    pts = lk.enumerate_points(lat, RadialPoint.real([phi]), 0.6, 1e-14, lam=A1.lam)
    t = tp.effective
    printed = np.exp(-1.5 * np.log(4j * np.pi * t)) * sum(
        (phi + 2 * np.pi * m[0]) / (2 * np.sin(phi / 2)) *
        np.exp(1j * (phi + 2 * np.pi * m[0]) ** 2 / (2 * t) + 1j * t / 8)
        for m in pts
    )
    worst = max(worst, abs(engine - printed))
    _report(2, worst < 1e-10, f"printed-series match {worst:.2e} (< 1e-10)")


def test_criterion_03_su11_closed_forms():
    worst_d1 = checks.d1_identity((0.4, 1.7, 3.9), (TimeParameter.heat(0.5), TimeParameter.real(0.8)))
    worst_d0 = checks.d0_closed_form(np.linspace(0.1, 3.0, 15), [TimeParameter.real(t) for t in (0.5, 1.0)])
    _report(3, worst_d1 < 1e-12 and worst_d0 < 1e-10,
            f"D1 identity {worst_d1:.2e} (< 1e-12), D0 closed form {worst_d0:.2e} (< 1e-10)")


def test_criterion_04_su2_resolvent():
    worst_pole = checks.resolvent_poles(4.5, range(1, 7))
    phi = 1.1
    worst_res = 0.0
    for n in range(1, 7):
        lam_n = (n * n - 1) / 8.0
        zs = lam_n + 0.003 * np.exp(2j * np.pi * np.arange(512) / 512)
        vals = np.array([lk.su2_resolvent(phi, z) for z in zs])
        residue = (vals * (zs - lam_n)).mean()
        c_n = n * np.sin(n * phi / 2) / np.sin(phi / 2) / (32 * np.sqrt(2) * np.pi**2)
        worst_res = max(worst_res, abs(residue + c_n) / abs(c_n))
    _report(4, worst_pole < 1e-9 and worst_res < 1e-6,
            f"pole residual {worst_pole:.2e} (< 1e-9), residue match {worst_res:.2e} (< 1e-6)")


def test_criterion_05_normalization_and_semigroup():
    t0 = time.time()
    norm = checks.heat_normalization(0.5)

    n = 200
    grid = np.linspace(0.0, 2.0 * np.pi, n)

    def samples(tau):
        reqs = (KernelRequest(rs=A1, phi=RadialPoint.real([x]), time=TimeParameter.heat(tau), wall_limit=True)
                for x in grid)
        return np.array([compact_pathsum(req).value for req in reqs], dtype=complex)

    out = lk.radial_convolve(A1, samples(0.3), samples(0.5))
    semi = np.abs(out - samples(0.8)).max()
    elapsed = time.time() - t0
    _report(5, norm < 1e-6 and semi < 1e-4 and elapsed < 10.0,
            f"normalization {norm:.2e} (< 1e-6), semigroup {semi:.2e} (< 1e-4), "
            f"runtime {elapsed:.2f}s (< 10s)")


def test_criterion_06_constant_identity():
    worst = checks.rho_identity(checks.SYSTEMS)
    _report(6, worst < 1e-12, f"rho^2/lambda - n/24 residual {worst:.2e} (< 1e-12)")


def test_criterion_07_weyl_machinery():
    orders_ok = checks.weyl_orders(checks.WEYL_ORDERS) == 0
    dims_ok = checks.character_dimensions(A2, [([0, 0], 1), ([1, 0], 3), ([1, 1], 8), ([3, 0], 10)]) < 1e-5
    worst_iw = checks.intertwiner_order(checks.WEYL_ORDERS[:3])
    _report(7, orders_ok and dims_ok and worst_iw < 1e-9,
            f"orders {orders_ok}, dimensions {dims_ok}, intertwiner identity {worst_iw:.2e} (< 1e-9)")


def test_criterion_08_golden_tables(capsys):
    names = {
        "SU21": "su21.json", "SL3R": "sl3r.json", "SO41": "so41.json", "SO32": "so32.json",
        "SU31": "su31.json", "SU22": "su22.json", "SO33": "so33.json", "SO51": "so51.json",
        "USP42": "usp42.json", "SP6R": "sp6r.json",
    }
    bad = []
    for group, fname in names.items():
        code = cli_main(["table", group])
        out = capsys.readouterr().out
        golden = (GOLDEN_DIR / fname).read_text(encoding="utf-8")
        if code != 0 or out != golden:
            bad.append(group)
    with capsys.disabled():
        _report(8, not bad, f"byte-identical tables for all 10 groups"
                + (f"; mismatches: {bad}" if bad else ""))


def test_criterion_09_volumes():
    worst_coset = abs(lk.coset_volume(A1) - 8.0 * np.pi)
    worst = max(checks.volume_factorization(checks.SYSTEMS), checks.volume_rescale(checks.SYSTEMS, (1.9,)))
    _report(9, worst_coset < 1e-10 and worst < 1e-10,
            f"coset volume residual {worst_coset:.2e}, factorization/rescale {worst:.2e} (< 1e-10)")


def test_criterion_10_classifier_roundtrip():
    rng = np.random.default_rng(2718)
    worst = 0.0
    count = 0
    for name in CATALOGUE_GROUPS:
        fam = parse_group(name)
        for dom in enumerate_domains(fam):
            for _ in range(100):
                vals = rng.uniform(0.12, 1.55, fam.rank)
                canon = canonical_radial(fam, RadialPoint(tuple(vals), dom.signature))
                g = build_element(fam, canon)
                dom2, pt2 = classify_element(fam, g)
                assert dom2.label == dom.label, (name, dom.label, dom2.label)
                worst = max(worst, float(np.abs(np.array(pt2.values) - np.array(canon.values)).max()))
                count += 1
    # threshold behavior at |Tr| = 2 +- 1e-3
    fam = parse_group("SU(1,1)")
    theta = 2.0 * np.arccosh(1.0 + 5e-4)
    c, s = np.cosh(theta / 2), np.sinh(theta / 2)
    above, _ = classify_element(fam, np.array([[c, s], [s, c]]))
    phi = 2.0 * np.arccos(1.0 - 5e-4)
    below, _ = classify_element(fam, np.diag([np.exp(1j * phi / 2), np.exp(-1j * phi / 2)]))
    threshold_ok = above.label == "D0" and below.label == "D1"
    _report(10, worst < 1e-8 and threshold_ok,
            f"{count} round trips, worst residual {worst:.2e} (< 1e-8), "
            f"trace threshold {'correct' if threshold_ok else 'wrong'}")


def test_criterion_11_kernel_symmetries():
    rng = np.random.default_rng(5150)
    cases = []
    for trial in range(500):
        rs, box = (A1, (0.3, 2.2)) if trial % 2 else (A2, (0.25, 1.1))
        phi = rng.uniform(*box, rs.rank)
        if rng.random() < 0.5:
            tp = TimeParameter.heat(float(rng.uniform(0.2, 1.2)))
        else:
            tp = TimeParameter.real(float(rng.uniform(0.4, 1.5)), epsilon=float(rng.uniform(0.02, 0.2)))
        sigma = int(rng.integers(0, lk.generate_weyl_group(rs).order))
        cases.append((rs, phi, tp, sigma, rng.integers(-1, 2, rs.rank) @ lk.winding_lattice(rs).generators))
    worst = checks.kernel_symmetry(cases)
    _report(11, worst < 1e-9, f"500 randomized symmetry draws, worst residual {worst:.2e} (< 1e-9)")


def test_noncompact_values_carry_convergence_tags():
    """Catalogue note: every emitted non-compact value carries a tag."""
    ok = True
    for name in ("SU(1,1)", "SU(2,1)", "Sp(6,R)"):
        fam = parse_group(name)
        rs = root_system_of(fam)
        for dom in enumerate_domains(fam):
            if dom.b == 0:
                continue
            vals = np.linspace(0.55, 0.95, fam.rank)  # distinct: off every wall
            pt = RadialPoint(tuple(vals), dom.signature)
            for tp in (TimeParameter.heat(0.5), TimeParameter.real(0.8), TimeParameter.real(0.8, 0.05)):
                kv = noncompact_pathsum(KernelRequest(rs=rs, phi=pt, time=tp, domain=dom))
                ok &= kv.tag in (
                    lk.ConvergenceTag.CONVERGENT, lk.ConvergenceTag.OSCILLATORY, lk.ConvergenceTag.GROWING
                )
    print(f"[tag contract] {'PASS' if ok else 'FAIL'}: every non-compact value tagged")
    assert ok
