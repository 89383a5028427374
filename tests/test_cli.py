import json
import os
import pathlib
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from liekernel import build_root_system, casimir_eigenvalue, checks, cli, dimension, group_volume

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roots_a2(capsys):
    code, out, _ = run(capsys, "roots", "A2")
    assert code == 0
    data = json.loads(out)
    assert data["simple_roots"][0] == [1.0, 0.0]
    assert data["cartan_matrix"] == [[2, -1], [-1, 2]]


def test_roots_takes_a_group_name_and_a_rescale(capsys):
    _, by_system, _ = run(capsys, "roots", "A2")
    code, by_group, _ = run(capsys, "roots", "SU(2,1)")
    assert code == 0 and by_group == by_system
    code, out, _ = run(capsys, "roots", "A2", "--rescale", "2")
    data, base = json.loads(out), json.loads(by_system)
    assert code == 0
    assert data["lambda"] == 4.0 * base["lambda"]
    assert data["simple_roots"] == [[2.0 * x for x in row] for row in base["simple_roots"]]


def test_volume_a1(capsys):
    code, out, _ = run(capsys, "volume", "A1")
    data = json.loads(out)
    assert code == 0
    assert abs(data["coset"] - 8.0 * np.pi) < 1e-10


def test_weyl_b2(capsys):
    code, out, _ = run(capsys, "weyl", "B2")
    data = json.loads(out)
    assert code == 0
    assert data["order"] == 8
    assert sorted(set(data["parities"])) == [-1, 1]


def test_kernel_dual_route(capsys):
    code, out, _ = run(capsys, "kernel", "SU2", "--heat", "0.5", "--route", "both", "--grid", "0.3:2.0:9")
    data = json.loads(out)
    assert code == 0
    assert len(data["records"]) == 9
    assert max(r["discrepancy"] for r in data["records"]) < 1e-8


def test_kernel_su11_d0_closed_form_column(capsys):
    code, out, _ = run(
        capsys, "kernel", "SU11", "--domain", "D0", "--t", "1.0", "--theta-grid", "0.1:3.0:30"
    )
    data = json.loads(out)
    assert code == 0
    assert len(data["records"]) == 30
    for rec in data["records"]:
        engine = complex(rec["pathsum_re"], rec["pathsum_im"])
        closed = complex(rec["closed_re"], rec["closed_im"])
        assert abs(engine - closed) < 1e-10
        assert rec["pathsum_tag"] == "OSCILLATORY"


def test_kernel_wall_points_skipped_not_fatal(capsys):
    # the identity is a wall with a limit: it gets a value
    code, out, _ = run(capsys, "kernel", "SU2", "--heat", "0.5", "--grid", "0.0:2.0:5")
    assert code == 0
    assert all("pathsum_re" in rec for rec in json.loads(out)["records"])
    # theta_1 = theta_2 is a wall orthogonal to the real axis: no limit, skipped
    code, out, _ = run(capsys, "kernel", "Sp6R", "--domain", "D1", "--t", "1", "--eps", "0.05",
                       "--point", "0.7,0.7,0.0")
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["pathsum_skipped"] == "wall point" and "pathsum_re" not in rec


def test_kernel_su2_grid_through_both_walls(capsys):
    tau = 0.5
    code, out, _ = run(capsys, "kernel", "SU2", "--heat", str(tau), "--route", "both",
                       "--grid", f"0:{2 * np.pi!r}:3")
    assert code == 0
    at_zero, middle, at_two_pi = json.loads(out)["records"]
    rs = build_root_system("A", 1)
    # K(0) = V_G^-1 sum_l d_l^2 exp(-lambda_l tau)
    want = sum(dimension(rs, [l]) ** 2 * np.exp(-casimir_eigenvalue(rs, [l]) * tau) for l in range(200))
    want /= group_volume(rs)
    for route in ("pathsum", "spectral"):
        assert abs(complex(at_zero[f"{route}_re"], at_zero[f"{route}_im"]) - want) <= 1e-12 * want
    # the printed closed series is 0/0 on the walls
    assert not any(k.startswith("closed") for k in (*at_zero, *at_two_pi))
    assert "closed_re" in middle and "pathsum_re" in at_two_pi


@pytest.mark.parametrize("flags,message", [
    (["--grid", "0.1:1:3", "--axis", "5"], "--axis"),
    (["--grid", "0.1:1:3", "--axis", "-1"], "--axis"),
    (["--point", "0.3,abc"], "--point"),
    (["--point", "nan,0.3"], "finite"),
    (["--point", "0.3,0.5", "--level-cutoff", "-1"], "level_cutoff"),
    (["--grid", "0.1:1:3", "--theta-grid", "0.1:1:3"], "--theta-grid"),
    (["--t", "1", "--point", "0.3,0.5"], "one of --heat and --t"),
    (["--point", "0.3"], "--point needs 2"),
    ([], "provide --grid"),
    (["--grid", "0.1:1"], "bad grid spec"),
    (["--grid", "a:b:3"], "bad grid spec"),
])
def test_kernel_bad_point_axis_or_cutoff_is_usage_error(capsys, flags, message):
    code, out, err = run(capsys, "kernel", "SU3", "--heat", "0.5", *flags)
    assert code == 2
    assert out == "" and message in err and "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["--domain", "D9"], "no domain D9"),
    ([], "--domain"),  # a non-compact group needs a domain
])
def test_kernel_domain_refusals_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, "kernel", "SU21", *argv, "--heat", "0.5", "--point", "0.3,0.5")
    assert code == 2
    assert out == "" and message in err and "Traceback" not in err


@pytest.mark.parametrize("level_cutoff", ["60", "1000000"])
def test_kernel_level_cube_over_the_cap_is_refused(capsys, level_cutoff):
    code, out, err = run(capsys, "kernel", "SU5", "--heat", "1.0", "--route", "spectral",
                         "--point", "0.1,0.2,0.3,0.4", "--level-cutoff", level_cutoff)
    assert code == 2
    assert out == "" and err.startswith("error:") and "Traceback" not in err


def test_weyl_group_over_the_closure_cap_is_refused(capsys):
    # A8 and B7 are the first A and B systems past the cap; refused before any product
    for system in ("A8", "B7", "A9"):
        start = time.perf_counter()
        code, out, err = run(capsys, "weyl", system)
        assert time.perf_counter() - start < 1.0, system
        assert code == 2
        assert out == "" and err.startswith("error:") and "Traceback" not in err


def test_kernel_empty_grid_is_usage_error(capsys):
    code, _, err = run(capsys, "kernel", "SU2", "--heat", "0.5", "--grid", "0.3:2.0:0")
    assert code == 2
    assert "grid" in err


@pytest.mark.parametrize("route", ["pathsum", "spectral", "both"])
@pytest.mark.parametrize("tol", ["5", "1", "0", "-1e-3"])
def test_kernel_tol_outside_unit_interval_is_usage_error(capsys, route, tol):
    code, out, err = run(capsys, "kernel", "SU3", "--heat", "0.5", "--route", route, f"--tol={tol}",
                         "--point", "0.3,0.5")
    assert code == 2
    assert out == "" and "tol" in err and "Traceback" not in err


def test_kernel_requires_time(capsys):
    code, _, err = run(capsys, "kernel", "SU2", "--grid", "0.3:2.0:4")
    assert code == 2


@pytest.mark.parametrize(
    "flags", [["--t", "nan"], ["--t", "inf"], ["--t", "1", "--eps", "nan"], ["--t", "1", "--eps", "inf"],
              ["--heat", "inf"]],
)
def test_kernel_non_finite_time_is_usage_error(capsys, flags):
    code, _, err = run(capsys, "kernel", "SU3", *flags, "--point", "0.3,0.5")
    assert code == 2
    assert "finite" in err


def test_kernel_eps_in_heat_mode_is_usage_error(capsys):
    for eps in ("0.3", "0", "-1", "inf"):
        code, out, err = run(capsys, "kernel", "SU3", "--heat", "0.5", "--eps", eps, "--point", "0.3,0.5")
        assert code == 2
        assert out == "" and "--eps" in err and "Traceback" not in err
    code, out, _ = run(capsys, "kernel", "SU3", "--t", "1.0", "--point", "0.3,0.5")
    assert code == 0 and json.loads(out)["epsilon"] == 0.0


@pytest.mark.parametrize("route", ["spectral", "both"])
@pytest.mark.parametrize("eps", [[], ["--eps", "0"]])
def test_kernel_spectral_route_in_undamped_real_time_is_usage_error(capsys, route, eps):
    code, out, err = run(capsys, "kernel", "SU3", "--t", "1", *eps, "--route", route, "--point", "0.3,0.5")
    assert code == 2
    assert out == "" and "--eps" in err and "Traceback" not in err


def test_kernel_all_real_domain_is_the_compact_group(capsys):
    argv = ["--heat", "0.5", "--route", "both", "--grid", "0.2:2.2:7", "--point", "0,0.5"]
    _, compact, _ = run(capsys, "kernel", "SU3", *argv)
    code, domain, _ = run(capsys, "kernel", "SU21", "--domain", "D2", *argv)
    assert code == 0
    assert json.loads(domain)["records"] == json.loads(compact)["records"]


def test_kernel_spectral_route_rejected_off_compact(capsys):
    code, _, err = run(
        capsys, "kernel", "SU11", "--domain", "D0", "--t", "1.0", "--grid", "0.2:1:3",
        "--route", "spectral",
    )
    assert code == 2
    assert "spectral" in err


def test_kernel_grid_over_the_cap_is_refused_before_any_point(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "kernel", "SU2", "--heat", "0.5", "--grid", "0:1:1000000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == "" and err.startswith("error:") and "cap" in err and "Traceback" not in err


TWO_ROUTE_PAYLOAD = """{
  "group": "SU(2)",
  "domain": "compact",
  "time_mode": "heat",
  "time_value": 0.5,
  "epsilon": 0.0,
  "records": [
    {
      "phi": [0.0],
      "signature": "R",
      "pathsum_re": 0.067588623628547409,
      "pathsum_im": 0.0,
      "pathsum_tag": "CONVERGENT",
      "spectral_re": 0.067588623628547381,
      "spectral_im": 0.0,
      "spectral_tag": "CONVERGENT",
      "discrepancy": 2.7755575615628914e-17
    },
    {
      "phi": [3.1415926535897931],
      "signature": "R",
      "pathsum_re": 5.4913452533802737e-06,
      "pathsum_im": 0.0,
      "pathsum_tag": "CONVERGENT",
      "spectral_re": 5.4913452533801839e-06,
      "spectral_im": 0.0,
      "spectral_tag": "CONVERGENT",
      "discrepancy": 8.9785492408955836e-20,
      "closed_re": 5.4913452533802737e-06,
      "closed_im": 0.0
    },
    {
      "phi": [6.2831853071795862],
      "signature": "R",
      "pathsum_re": 7.5422144779297152e-17,
      "pathsum_im": 0.0,
      "pathsum_tag": "CONVERGENT",
      "spectral_re": 7.7916566625621772e-17,
      "spectral_im": 0.0,
      "spectral_tag": "CONVERGENT",
      "discrepancy": 2.4944218463246198e-18
    }
  ]
}
"""


def test_kernel_payload_bytes(capsys):
    """The exact bytes of a two-route payload through both SU(2) walls: keys
    in order, floats at 17 significant digits and integral ones with one
    decimal, flat lists on one line, closed-form columns only off the
    walls."""
    code, out, _ = run(capsys, "kernel", "SU2", "--heat", "0.5", "--route", "both",
                       "--grid", f"0:{2 * np.pi!r}:3")
    assert code == 0 and out == TWO_ROUTE_PAYLOAD


def test_render_json_of_numpy_scalars_and_nested_values():
    obj = {"a": [np.float64(1.5), 2, True, "x"], "b": [np.int64(3), None], "c": {}, "d": [], "e": -0.0,
           "f": [[1.0, 2.0], {"g": False}]}
    assert cli.render_json(obj) == (
        '{\n  "a": [1.5, 2, true, "x"],\n  "b": [\n    3,\n    null\n  ],\n  "c": {},\n  "d": [],\n'
        '  "e": 0.0,\n  "f": [\n    [1.0, 2.0],\n    {\n      "g": false\n    }\n  ]\n}'
    )


def test_determinism_byte_identical(capsys):
    args = ["kernel", "SU3", "--heat", "0.5", "--route", "both", "--point", "0.8,0.5"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_table_unknown_group(capsys):
    code, _, err = run(capsys, "table", "XX9")
    assert code == 2


def test_domains_enumerate(capsys):
    code, out, _ = run(capsys, "domains", "enumerate", "SU(2,1)")
    data = json.loads(out)
    assert code == 0
    assert data["count"] == 2
    assert [d["label"] for d in data["domains"]] == ["D2", "D1"]


def test_domains_classify_matrix_file(capsys, tmp_path):
    theta = 0.8
    c, s = np.cosh(theta / 2), np.sinh(theta / 2)
    g = np.array([[c, s], [s, c]], dtype=complex)
    pairs = [[float(z.real), float(z.imag)] for z in g.ravel()]
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(pairs))
    code, out, _ = run(capsys, "domains", "classify", "SU11", str(path))
    data = json.loads(out)
    assert code == 0
    assert data["domain"] == "D0"
    assert abs(data["radial"][0] - theta) < 1e-9
    assert data["residual"] < 1e-9


def test_domains_classify_reads_every_matrix_layout(capsys, tmp_path):
    c, s = np.cosh(0.4), np.sinh(0.4)
    g = np.array([[c, s], [s, c]])
    layouts = [g.tolist(), np.stack([g, 0.0 * g], axis=-1).tolist(), [[x, 0.0] for x in g.ravel()]]
    outs = []
    for layout in layouts:
        path = tmp_path / "mat.json"
        path.write_text(json.dumps(layout))
        code, out, _ = run(capsys, "domains", "classify", "SU11", str(path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2] and json.loads(outs[0])["domain"] == "D0"


@pytest.mark.parametrize("text,message", [
    ("[[1, 2], [3, 4], [5, 6]]", "square"),  # three [re, im] pairs
    ("[[1, 2, 3], [4, 5, 6]]", "(2, 2, 2)"),
    ("[[[1, 2], [3, 4]]]", "(4, 2)"),
    ("[[1, 2], [3]]", "numeric"),
    ('[["a", "b"], ["c", "d"]]', "numeric"),
    ("[[1, 2], [3, 4]", "JSON"),
])
def test_domains_classify_malformed_matrix_is_usage_error(capsys, tmp_path, text, message):
    path = tmp_path / "mat.json"
    path.write_text(text)
    code, out, err = run(capsys, "domains", "classify", "SU11", str(path))
    assert code == 2
    assert out == "" and message in err


def test_domains_classify_singular_matrix_matches_no_domain(capsys, tmp_path):
    """An eigenvalue 0 is no exponential's; the defining relation's tolerance,
    which grows with the entries, lets this singular matrix through to it."""
    path = tmp_path / "mat.json"
    path.write_text("[[1e4, 0], [0, 0]]")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "domains", "classify", "SL2R", str(path))
    assert code == 1
    assert out == "" and "match no evolution domain" in err


def test_domains_classify_overflowing_matrix_is_usage_error(capsys, tmp_path):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps((1e200 * np.eye(3)).tolist()))
    code, out, err = run(capsys, "domains", "classify", "SU21", str(path))
    assert code == 2
    assert out == "" and "entries must be finite and of size below" in err


def test_domains_classify_requires_matrix(capsys):
    code, _, err = run(capsys, "domains", "classify", "SU11")
    assert code == 2


def test_check_list_and_filter(capsys):
    code, out, _ = run(capsys, "check", "--list")
    assert code == 0
    assert "dual-series-su2" in out
    code, out, err = run(capsys, "check", "--only", "weyl-orders")
    data = json.loads(out)
    assert code == 0 and data["passed"]
    # each check's seconds go to stderr, and stdout stays deterministic
    seconds = [(float(line.split()[0]), line.split()[-1]) for line in err.splitlines()]
    assert [name for _, name in seconds] == [r["name"] for r in data["checks"]] == ["weyl-orders"]
    assert all(s >= 0.0 for s, _ in seconds) and "seconds" not in data["checks"][0]
    assert run(capsys, "check", "--only", "weyl-orders")[1] == out
    assert isinstance(checks.run_checks(only="weyl-orders")[0]["seconds"], float)


def test_check_whole_suite_passes(capsys):
    code, out, _ = run(capsys, "check")
    data = json.loads(out)
    assert code == 0 and data["passed"]
    assert [r["name"] for r in data["checks"]] == list(checks.CHECKS)
    failed = [r["name"] for r in data["checks"] if not r["passed"]]
    assert not failed


def test_csv_output(capsys):
    code, out, _ = run(capsys, "kernel", "SU2", "--heat", "0.5", "--grid", "0.4:1.6:4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("phi,signature,pathsum_re")


def test_config_file_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"heat": 0.5, "grid": "0.3:2.0:4"}))
    code, out, _ = run(capsys, "--config", str(cfg), "kernel", "SU2")
    data = json.loads(out)
    assert code == 0 and len(data["records"]) == 4
    # explicit flags win over config values
    code, out, _ = run(capsys, "--config", str(cfg), "kernel", "SU2", "--grid", "0.3:2.0:7")
    assert len(json.loads(out)["records"]) == 7
    # values go through the option's type and choices; flags still win
    cfg.write_text(json.dumps({"heat": "0.5", "grid": "0.3:2.0:4", "route": "both", "axis": 0,
                               "format": "csv"}))
    code, out, _ = run(capsys, "--config", str(cfg), "kernel", "SU2", "--format", "json")
    data = json.loads(out)
    assert code == 0 and len(data["records"]) == 4 and "spectral_re" in data["records"][0]
    assert data["time_value"] == 0.5
    cfg.write_text(json.dumps({"matrices": True}))
    code, out, _ = run(capsys, "--config", str(cfg), "weyl", "A1")
    assert code == 0 and "matrices" in json.loads(out)


@pytest.mark.parametrize(
    "content,command",
    [
        (None, ("kernel", "SU2")),  # missing file
        ("{not json", ("kernel", "SU2")),
        ("[0.5, 2]", ("kernel", "SU2")),
        ('{"heat": 0.5, "workers": 4}', ("kernel", "SU2")),
        ('{"heat": 0.5}', ("roots", "A2")),  # an option of another command
        ('{"format": "xml"}', ("roots", "A2")),  # not one of the choices
        ('{"heat": 0.5, "route": "foo"}', ("kernel", "SU2")),
        ('{"heat": [1]}', ("kernel", "SU2")),  # not convertible by the option's type
        ('{"heat": "soon"}', ("kernel", "SU2")),
        ('{"heat": 0.5, "axis": 1.5}', ("kernel", "SU2")),
        ('{"matrices": "yes"}', ("weyl", "A2")),  # a switch takes true or false
    ],
)
def test_config_file_errors(capsys, tmp_path, content, command):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    code, out, err = run(capsys, "--config", str(cfg), *command)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(cfg) in err
    if content and content.startswith("{") and content != "{not json":
        assert list(json.loads(content))[-1] in err  # the bad key is named


def test_output_file(capsys, tmp_path):
    target = tmp_path / "roots.json"
    code, out, _ = run(capsys, "roots", "A1", "-o", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 3


GOLDEN_NAMES = {
    "SU21": "su21.json", "SL3R": "sl3r.json", "SO41": "so41.json", "SO32": "so32.json",
    "SU31": "su31.json", "SU22": "su22.json", "SO33": "so33.json", "SO51": "so51.json",
    "USP42": "usp42.json", "SP6R": "sp6r.json",
}


@pytest.mark.parametrize("group,fname", sorted(GOLDEN_NAMES.items()))
def test_table_matches_golden_bytes(group, fname, capsys):
    code, out, _ = run(capsys, "table", group)
    assert code == 0
    golden = (GOLDEN_DIR / fname).read_text(encoding="utf-8")
    assert out == golden


LEAN_COMMANDS = [
    ["roots", "A2"],
    ["kernel", "SU3", "--heat", "0.5", "--route", "both", "--grid", "0.2:2.2:20", "--point", "0,0.5"],
    ["kernel", "SU21", "--domain", "D1", "--t", "1.0", "--grid", "0.2:1.5:10", "--point", "0.3,0.7"],
    ["table", "Sp6R"],
]

IMPORT_PROBE = """
import contextlib, io, json, sys
from liekernel.cli import main

def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "sympy") or m == "liekernel.checks")

loaded = {"import liekernel.cli": heavy()}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded[" ".join(argv)] = heavy() if code == 0 else f"exit code {code}"
print(json.dumps(loaded))
"""


def test_cli_loads_no_scipy_or_sympy():
    """scipy is imported only where it is used, sympy not at all, and the
    invariant suite only by ``check``."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(LEAN_COMMANDS)],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    loaded = json.loads(proc.stdout)
    assert loaded == {name: [] for name in loaded} and len(loaded) == len(LEAN_COMMANDS) + 1


def test_domains_classify_leaves_scipy_optimize_unloaded(tmp_path):
    """Classification pairs eigenvalues and picks its phase rows itself: it loads no scipy module."""
    from liekernel import RadialPoint, build_element, enumerate_domains, parse_group

    fam = parse_group("Sp6R")
    dom = enumerate_domains(fam)[0]
    g = build_element(fam, RadialPoint((0.4, 0.75, 1.1), dom.signature))
    path = tmp_path / "sp6r.json"
    path.write_text(json.dumps(g.real.tolist()))
    argv = ["domains", "classify", "Sp6R", str(path)]
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps([argv])],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    loaded = json.loads(proc.stdout)[" ".join(argv)]
    assert "scipy.optimize" not in loaded and loaded == []
