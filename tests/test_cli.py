import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from liekernel import cli

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
    code, out, _ = run(capsys, "kernel", "SU2", "--heat", "0.5", "--grid", "0.0:2.0:5")
    data = json.loads(out)
    assert code == 0
    first = data["records"][0]
    assert first["phi"] == [0.0]
    assert first.get("pathsum_skipped") == "wall point"
    assert "pathsum_re" in data["records"][1]


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


def test_kernel_spectral_route_rejected_off_compact(capsys):
    code, _, err = run(
        capsys, "kernel", "SU11", "--domain", "D0", "--t", "1.0", "--grid", "0.2:1:3",
        "--route", "spectral",
    )
    assert code == 2
    assert "spectral" in err


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


def test_domains_classify_requires_matrix(capsys):
    code, _, err = run(capsys, "domains", "classify", "SU11")
    assert code == 2


def test_check_list_and_filter(capsys):
    code, out, _ = run(capsys, "check", "--list")
    assert code == 0
    assert "dual-series-su2" in out
    code, out, _ = run(capsys, "check", "--only", "weyl-orders")
    data = json.loads(out)
    assert code == 0 and data["passed"]


def test_check_whole_suite_passes(capsys):
    code, out, _ = run(capsys, "check")
    data = json.loads(out)
    assert code == 0 and data["passed"]
    assert [r["name"] for r in data["checks"]] == list(cli.checks_mod.CHECKS)
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
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "sympy"))

loaded = {"import liekernel.cli": heavy()}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded[" ".join(argv)] = heavy() if code == 0 else f"exit code {code}"
print(json.dumps(loaded))
"""


def test_cli_loads_no_scipy_or_sympy():
    """scipy is imported only where it is used, and sympy not at all."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(LEAN_COMMANDS)],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    loaded = json.loads(proc.stdout)
    assert loaded == {name: [] for name in loaded} and len(loaded) == len(LEAN_COMMANDS) + 1
