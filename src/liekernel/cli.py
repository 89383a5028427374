"""Command-line front end: JSON/CSV reports over the library operations."""

from __future__ import annotations

import argparse
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import kernel as kmod
from .domains import (
    GroupFamily,
    classify_element,
    domain_count,
    enumerate_domains,
    parse_group,
    predicted_eigenvalues,
    root_system_of,
)
from .domains import _pairing_residual
from .errors import (
    ArgumentError,
    ConfigurationError,
    LieKernelError,
    NotInGroupError,
    ResourceError,
    SingularPointError,
)
from .lattice import IMAGINARY, RadialPoint, domain_sublattice, winding_lattice
from .rootsys import build_root_system, cartan_matrix, rescale
from .volumes import volume_report
from .weyl import generate_weyl_group, wall_denominator

__all__ = ["main", "render_json", "render_csv"]


# ---------------------------------------------------------------------------
# deterministic serialization: floats at 17 significant digits
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    x = float(x) + 0.0  # normalize -0.0
    if not math.isfinite(x):
        raise ArgumentError("non-finite value in output")
    if x.is_integer() and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


# the renderers of the scalar types, by exact type: the values of a dict or
# a list are formatted in its own pass, without a render_json call each
_SCALARS = {
    float: _fmt_float,
    int: str,
    bool: lambda b: "true" if b else "false",
    str: encode_basestring_ascii,  # json.dumps(s)
    type(None): lambda _: "null",
}


def render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": ' + (render(v) if (render := _SCALARS.get(type(v))) else render_json(v, indent + 1))
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [render(v) if (render := _SCALARS.get(type(v))) else render_json(v, indent + 1) for v in seq]
        if all(isinstance(v, (int, float, str, bool)) for v in seq):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(f"{pad}  {item}" for item in items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise ArgumentError(f"cannot serialize {type(obj)}")


def render_csv(records: list) -> str:
    if not records:
        return ""
    keys = list(records[0].keys())
    lines = [",".join(keys)]
    for rec in records:
        cells = []
        for k in keys:
            v = rec.get(k, "")
            if isinstance(v, (float, np.floating)):
                cells.append(_fmt_float(v))
            elif isinstance(v, (list, tuple)):
                cells.append(";".join(_fmt_float(x) if isinstance(x, float) else str(x) for x in v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _emit(args, payload, records_for_csv=None):
    if args.format == "csv":
        if records_for_csv is None:
            raise ArgumentError("csv output is only available for record-shaped results")
        text = render_csv(records_for_csv)
    else:
        text = render_json(payload) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# payload builders
# ---------------------------------------------------------------------------


def _parse_system(token: str):
    token = token.strip()
    if len(token) >= 2 and token[0].upper() in "ABCD" and token[1:].isdigit():
        return build_root_system(token[0].upper(), int(token[1:]))
    # fall back to a group name and use its root system
    return root_system_of(parse_group(token))


def _vectors(arr) -> list:
    return [[float(x) + 0.0 for x in row] for row in np.atleast_2d(arr)]


def cmd_roots(args) -> int:
    rs = _parse_system(args.system)
    if args.rescale is not None:
        rs = rescale(rs, args.rescale)
    payload = {
        "family": rs.family,
        "rank": rs.rank,
        "n": rs.n,
        "p": rs.p,
        "lambda": float(rs.lam),
        "rho": [float(x) for x in rs.rho],
        "rho2": float(rs.rho @ rs.rho),
        "simple_roots": _vectors(rs.simple_roots),
        "positive_roots": _vectors(rs.positive_roots),
        "highest_root": [float(x) for x in rs.highest_root],
        "highest_root_coeffs": [int(c) for c in rs.highest_root_coeffs],
        "fundamental_weights": _vectors(rs.weights),
        "cartan_matrix": [[int(v) for v in row] for row in cartan_matrix(rs)],
    }
    flat = {
        k: payload[k] for k in ("family", "rank", "n", "p", "lambda", "rho2")
    }
    flat["rho"] = payload["rho"]
    _emit(args, payload, [flat])
    return 0


def cmd_weyl(args) -> int:
    rs = _parse_system(args.system)
    group = generate_weyl_group(rs)
    payload = {
        "system": rs.name,
        "order": group.order,
        "parities": [int(e.parity) for e in group],
    }
    if args.matrices:
        payload["matrices"] = [_vectors(e.matrix) for e in group]
    _emit(args, payload, [{"system": rs.name, "order": group.order, "parities": payload["parities"]}])
    return 0


def cmd_volume(args) -> int:
    rs = _parse_system(args.system)
    rep = volume_report(rs)
    payload = {
        "system": rs.name,
        "group": rep.group,
        "torus": rep.torus,
        "coset": rep.coset,
        "factorization_residual": rep.factorization_residual,
    }
    _emit(args, payload, [payload])
    return 0


# most points a --grid may ask for: a two-route SU3 grid of this many points
# takes about 4 s and 270 MB, its records held until they are written
_GRID_CAP = 10**5


def _time_parameter(args) -> kmod.TimeParameter:
    if args.heat is not None and args.t is not None:
        raise ArgumentError("choose one of --heat and --t")
    if args.heat is not None:
        if args.eps is not None:
            raise ArgumentError("--eps damps real time (--t); heat mode takes none")
        return kmod.TimeParameter.heat(args.heat)
    if args.t is not None:
        return kmod.TimeParameter.real(args.t, epsilon=0.0 if args.eps is None else args.eps)
    raise ArgumentError("a time is required: --heat TAU or --t T [--eps E]")


def _grid_values(args, rank: int) -> np.ndarray:
    """The points of --grid (or --point alone) as rows (N, rank), N checked
    against ``_GRID_CAP`` before any point is built."""
    if not 0 <= args.axis < rank:
        raise ArgumentError(f"--axis must lie in 0..{rank - 1}, got {args.axis}")
    base = np.zeros(rank)
    if args.point:
        try:
            base = np.array([float(v) for v in args.point.split(",")])
        except ValueError as exc:
            raise ArgumentError(f"bad --point {args.point!r}: {exc}") from None
        if len(base) != rank:
            raise ArgumentError(f"--point needs {rank} comma-separated values")
    if args.grid and args.theta_grid:
        raise ArgumentError("--theta-grid is an alias of --grid; give one of them")
    spec = args.grid or args.theta_grid
    if not spec:
        if not args.point:
            raise ArgumentError("provide --grid START:STOP:N or --point v1,v2,...")
        return base[None]
    try:
        start, stop, num = spec.split(":")
        start, stop, num = float(start), float(stop), int(num)
    except ValueError as exc:
        raise ArgumentError(f"bad grid spec {spec!r}; want START:STOP:N") from exc
    if num < 1:
        raise ArgumentError("grid needs at least one point")
    if num > _GRID_CAP:
        raise ResourceError(f"grid of {num} points is more than the cap of {_GRID_CAP}")
    values = np.repeat(base[None], num, axis=0)
    values[:, args.axis] = np.linspace(start, stop, num)
    return values


def _closed_form(fam: GroupFamily, domain_label: str, values: list, tp) -> complex | None:
    if fam.rank != 1:
        return None
    try:
        if not fam.is_compact and domain_label == "D0":
            value = kmod.su11_kernel_d0(values[0], tp)
        else:
            # the printed series is 0/0 on a wall
            if len(wall_denominator(root_system_of(fam), np.asarray(values))[0]):
                return None
            value = kmod.su2_pathsum_series(values[0], tp)
    except LieKernelError:
        return None
    return value if np.isfinite(value.real) and np.isfinite(value.imag) else None


def cmd_kernel(args) -> int:
    fam = parse_group(args.group)
    rs = root_system_of(fam)
    domains = enumerate_domains(fam)
    domain = None
    if args.domain:
        matches = [d for d in domains if d.label.upper() == args.domain.upper()]
        if not matches:
            raise ArgumentError(
                f"{fam.name} has no domain {args.domain}; available: "
                + ", ".join(d.label for d in domains)
            )
        domain = matches[0]
    elif not fam.is_compact:
        raise ArgumentError(f"{fam.name} is non-compact; pick a domain with --domain")
    signature = domain.signature if domain else ("R",) * rs.rank
    tp = _time_parameter(args)
    values = _grid_values(args, rs.rank)
    compact = IMAGINARY not in signature

    routes = [args.route] if args.route != "both" else ["pathsum", "spectral"]
    if "spectral" in routes and not compact:
        raise ArgumentError("the spectral route exists only on the compact group and its all-real domains")
    if "spectral" in routes and tp.conditionally_convergent:
        raise ArgumentError("the spectral route needs damping in real time: give --eps > 0, "
                            "or use --route pathsum")

    # the first point stands for the grid's checks; each route takes every point in one call
    req = kmod.KernelRequest(rs=rs, phi=RadialPoint(tuple(values[0]), signature), time=tp, tol=args.tol,
                             level_cutoff=args.level_cutoff, domain=domain)
    grid = {"pathsum": kmod.pathsum_grid, "spectral": kmod.spectral_grid}
    results = [(route, grid[route](req, values)) for route in routes]
    label, sig = domain.label if domain else "", "".join(signature)
    records = []
    for i, phi in enumerate(values.tolist()):
        rec = {"phi": phi, "signature": sig}
        for route, kvs in results:
            kv = kvs[i]
            if isinstance(kv, SingularPointError):  # a wall root orthogonal to the real axes: no limit
                rec[f"{route}_skipped"] = "wall point"
                continue
            rec[f"{route}_re"] = float(kv.value.real)
            rec[f"{route}_im"] = float(kv.value.imag)
            rec[f"{route}_tag"] = kv.tag.value
            if kv.warning:
                rec[f"{route}_warning"] = kv.warning
        if "pathsum_re" in rec and "spectral_re" in rec:
            rec["discrepancy"] = abs(
                complex(rec["pathsum_re"], rec["pathsum_im"])
                - complex(rec["spectral_re"], rec["spectral_im"])
            )
        closed = _closed_form(fam, label, phi, tp)
        if closed is not None:
            rec["closed_re"] = float(closed.real)
            rec["closed_im"] = float(closed.imag)
        records.append(rec)
    payload = {
        "group": fam.name,
        "domain": domain.label if domain else "compact",
        "time_mode": tp.mode.value,
        "time_value": float(tp.value),
        "epsilon": float(tp.epsilon),
        "records": records,
    }
    _emit(args, payload, records)
    return 0


def table_payload(group_name: str) -> dict:
    fam = parse_group(group_name)
    rs = root_system_of(fam)
    lat = winding_lattice(rs)
    rows = []
    for dom in enumerate_domains(fam):
        sub = domain_sublattice(lat, dom)
        rows.append(
            {
                "label": dom.label,
                "a": dom.a,
                "signature": "".join(dom.signature),
                "mtilde_generators": _vectors(sub.generators) if sub.dim else [],
                "mtilde_coeffs": [[int(c) for c in row] for row in sub.coeffs] if sub.dim else [],
            }
        )
    return {
        "group": fam.name,
        "root_system": rs.name,
        "winding_generators": _vectors(lat.generators),
        "domains": rows,
    }


def cmd_table(args) -> int:
    payload = table_payload(args.group)
    rows = [
        {
            "group": payload["group"],
            "label": d["label"],
            "a": d["a"],
            "signature": d["signature"],
            "mtilde_generators": [x for row in d["mtilde_generators"] for x in row],
        }
        for d in payload["domains"]
    ]
    _emit(args, payload, rows)
    return 0


def cmd_domains(args) -> int:
    fam = parse_group(args.group)
    if args.action == "enumerate":
        payload = {
            "group": fam.name,
            "rank": fam.rank,
            "count": domain_count(fam),
            "domains": [
                {"label": d.label, "a": d.a, "signature": "".join(d.signature)}
                for d in enumerate_domains(fam)
            ],
        }
        _emit(args, payload, payload["domains"])
        return 0
    # classify
    try:
        with open(args.matrix, encoding="utf-8") as fh:
            flat = np.asarray(json.load(fh), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ArgumentError(f"{args.matrix}: not a JSON numeric array: {exc}") from None
    d = fam.matrix_dim
    if flat.shape == (d, d):
        mat = flat.astype(complex)
    elif flat.shape == (d, d, 2):
        mat = flat[..., 0] + 1j * flat[..., 1]
    elif flat.shape == (d * d, 2):  # row-major [re, im] pairs
        mat = (flat[:, 0] + 1j * flat[:, 1]).reshape(d, d)
    else:
        raise ArgumentError(
            f"{args.matrix}: shape {flat.shape} is no {fam.name} element; give the square ({d}, {d}) "
            f"real array, ({d}, {d}, 2) [re, im] pairs or ({d * d}, 2) row-major [re, im] pairs"
        )
    dom, point = classify_element(fam, mat)
    eig = np.linalg.eigvals(np.asarray(mat, dtype=complex))
    pred = predicted_eigenvalues(fam, point)
    payload = {
        "group": fam.name,
        "domain": dom.label,
        "signature": "".join(dom.signature),
        "radial": [float(v) for v in point.values],
        "eigenvalues": [[float(z.real), float(z.imag)] for z in eig],
        "residual": _pairing_residual(pred, eig),
    }
    flat = {k: payload[k] for k in ("group", "domain", "signature", "residual")}
    flat["radial"] = payload["radial"]
    _emit(args, payload, [flat])
    return 0


def cmd_check(args) -> int:
    from . import checks as checks_mod

    if args.list:
        for name in checks_mod.CHECKS:
            print(name)
        return 0
    results = checks_mod.run_checks(only=args.only)
    # wall-clock times differ from run to run, so they go to stderr and stdout stays deterministic
    for r in results:
        print(f"{r.pop('seconds'):.6f} s  {r['name']}", file=sys.stderr)
    payload = {"checks": results, "passed": all(r["passed"] for r in results)}
    _emit(args, payload, results)
    return 0 if payload["passed"] else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> tuple:
    """The top-level parser and the parser of each command, by name."""
    parser = argparse.ArgumentParser(
        prog="liekernel",
        description="Evolution kernels and root-system machinery on classical group manifolds",
    )
    parser.add_argument("--config", help="JSON file with default option values (flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("-o", "--output", help="write to file instead of stdout")

    p = sub.add_parser("roots", help="dump a root system")
    p.add_argument("system", help="root system like A2, or a group name")
    p.add_argument("--rescale", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("weyl", help="Weyl group order and parities")
    p.add_argument("system")
    p.add_argument("--matrices", action="store_true", help="include the full matrix list")
    common(p)
    p.set_defaults(func=cmd_weyl)

    p = sub.add_parser("volume", help="invariant volumes")
    p.add_argument("system")
    common(p)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("kernel", help="evaluate evolution kernels on a grid")
    p.add_argument("group", help="group name like SU2, SU(1,1)")
    p.add_argument("--domain", help="evolution domain label, e.g. D0")
    p.add_argument("--heat", type=float, default=None, help="heat time tau > 0")
    p.add_argument("--t", type=float, default=None, help="real time t")
    p.add_argument("--eps", type=float, default=None, help="damping for real time (default 0)")
    p.add_argument("--grid", help="START:STOP:N sweep along --axis")
    p.add_argument("--theta-grid", dest="theta_grid", help="alias of --grid")
    p.add_argument("--axis", type=int, default=0)
    p.add_argument("--point", help="comma-separated base coordinates")
    p.add_argument("--route", choices=["pathsum", "spectral", "both"], default="pathsum")
    p.add_argument("--tol", type=float, default=1e-14)
    p.add_argument("--level-cutoff", dest="level_cutoff", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("domains", help="enumerate domains or classify an element")
    p.add_argument("action", choices=["enumerate", "classify"])
    p.add_argument("group")
    p.add_argument("matrix", nargs="?", help="JSON matrix file for classify")
    common(p)
    p.set_defaults(func=cmd_domains)

    p = sub.add_parser("table", help="domain/winding tables for the catalogued groups")
    p.add_argument("group")
    common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("check", help="run the invariant suite")
    p.add_argument("--only", help="substring filter on check names")
    p.add_argument("--list", action="store_true", help="list check names and exit")
    common(p)
    p.set_defaults(func=cmd_check)
    return parser, sub.choices


def _apply_config(parser, command, path, argv):
    """Parse ``argv`` again with the config file's values as ``command``'s defaults.

    Flags on the command line win.  An unreadable file, a top-level value
    that is not an object, a key naming no option of the command, or a value
    its option would refuse on the command line is a ``ConfigurationError``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object, not {type(raw).__name__}")
    values = {key.replace("-", "_"): value for key, value in raw.items()}
    options = {a.dest: a for a in command._actions if a.option_strings and a.dest != "help"}
    unknown = sorted(set(values) - set(options))
    if unknown:
        raise ConfigurationError(
            f"config file {path}: no option {', '.join(unknown)} in '{command.prog}'"
        )
    command.set_defaults(**{key: _config_value(options[key], value, f"config file {path}: '{key}'")
                            for key, value in values.items()})
    return parser.parse_args(argv)


def _config_value(action, value, where: str):
    """A config value converted and checked as its option's flag argument would be."""
    if action.nargs == 0:  # a switch such as --matrices
        if isinstance(value, bool):
            return value
        raise ConfigurationError(f"{where} takes true or false, not {value!r}")
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigurationError(f"{where} takes a string or a number, not {value!r}")
    try:
        converted = (action.type or str)(str(value))
    except ValueError:
        raise ConfigurationError(f"{where}: {value!r} is not a valid {action.type.__name__}") from None
    if action.choices is not None and converted not in action.choices:
        raise ConfigurationError(f"{where}: {value!r} is not one of {', '.join(action.choices)}")
    return converted


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = _apply_config(parser, commands[args.command], args.config, argv)
        if getattr(args, "matrix", None) is None and getattr(args, "action", "") == "classify":
            raise ArgumentError("classify needs a matrix JSON file")
        return args.func(args)
    except SystemExit as exc:  # argparse rejected a flag or a config value
        return 2 if exc.code not in (0, None) else 0
    except (ArgumentError, ConfigurationError, NotInGroupError, ResourceError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LieKernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
