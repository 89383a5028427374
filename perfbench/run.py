"""liekernel benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a liekernel checkout (the directory holding
``src/liekernel``).  NAME is one of compact_grid, realtime_domains,
cli_oneshot, or ``all`` for every workload in turn.

With ``--trace 0`` the last stdout line is one JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, compared against an untraced run of the same seed.  Every figure
comes from worker processes (worker.py); set-up time is the median over
several fresh processes.  BLAS threads are capped at the number of usable
cores for the benchmark and all its children.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from core import CAUSES, accuracy_digits, percentile_ms
from spans import LAYERS, layer_name

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("compact_grid", "realtime_domains", "cli_oneshot")
SETUP_SAMPLES = 3          # fresh processes whose set-up time is measured
INTERPRETER_SAMPLES = 3    # bare interpreter start-ups for cli.interpreter_s
WORKER_TIMEOUT_S = 150.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = str(usable_cores())
    return env


def run_worker(workload, seed, seconds, *flags):
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), *flags]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                              timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} ran over {WORKER_TIMEOUT_S:.0f} s") from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def interpreter_s() -> float:
    samples = []
    for _ in range(INTERPRETER_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=child_env())
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def metric(value, unit):
    return {"value": value, "unit": unit}


def op_latencies(run):
    """Each timed op's latency in seconds: the fastest of its passes.

    The machine is shared, and load from other processes only ever slows an
    op, so an op's fastest pass is the steadiest reading of its own cost.
    """
    return [min(lat) for lat in run["op_latencies_s"]]


def end_to_end(run, setups):
    """End-to-end metrics: speed from the timed phase, correctness from the survey.

    Speed is taken from each op's fastest pass (``op_latencies``).  Goodput
    is the rate of one pass at those latencies.
    """
    lat = op_latencies(run)
    ok = run["ok"]
    survey = run["survey"]
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "ok_ops_per_s": metric(len(lat) / sum(lat) if ok else 0.0, "1/s"),
        "op_p50_ms": metric(percentile_ms(lat, 50) if ok else 0.0, "ms"),
        "op_p99_ms": metric(percentile_ms(lat, 99) if ok else 0.0, "ms"),
        "ok_frac": metric(survey["ok"] / survey["attempted"], "frac"),
        "accuracy_digits": metric(accuracy_digits(survey["worst_residual"]) if survey["ok"] else 0.0,
                                  "digits"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
    }


def per_layer(traced, untraced, interp_s):
    ops = traced["attempted"]
    trace = traced["trace"]
    in_ops, in_setup = trace["phases"]["ops"], trace["phases"]["setup"]
    zero = {"calls": 0, "self_s": 0.0, "points": 0, "tables": 0, "table_s": 0.0}
    m = {}
    for module, func in LAYERS:
        name = layer_name(module, func)
        row = in_ops.get(name, zero)
        m[f"{name}.calls"] = metric(row["calls"] / ops, "calls/op")
        m[f"{name}.self_s"] = metric(row["self_s"] / ops, "s/op")
        if not name.startswith("cli."):
            m[f"setup.{name}.self_s"] = metric(in_setup.get(name, zero)["self_s"], "s")
    m["lattice.enumerate_points.points"] = metric(
        in_ops.get("lattice.enumerate_points", zero)["points"] / ops, "points/op")
    spectral = in_ops.get("kernel.compact_spectral", zero)
    m["kernel.spectral_tables"] = metric(spectral["tables"] / ops, "tables/op")
    m["kernel.spectral_table_s"] = metric(spectral["table_s"] / ops, "s/op")
    m["setup.kernel.spectral_table_s"] = metric(
        in_setup.get("kernel.compact_spectral", zero)["table_s"], "s")
    survey = traced["survey"]
    tags, surveyed = survey["failure_tags"], survey["attempted"]
    for mode in ("heat", "real"):
        m[f"kernel.wall_refusals.{mode}"] = metric(tags.get(f"refusal:{mode}", 0) / surveyed, "frac")
        m[f"kernel.oracle_misses.{mode}"] = metric(tags.get(f"oracle:{mode}", 0) / surveyed, "frac")
    m["cli.interpreter_s"] = metric(interp_s, "s")
    m["cli.import_s"] = metric(traced["import_s"], "s")
    m["cli.bytes_out"] = metric(trace["bytes_out"] / ops, "B/op")
    m["bench.unattributed_s"] = metric(trace["unattributed_s"] / ops, "s/op")
    for cause in CAUSES:
        m[f"bench.failed.{cause}"] = metric(survey["failures"][cause] / surveyed, "frac")
    base, traced_s = sum(op_latencies(untraced)), sum(op_latencies(traced))
    m["trace.overhead_frac"] = metric(1.0 - base / traced_s if traced_s else 0.0, "frac")
    return m


def report(workload, seed, seconds, trace):
    """Run one workload; return its result object and print a summary."""
    if trace:
        untraced = run_worker(workload, seed, seconds)
        run = run_worker(workload, seed, seconds, "--trace")
        metrics = per_layer(run, untraced, interpreter_s())
    else:
        run = run_worker(workload, seed, seconds)
        setups = [run["setup_s"]]
        setups += [run_worker(workload, seed, 0, "--setup-only")["setup_s"]
                   for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(run, setups)
    env, survey = run["env"], run["survey"]
    print(f"# {workload} seed={seed} trace={int(trace)}: survey {survey['ok']} of "
          f"{survey['attempted']} ops ok; timed {run['attempted']} ops in {run['passes']} "
          f"passes, {run['ok']} ok, {run['attempted'] - run['ok']} failed; latency percentiles over "
          f"the fastest passes of {len(run['op_latencies_s'])} ops")
    print(f"# environment: nproc={usable_cores()} blas_threads={usable_cores()} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    if survey["failure_tags"]:
        print("# survey failures by cause, left out of the timed phase: "
              + json.dumps(survey["failure_tags"], sort_keys=True))
    for line in run["unexpected"]:
        print(f"# unexpected failure: {line}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": not run["unexpected"] and run["ok"] > 0,
        "attempted": run["attempted"],
        "failed": run["attempted"] - run["ok"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="liekernel benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "liekernel", "__init__.py")):
        print("error: run from the root of a liekernel checkout (no src/liekernel here)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [report(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, result in zip(names, results):
        if len(names) > 1:
            print(f"# {name}: " + json.dumps(result))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"] if len(results) == 1 else
        {f"{n}.{k}": v for n, r in zip(names, results) for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
