"""One benchmark process: set up a workload, run its timed phase, report.

Started by run.py from the root of a checkout:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

After set-up, a survey runs every op of the workload once, untimed, and
checks it against its oracle.  Ops that fail there are the program's known
defects on this input; they are counted in the survey and left out of the
timed phase.  The timed phase is a closed loop with one caller: the next op
starts when the last one has finished.  It runs passes over the ops that
passed the survey until ``--seconds`` have passed, and reports each op's
latency on every pass.  The last stdout line is one JSON object with the raw figures;
run.py turns them into metrics.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import platform  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class TableClock:
    """Spectral table time measured from outside the library.

    For each ``compact_spectral`` span at a (system, time) the process has
    not seen, the table time is the span's duration minus a warm call at the
    same key made right after the op, untraced and outside the timed phase.
    A call cut by the op cap never built its table; all of its time counts.
    """

    def __init__(self, tracer, lk, cap_error):
        self.tracer = tracer
        self.lk = lk
        self.cap_error = cap_error
        self.seen = set()
        self.pending = []
        tracer.hooks["kernel.compact_spectral"] = self.hook

    def hook(self, span, args, result, error):
        req = args[0]
        key = (req.rs.name, req.time, req.tol, req.level_cutoff)
        if key not in self.seen:
            self.seen.add(key)
            self.pending.append((span, req, error))

    def settle(self) -> float:
        """Time the warm calls for the tables built since the last call."""
        spent = time.perf_counter()
        self.tracer.enabled = False
        try:
            for span, req, error in self.pending:
                first = span[2] - span[1]
                if isinstance(error, self.cap_error):
                    warm = 0.0
                else:
                    t0 = time.perf_counter()
                    try:
                        self.lk.compact_spectral(req)
                    except self.lk.LieKernelError:
                        pass
                    warm = time.perf_counter() - t0
                span[5] = {"table_s": max(first - warm, 0.0)}
        finally:
            self.tracer.enabled = True
            self.pending.clear()
        return time.perf_counter() - spent


def _merge_child_spans(tracer, path, op_id):
    """Append a CLI child's spans to the worker's, re-based and tagged with the op."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    os.remove(path)
    base = len(tracer.spans)
    for name, start, end, parent, _, extra in doc["spans"]:
        tracer.spans.append([name, start, end, None if parent is None else parent + base, op_id, extra])
    return doc["import_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    t0 = time.perf_counter()
    import liekernel as lk
    import_s = time.perf_counter() - t0

    import workloads
    from core import CapHit, Tally, classify_failure, op_cap
    from spans import Tracer, summarize

    in_process = args.workload != "cli_oneshot"
    tracer = tables = None
    if args.trace and in_process:
        tracer = Tracer()
        tracer.install()
        tables = TableClock(tracer, lk, CapHit)

    wl = workloads.make(args.workload, args.seed)
    wl.setup()
    setup_s = time.perf_counter() - START
    result = {"workload": wl.name, "seed": args.seed, "setup_s": setup_s, "import_s": import_s,
              "env": {"python": platform.python_version(),
                      **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "sympy")}}}
    if tables:
        tables.settle()
    if args.setup_only:
        result["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_SELF)
        print(json.dumps(result))
        return 0

    def attempt(op):
        """Run one op under the cap; return its failure cause (or None), latency and outcome."""
        outcome = error = None
        t_op = time.perf_counter()
        try:
            with op_cap(wl.cap_s):
                outcome = wl.run(op)
        except CapHit as exc:
            error = exc
        except Exception as exc:  # every other error is an op failure, classified below
            error = exc
        latency = time.perf_counter() - t_op
        cause = classify_failure(
            error,
            refusal_types=(lk.SingularPointError,),
            exit_code=outcome.exit_code if outcome else None,
            oracle_ok=outcome.ok if outcome else True,
        )
        detail = repr(error) if error else (outcome.detail if outcome else "")
        return cause, latency, outcome, detail

    # Survey: every op once, untimed and untraced.  Ops that fail here (the
    # known defects) are counted in the survey and left out of the timed
    # phase, which then runs only ops the program handles.  A workload with
    # no known failure causes needs no survey; its first timed pass stands in
    # for it.
    survey = Tally()
    unexpected = []
    surveyed = bool(wl.known_causes)
    timed_ops = list(wl.ops)
    if surveyed:
        timed_ops = []
        if tracer:
            tracer.enabled = False
        for op in wl.ops:
            cause, latency, outcome, detail = attempt(op)
            survey.record(cause, latency, outcome.residual if outcome else None, tag=wl.failure_tag(op))
            if cause is None:
                timed_ops.append(op)
            elif not wl.is_known_failure(op, cause) and len(unexpected) < 10:
                unexpected.append(f"{cause}: {wl.describe(op)}: {detail}"[:400])
        if tracer:
            tracer.enabled = True

    child_imports = []
    if args.trace and not in_process:
        out_dir = os.path.join(HERE, "_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer = Tracer()
        shim = os.path.join(HERE, "cli_shim.py")
        spans_file = os.path.join(out_dir, f"child-{os.getpid()}.json")
        wl.prefix = [shim, spans_file]

    # Timed phase: passes over the timed ops, ending at the first op that
    # finishes after --seconds, once every op has run.  Any failure here is
    # unexpected: the op passed the survey, or has no known failure cause.
    tally = Tally()
    latencies = {}
    per_op = [[] for _ in timed_ops]  # latencies of each op's successful passes
    bytes_out = 0
    excluded = 0.0
    op_id = 0
    pass_no = 1
    phase_start = time.perf_counter()
    done = not timed_ops
    while not done:
        for k, op in enumerate(timed_ops):
            if tracer:
                tracer.op = op_id
            cause, latency, outcome, detail = attempt(op)
            tally.record(cause, latency, tag=wl.failure_tag(op))
            if not surveyed and pass_no == 1:
                survey.record(cause, latency, outcome.residual if outcome else None, tag=wl.failure_tag(op))
            if cause is None:
                per_op[k].append(latency)
            elif len(unexpected) < 10:
                unexpected.append(f"{cause} in the timed phase: {wl.describe(op)}: {detail}"[:400])
            latencies[op_id] = latency
            if tables:
                excluded += tables.settle()
            if args.trace and not in_process:
                bytes_out += wl.last_bytes_out
                if os.path.exists(spans_file):
                    child_imports.append(_merge_child_spans(tracer, spans_file, op_id))
            op_id += 1
            if pass_no > 1 and time.perf_counter() - phase_start - excluded >= args.seconds:
                done = True
                break
        else:
            done = time.perf_counter() - phase_start - excluded >= args.seconds
        pass_no += 1

    result.update(
        attempted=tally.attempted,
        ok=tally.ok,
        failures=tally.failures,
        unexpected=unexpected,
        passes=round(op_id / len(timed_ops), 2) if timed_ops else 0,
        op_latencies_s=[lat for lat in per_op if lat],
        survey={"attempted": survey.attempted, "ok": survey.ok, "failures": survey.failures,
                "failure_tags": survey.failure_tags, "worst_residual": survey.worst_residual},
        peak_rss_mb=_peak_rss_mb(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN),
    )
    if tracer:
        phases, covered = summarize(tracer.spans)
        unattributed = sum(latencies[op] - covered.get(op, 0.0) for op in latencies)
        if child_imports:
            unattributed -= sum(child_imports)
            result["import_s"] = statistics.median(child_imports)
        result["trace"] = {
            "phases": phases,
            "unattributed_s": unattributed,
            "bytes_out": bytes_out,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
