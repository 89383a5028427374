"""Pure helpers shared by the benchmark's processes: the per-op cap, the
failure classifier, summary statistics, span-tree self time and by-value
comparison of CLI outputs.

Nothing here imports liekernel, so the orchestrator and the tests can use it
without the library on the path.
"""

from __future__ import annotations

import math
import signal
import statistics
from contextlib import contextmanager

# Failure causes, in the order they are checked.
CAUSES = ("cap", "refusal", "exception", "exit", "oracle")

# Relative residuals below this are not resolved by any oracle in use.
RESIDUAL_FLOOR = 2.0**-52

# compare_by_value judges a number against at least this share of the
# largest magnitude in its enclosing object.
SCALE_FLOOR = 1e-4


class CapHit(BaseException):
    """Raised by the SIGALRM handler when an op outlives its cap.

    A BaseException, so library code catching ``Exception`` cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise CapHit()


@contextmanager
def op_cap(seconds: float):
    """Interrupt the enclosed block with CapHit after ``seconds``.

    Uses SIGALRM in the calling (main) thread; no helper thread is started.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def classify_failure(exc=None, *, refusal_types=(), regular=True, exit_code=None, oracle_ok=True):
    """Cause of an op's failure, or None when the op succeeded.

    - ``cap``: the op hit its per-op cap;
    - ``refusal``: the library refused (``refusal_types``) a point that the
      benchmark's own per-root test calls regular;
    - ``exception``: any other exception;
    - ``exit``: a child process ended with a nonzero exit code;
    - ``oracle``: the op completed but missed its oracle.
    """
    if isinstance(exc, CapHit):
        return "cap"
    if exc is not None and regular and refusal_types and isinstance(exc, refusal_types):
        return "refusal"
    if exc is not None:
        return "exception"
    if exit_code not in (None, 0):
        return "exit"
    if not oracle_ok:
        return "oracle"
    return None


class Tally:
    """Op outcomes of one phase: latencies of successes, causes of failures."""

    def __init__(self):
        self.latencies = []
        self.failures = {cause: 0 for cause in CAUSES}
        self.failure_tags = {}
        self.worst_residual = 0.0

    def record(self, cause, latency_s, residual=None, tag=None):
        if cause is None:
            self.latencies.append(latency_s)
            if residual is not None:
                self.worst_residual = max(self.worst_residual, residual)
        else:
            self.failures[cause] += 1
            key = f"{cause}:{tag}" if tag else cause
            self.failure_tags[key] = self.failure_tags.get(key, 0) + 1

    @property
    def ok(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def attempted(self) -> int:
        return self.ok + self.failed


def accuracy_digits(worst_residual: float) -> float:
    """-log10 of the worst relative residual, floored at double precision."""
    return -math.log10(max(worst_residual, RESIDUAL_FLOOR))


def percentile_ms(latencies_s, q: int) -> float:
    """The q-th percentile (1..99) of latencies given in seconds, in ms."""
    if not latencies_s:
        return float("nan")
    if len(latencies_s) == 1:
        return latencies_s[0] * 1e3
    cuts = statistics.quantiles(latencies_s, n=100, method="inclusive")
    return cuts[q - 1] * 1e3


def self_times(spans):
    """Self time per span id: duration minus the union its children cover.

    ``spans`` maps id -> (name, start, end, parent_id).  Children of one
    span never overlap in a single thread, but the union is taken anyway so
    the arithmetic holds for any input.
    """
    children = {}
    for sid, (_, start, end, parent) in spans.items():
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, (_, start, end, _) in spans.items():
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def compare_by_value(actual, reference, rtol: float):
    """Compare two decoded JSON documents by value.

    Keys, list lengths and strings must match exactly.  A number ``b`` may
    differ by ``rtol * max(|b|, SCALE_FLOOR * scale)``, where scale is the largest
    magnitude among the numbers of its nearest enclosing object.  The floor
    keeps entries that are tiny by nature, such as a discrepancy column,
    from being judged at a precision their producer never had.
    Returns ``(ok, worst_relative_residual, reason)``.
    """
    worst = [0.0]

    def numbers(obj):
        if isinstance(obj, bool) or obj is None or isinstance(obj, str):
            return
        if isinstance(obj, (int, float)):
            yield abs(float(obj))
        elif isinstance(obj, dict):
            for v in obj.values():
                yield from numbers(v)
        elif isinstance(obj, list):
            for v in obj:
                yield from numbers(v)

    def walk(a, b, scale, path):
        if isinstance(b, dict):
            if not isinstance(a, dict) or list(a) != list(b):
                return f"{path}: keys differ"
            scale = max(numbers(b), default=0.0) or scale
            for k in b:
                reason = walk(a[k], b[k], scale, f"{path}.{k}")
                if reason:
                    return reason
            return None
        if isinstance(b, list):
            if not isinstance(a, list) or len(a) != len(b):
                return f"{path}: lengths differ"
            for i, (x, y) in enumerate(zip(a, b)):
                reason = walk(x, y, scale, f"{path}[{i}]")
                if reason:
                    return reason
            return None
        if isinstance(b, bool) or b is None or isinstance(b, str):
            return None if a == b and type(a) is type(b) else f"{path}: {a!r} != {b!r}"
        if isinstance(a, bool) or not isinstance(a, (int, float)):
            return f"{path}: {a!r} is not a number"
        rel = abs(float(a) - float(b)) / max(abs(float(b)), SCALE_FLOOR * scale, 1e-300)
        worst[0] = max(worst[0], rel)
        return None if rel <= rtol else f"{path}: {a!r} vs {b!r} (relative {rel:.1e})"

    reason = walk(actual, reference, 0.0, "$")
    return reason is None, worst[0], reason

