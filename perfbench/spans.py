"""Span tracing around liekernel's public functions, from the benchmark side.

Each wrapped call records one span: name, start, end, parent span and the id
of the op it belongs to.  Spans stay in memory; ``dump`` writes them out at
the end of a run.  The wrapper replaces the function object under every name
that a liekernel module resolves at call time (``from .x import f`` copies
included), so internal callers are traced too.
"""

from __future__ import annotations

import json
import sys
import time

from core import self_times

# (module, function, span name).  The span name is ``<module>.<function>``
# without the package prefix; per-layer metrics are named after it.
LAYERS = (
    ("liekernel.rootsys", "build_root_system"),
    ("liekernel.weyl", "generate_weyl_group"),
    ("liekernel.weyl", "weyl_function"),
    ("liekernel.volumes", "group_volume"),
    ("liekernel.lattice", "enumerate_points"),
    ("liekernel.lattice", "domain_sublattice"),
    ("liekernel.lattice", "reduce_lexmax"),
    ("liekernel.kernel", "compact_pathsum"),
    ("liekernel.kernel", "compact_spectral"),
    ("liekernel.kernel", "noncompact_pathsum"),
    ("liekernel.domains", "parse_group"),
    ("liekernel.domains", "build_element"),
    ("liekernel.domains", "classify_element"),
    ("liekernel.domains", "canonical_radial"),
    ("liekernel.cli", "main"),
    ("liekernel.cli", "render_json"),
)

# Layers whose wrappers only open a span for the outermost call of a
# recursion (render_json calls itself once per nested value).
OUTERMOST_ONLY = {"cli.render_json"}


def layer_name(module: str, func: str) -> str:
    return f"{module.split('.', 1)[1]}.{func}"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, extra]
        self.stack = []
        self.op = "setup"
        self.enabled = True
        self.hooks = {"lattice.enumerate_points": count_points}  # name -> fn(span, args, result, error)

    def wrap(self, name, fn):
        outermost_only = name in OUTERMOST_ONLY
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled or (outermost_only and stack and spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            span = [name, clock(), None, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[2] = clock()
                stack.pop()
                hook = self.hooks.get(name)
                if hook is not None:
                    hook(span, args, result, error)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, layers=LAYERS):
        """Wrap every layer under each liekernel name that refers to it."""
        modules = [m for n, m in sys.modules.items() if n == "liekernel" or n.startswith("liekernel.")]
        for module_name, func in layers:
            if module_name not in sys.modules:
                continue
            original = getattr(sys.modules[module_name], func)
            wrapper = self.wrap(layer_name(module_name, func), original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def dump(self, path, **extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def count_points(span, args, result, error):
    """Count the winding vectors a call returned."""
    span[5] = {"points": 0 if result is None else len(result)}


def summarize(spans):
    """Per-layer totals for the set-up phase and for the ops.

    Returns ``(phases, covered)``: ``phases[phase][layer]`` holds calls, self
    seconds, winding points, and spectral tables with their seconds;
    ``covered[op]`` is the time the op's top-level spans cover.  A span's
    ``table_s`` counts as a child of it, so it leaves the span's self time.
    """
    selfs = self_times({i: (s[0], s[1], s[2], s[3]) for i, s in enumerate(spans)})
    phases = {"setup": {}, "ops": {}}
    covered = {}
    for i, (name, start, end, parent, op, extra) in enumerate(spans):
        phase = "setup" if op == "setup" else "ops"
        extra = extra or {}
        row = phases[phase].setdefault(
            name, {"calls": 0, "self_s": 0.0, "points": 0, "tables": 0, "table_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i] - extra.get("table_s", 0.0)
        row["points"] += extra.get("points", 0)
        if "table_s" in extra:
            row["tables"] += 1
            row["table_s"] += extra["table_s"]
        if parent is None and phase == "ops":
            covered[op] = covered.get(op, 0.0) + (end - start)
    return phases, covered
