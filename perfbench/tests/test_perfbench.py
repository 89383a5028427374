"""The benchmark's own tests: seeded inputs, regularity, failure classifier,
span self time, reference comparison and the metric names in BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import liekernel as lk  # noqa: E402

import run  # noqa: E402
import workloads as W  # noqa: E402
from core import CapHit, Tally, classify_failure, compare_by_value, op_cap, self_times  # noqa: E402


@pytest.fixture(scope="module")
def systems():
    return {W.system_name(f, r): lk.build_root_system(f, r) for f, r in W.COMPACT_SYSTEMS}


@pytest.fixture(scope="module")
def families():
    out = {}
    for name in W.REAL_FORMS:
        fam = lk.parse_group(name)
        out[name] = (fam, lk.enumerate_domains(fam))
    return out


def _inputs(name, seed, systems, families):
    wl = W.make(name, seed)
    if name == "realtime_domains":
        return wl.inputs(families)
    if name == "cli_oneshot":
        return wl.inputs()
    return wl.inputs(systems)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, systems, families):
    first = _inputs(name, 7, systems, families)
    again = _inputs(name, 7, systems, families)
    other = _inputs(name, 8, systems, families)
    assert repr(first) == repr(again)
    assert repr(first) != repr(other)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_compact_points_are_regular(seed, systems):
    points = [(op[0], op[2], op[3]) for op in _inputs("compact_grid", seed, systems, None)]
    assert points
    for name, phi, near_identity in points:
        rs = systems[name]
        phi = np.asarray(phi)
        assert W.min_root_sine(rs, phi) >= W.REGULAR_FLOOR, (name, phi)
        if near_identity:
            assert np.abs(phi).max() <= 0.3
        else:
            # inside the fundamental alcove
            assert (rs.simple_roots @ phi >= 0).all()
            assert rs.highest_root @ phi <= 2 * np.pi


def test_compact_grid_covers_both_point_kinds_and_time_modes(systems):
    ops = _inputs("compact_grid", 3, systems, None)
    assert {op[0] for op in ops} == set(systems)
    assert {op[3] for op in ops} == {True, False}
    assert {op[1][0] for op in ops} == {"heat", "real"}


def test_classifier_counts_synthetic_refusal_and_oracle_miss():
    refusal = lk.SingularPointError("phi lies on a Weyl wall")
    types = (lk.SingularPointError,)
    assert classify_failure(refusal, refusal_types=types, regular=True) == "refusal"
    assert classify_failure(refusal, refusal_types=types, regular=False) == "exception"
    assert classify_failure(None, oracle_ok=False) == "oracle"
    assert classify_failure(CapHit()) == "cap"
    assert classify_failure(ValueError("boom")) == "exception"
    assert classify_failure(None, exit_code=2) == "exit"
    assert classify_failure(None, exit_code=0, oracle_ok=True) is None

    tally = Tally()
    tally.record(classify_failure(refusal, refusal_types=types), 0.1, tag="heat")
    tally.record(classify_failure(None, oracle_ok=False), 0.2, residual=1.0, tag="real")
    tally.record(None, 0.3, residual=1e-12)
    assert (tally.attempted, tally.ok, tally.failed) == (3, 1, 2)
    assert tally.failures["refusal"] == 1 and tally.failures["oracle"] == 1
    assert tally.failure_tags == {"refusal:heat": 1, "oracle:real": 1}
    assert tally.latencies == [0.3]
    assert tally.worst_residual == 1e-12  # failed ops do not enter accuracy


def test_op_cap_interrupts_a_long_op():
    t0 = time.perf_counter()
    with pytest.raises(CapHit):
        with op_cap(0.05):
            while True:
                pass
    assert time.perf_counter() - t0 < 1.0


def test_self_time_arithmetic():
    spans = {
        0: ("op", 0.0, 10.0, None),
        1: ("a", 1.0, 4.0, 0),
        2: ("b", 5.0, 9.0, 0),
        3: ("c", 2.0, 3.0, 1),
        4: ("d", 6.0, 6.5, 2),
        5: ("e", 7.0, 8.0, 2),
    }
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 2.0, 2: 2.5, 3: 1.0, 4: 0.5, 5: 1.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_compare_by_value():
    ref = {"group": "SU(3)", "records": [{"re": 0.5, "im": -0.25, "discrepancy": 1e-17}]}
    close = {"group": "SU(3)", "records": [{"re": 0.5 + 1e-13, "im": -0.25, "discrepancy": 3e-17}]}
    ok, worst, _ = compare_by_value(close, ref, 1e-8)
    assert ok and 0 < worst < 1e-12
    far = {"group": "SU(3)", "records": [{"re": 0.5 + 1e-7, "im": -0.25, "discrepancy": 1e-17}]}
    assert not compare_by_value(far, ref, 1e-8)[0]
    assert not compare_by_value({"group": "SU(3)", "records": []}, ref, 1e-8)[0]
    assert not compare_by_value({"group": "SU(2)", "records": ref["records"]}, ref, 1e-8)[0]


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    survey = {"ok": 2, "attempted": 3, "failures": {c: 0 for c in run.CAUSES},
              "failure_tags": {}, "worst_residual": 1e-12}
    fake = {"ok": 2, "attempted": 2, "op_latencies_s": [[0.1], [0.2, 0.3]],
            "peak_rss_mb": 100.0, "survey": survey}
    e2e = run.end_to_end(fake, [1.0, 1.1, 1.2])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in e2e.items()}
    zero = {"calls": 1, "self_s": 0.1, "points": 1, "tables": 0, "table_s": 0.0}
    traced = dict(fake, import_s=1.0,
                  trace={"phases": {"ops": {"kernel.compact_spectral": zero}, "setup": {}},
                         "bytes_out": 0, "unattributed_s": 0.0})
    layers = run.per_layer(traced, fake, 0.05)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v["unit"] for k, v in layers.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
