"""Tests of the benchmark itself, at tiny sizes and a fixed round count.

Run: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from layer_trace import Tracer, install_layer_spans  # noqa: E402
from workloads import REFERENCE_MS, TINY_SCALES, Clock, RunRecord, worker_probe  # noqa: E402

WORKLOADS = tuple(TINY_SCALES)
ROUNDS = 2
_cache: dict = {}


def tiny(name: str, seed: int = 1, trace: bool = False) -> dict:
    return bench.run(name, seed, rounds=ROUNDS, trace=trace, scale=TINY_SCALES[name])


def cached(name: str, key: str) -> dict:
    """Runs shared across tests: traced twice and untraced once, seed 1."""
    if (name, key) not in _cache:
        _cache[name, key] = tiny(name, trace=key != "plain")
    return _cache[name, key]


@pytest.mark.parametrize("name", WORKLOADS)
def test_output_checks_pass_traced_and_untraced(name):
    for key in ("plain", "traced"):
        record = cached(name, key)
        assert record["checks_failed"] == []
        assert record["failed"] == 0
        assert record["attempted"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_second_seed_passes_every_check(name):
    record = tiny(name, seed=2)
    assert record["checks_failed"] == []
    assert record["failed"] == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_count_metrics_repeat_exactly_for_a_seed(name):
    first, second = cached(name, "traced"), cached(name, "traced-again")
    assert first["trace_counts"] == second["trace_counts"]
    assert first["counters"] == second["counters"]
    counts = [
        "net.frames_built_per_frame", "netsim.events_per_frame",
        "legacy.receive_calls_per_frame", "softswitch.compiles",
        "control.flowmods", "snmp.requests_per_switch", "sharded.sync_rounds",
    ]
    assert {key: first["metrics"][key] for key in counts} == {
        key: second["metrics"][key] for key in counts
    }


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracing_leaves_public_counters_unchanged(name):
    plain, traced = cached(name, "plain"), cached(name, "traced")
    assert plain["counters"] == {key: traced["counters"][key] for key in plain["counters"]}


def _current(owner, attr):
    return owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


def test_tracing_is_removed_after_a_run():
    probe = Tracer()
    install_layer_spans(probe, worker_probe)
    patched = probe.patched()
    assert patched
    probe.restore()
    for owner, attr, original, existed in patched:
        assert _current(owner, attr) is (original if existed else None), f"{owner}.{attr}"
    tiny("sharded", trace=True)  # a full traced run, forked workers included
    for owner, attr, original, existed in patched:
        assert _current(owner, attr) is (original if existed else None), f"{owner}.{attr}"


def test_no_data_is_null_not_zero():
    steady = cached("steady", "traced")["metrics"]
    # Tier 0 serves every SS_2 frame on steady: no interpreted lookups.
    assert steady["softswitch.interp_lookups"] == 0
    assert steady["softswitch.interp_cache_hit_rate"] is None
    assert steady["control.handle_message_us_p50"] is None
    churn = cached("churn", "traced")["metrics"]
    assert 0.0 <= churn["softswitch.interp_cache_hit_rate"] <= 1.0
    assert churn["control.handle_message_us_p50"] > 0
    assert bench.ratio(3, 0) is None


def test_segments_are_scaled_by_the_host_speed_around_them(monkeypatch):
    # The loop reads 10 ms before the segment and 30 ms after it: the
    # host ran at REFERENCE_MS / 20 ms of the reference host's speed.
    loop_ms = iter([10.0, 30.0])
    monkeypatch.setattr(workloads, "reference_loop_ms", lambda: next(loop_ms))
    record = RunRecord()
    value, wall_s, reference_s = Clock(record).measure(lambda: "done")
    assert value == "done"
    assert reference_s == pytest.approx(wall_s * REFERENCE_MS / 20.0)
    assert record.calibration_ms == [10.0, 30.0]


def test_unique_keys_are_the_datapaths_burst_grouping():
    # Counted by the SS_2 datapaths per burst, not derived from the
    # generated input: rollout's pings never arrive in bursts.
    assert cached("steady", "traced")["metrics"]["softswitch.unique_keys_per_frame"] > 0
    assert cached("rollout", "traced")["metrics"]["softswitch.unique_keys_per_frame"] == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_result_lines_carry_every_declared_metric(name):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for key, declared in (("plain", spec["end_to_end"]), ("traced", spec["per_layer"])):
        line = bench.result_line(cached(name, key))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert {m["name"]: m["unit"] for m in declared} == {
            metric: value["unit"] for metric, value in line["metrics"].items()
        }
        assert all(isinstance(value["value"], (int, float)) for value in line["metrics"].values())


def test_cli_fails_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
