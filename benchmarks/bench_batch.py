"""BATCH — wall-clock pps of the burst-mode datapath vs single-frame.

Real softswitches only reach line rate by amortising per-packet
overhead over bursts (DPDK/OVS batch receive); this bench measures what
the simulated equivalent buys.  One weighted (zipf) frame stream over a
bounded working set is generated once per flow-table size, then pushed
through the same fast-path switch two ways:

* ``single`` (burst size 1) — the PR 2 path: one ``inject()`` call,
  one decode, one microflow probe and one egress event per frame;
* ``batch`` at burst sizes 8/32/128 — ``process_batch``: the same
  per-frame probe and replay, but one decode per distinct frame
  template and one egress link event per burst per port.

Reported pps is the **median** across ``MEASURE_REPEATS`` full passes
(the regression gate compares medians, so a single scheduler hiccup
cannot move a published row).  Results go to ``results/batch.txt``
(human) and ``results/batch.json`` (machine, gated by
``check_regression.py`` against ``baselines/batch.json``).

Run standalone: ``PYTHONPATH=src python benchmarks/bench_batch.py
[--fast]`` — ``--fast`` is the CI smoke mode.
"""

import json
import statistics
import time

from repro.netsim import Simulator
from repro.softswitch import SoftSwitch
from repro.traffic import FlowSpec, interleave_bursts, zipf_weights

from bench_fastpath import install_exact_flows
from common import (
    ACTIVE_FLOWS,
    BENCH_MAC_DST,
    BENCH_MAC_SRC,
    MEASURE_REPEATS,
    RESULTS_DIR,
    ZERO_COST,
    format_rate,
    bench_flow_addresses,
    save_result,
    wire_counting_sinks,
)

#: flow-table size -> packets measured per run.
FULL_SIZES = {1_000: 40_000, 10_000: 20_000}
SMOKE_SIZES = {100: 20_000}

BURST_SIZES = (1, 8, 32, 128)

#: Zipf skew of the traffic mix (flow popularity, NFPA-style).
TRAFFIC_SKEW = 1.0
#: Per-flow trains of up to this many back-to-back frames (TCP-window /
#: GSO shape) — the within-burst locality the grouping amortises.
TRAIN_LEN = 4


def bench_flowspecs(num_flows: int, active: int) -> "list[FlowSpec]":
    """FlowSpecs for the active working set, spread across the table
    (the same flows `common.steady_traffic` cycles through)."""
    active = min(num_flows, active)
    stride = max(num_flows // active, 1)
    specs = []
    for slot in range(active):
        index = (slot * stride) % num_flows
        src, dst = bench_flow_addresses(index)
        specs.append(
            FlowSpec(
                src_mac=BENCH_MAC_SRC,
                dst_mac=BENCH_MAC_DST,
                src_ip=src,
                dst_ip=dst,
                src_port=1000,
                dst_port=2000,
            )
        )
    return specs


def make_stream(num_flows: int, packets: int) -> list:
    """One flat zipf-weighted frame stream (template frame per flow).

    Generated once and *chunked* per burst size, so every configuration
    processes byte-for-byte the same frame sequence.
    """
    specs = bench_flowspecs(num_flows, ACTIVE_FLOWS)
    weights = zipf_weights(len(specs), skew=TRAFFIC_SKEW)
    ((_, frames),) = interleave_bursts(
        specs, [(0.0, packets)], seed=num_flows, weights=weights,
        payload_len=32, train_len=TRAIN_LEN,
    )
    return frames


def chunk(stream: list, size: int) -> "list[list]":
    return [stream[i:i + size] for i in range(0, len(stream), size)]


def build_dut(num_flows: int, packets: int):
    sim = Simulator()
    # Specialization off: this bench measures the interpreted burst
    # pipeline (the compiled tier 0 has its own bench_specialized.py).
    switch = SoftSwitch(
        sim, "dut", datapath_id=1, cost_model=ZERO_COST,
        enable_specialization=False,
    )
    sinks = wire_counting_sinks(sim, switch, packets)
    install_exact_flows(switch, num_flows)
    return sim, switch, sinks


def run_one(num_flows: int, stream: list, burst_size: int) -> dict:
    packets = len(stream)
    sim, switch, sinks = build_dut(num_flows, packets)
    start = time.perf_counter()
    if burst_size == 1:
        inject = switch.inject
        for frame in stream:
            inject(frame, 4)
    else:
        process_batch = switch.process_batch
        for burst in chunk(stream, burst_size):
            process_batch(4, burst)
    sim.run()
    elapsed = time.perf_counter() - start
    delivered = sum(sink.count for sink in sinks)
    assert delivered == packets, f"burst={burst_size}: {delivered}/{packets}"
    result = {
        "config": "single" if burst_size == 1 else "batch",
        "burst": burst_size,
        "flows": num_flows,
        "packets": packets,
        "pps": packets / elapsed,
        "elapsed_s": elapsed,
        "cache": switch.flow_cache.stats(),
    }
    if burst_size > 1:
        # Grouping: frames per distinct flow key within a burst.
        result["frames_per_unique_key"] = (
            switch.batch_frames / switch.batch_unique_keys
            if switch.batch_unique_keys
            else None
        )
    return result


def run_suite(sizes: dict) -> list:
    samples: "dict[tuple, list[dict]]" = {}
    streams = {
        num_flows: make_stream(num_flows, packets)
        for num_flows, packets in sizes.items()
    }
    for _ in range(MEASURE_REPEATS):
        for num_flows in sizes:
            for burst_size in BURST_SIZES:
                row = run_one(num_flows, streams[num_flows], burst_size)
                samples.setdefault((num_flows, burst_size), []).append(row)
    rows = []
    for (num_flows, burst_size), runs in sorted(samples.items()):
        median_pps = statistics.median(run["pps"] for run in runs)
        row = dict(runs[0])
        row["pps"] = median_pps
        row.pop("elapsed_s")
        rows.append(row)
    by_key = {(row["flows"], row["burst"]): row for row in rows}
    for row in rows:
        if row["burst"] > 1:
            row["speedup_vs_single"] = (
                row["pps"] / by_key[(row["flows"], 1)]["pps"]
            )
    return rows


def render(rows: list, mode: str) -> str:
    lines = [
        "=" * 76,
        "BATCH: burst-mode datapath vs single-frame fast path (median wall-clock pps)",
        "=" * 76,
        f"mode: {mode}; zipf(skew={TRAFFIC_SKEW}) mix over {ACTIVE_FLOWS} active flows",
        "",
        f"{'flows':>7} {'burst':>6} {'pkts':>7} {'pps':>12} {'speedup':>8} "
        f"{'hit rate':>9} {'frames/key':>18}",
    ]
    for row in rows:
        speedup = (
            f"{row['speedup_vs_single']:>7.1f}x"
            if "speedup_vs_single" in row
            else f"{'1.0x':>8}"
        )
        grouping = (
            f"{row['frames_per_unique_key']:>18.1f}"
            if row.get("frames_per_unique_key") is not None
            else f"{'—':>18}"
        )
        lines.append(
            f"{row['flows']:>7} {row['burst']:>6} {row['packets']:>7} "
            f"{row['pps']:>12.0f} {speedup} "
            f"{format_rate(row['cache']['hit_rate'], 9)} {grouping}"
        )
    return "\n".join(lines)


def save_json(rows: list, mode: str):
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {"bench": "batch", "mode": mode, "rows": rows}
    path = RESULTS_DIR / "batch.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def test_batch_speedup():
    """Acceptance: ≥3x median pps over single-frame at burst 32 / 10k flows."""
    rows = run_suite(FULL_SIZES)
    save_result("batch", render(rows, mode="full"))
    save_json(rows, mode="full")
    by_key = {(row["flows"], row["burst"]): row for row in rows}
    assert by_key[(10_000, 32)]["speedup_vs_single"] >= 3.0
    # Bigger bursts never hurt: the sweep is monotone within noise.
    assert by_key[(10_000, 128)]["speedup_vs_single"] >= 2.5
    # The grouping actually grouped (zipf mix repeats keys within bursts).
    assert by_key[(10_000, 32)]["frames_per_unique_key"] > 1.5


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true", help="CI smoke: small flow counts only"
    )
    args = parser.parse_args(argv)
    mode = "smoke" if args.fast else "full"
    rows = run_suite(SMOKE_SIZES if args.fast else FULL_SIZES)
    save_result("batch", render(rows, mode=mode))
    path = save_json(rows, mode=mode)
    print(f"JSON archived at {path}")


if __name__ == "__main__":
    main()
