"""FASTPATH — wall-clock packets/sec of the two-tier datapath.

Measures the *Python* cost of a pipeline walk (not the simulated cost
model, which is identical by construction) for three configurations:

* ``linear``     — the seed algorithm: O(n) priority scan per table,
  no caching (``enable_fast_path=False``);
* ``classifier`` — hash-bucketed slow path only (microflow cache
  disabled): one bucket probe per field-set + masked fallback;
* ``fastpath``   — the full two-tier path: microflow cache replaying
  memoised walks in front of the classifier.

Each run installs N exact 5-tuple flows plus a low-priority match-all
drop, then replays a steady-state traffic mix (a bounded active-flow
working set, so the cache serves hits like a real edge would see).
Results go to ``results/fastpath.txt`` (human) and
``results/fastpath.json`` (machine, archived by CI).

Run standalone: ``PYTHONPATH=src python benchmarks/bench_fastpath.py
[--fast]`` — ``--fast`` is the CI smoke mode (small flow counts only).
"""

import json
import time

from repro.netsim import Simulator
from repro.openflow import ApplyActions, FlowMod, Match, OutputAction
from repro.softswitch import SoftSwitch

from common import (
    ACTIVE_FLOWS,
    MEASURE_REPEATS,
    RESULTS_DIR,
    ZERO_COST,
    format_rate,
    bench_flow_addresses,
    keep_best,
    save_result,
    steady_traffic,
    wire_counting_sinks,
)

#: flow-table size -> packets measured (smaller at large n so the seed
#: linear baseline finishes in sane wall-clock time).
FULL_SIZES = {10: 20_000, 100: 10_000, 1_000: 4_000, 10_000: 1_000}
#: Smoke rows feed the CI regression gate, so they are long enough
#: (hundreds of ms per run) that scheduler bursts cannot halve a row.
SMOKE_SIZES = {10: 10_000, 100: 10_000}

def install_exact_flows(switch, num_flows):
    """*num_flows* exact 5-tuple rules + a match-all drop."""
    for index in range(num_flows):
        src, dst = bench_flow_addresses(index)
        message = FlowMod(
            match=Match(eth_type=0x0800, ipv4_src=src, ipv4_dst=dst, udp_dst=2000),
            priority=100,
            instructions=[
                ApplyActions(actions=(OutputAction(port=index % 3 + 1),))
            ],
        )
        assert switch.handle_message(message.to_bytes()) == []
    drop = FlowMod(match=Match(), priority=0, instructions=[])
    assert switch.handle_message(drop.to_bytes()) == []


def build_dut(num_flows, config, packets):
    """A switch with *num_flows* exact 5-tuple rules + match-all drop."""
    sim = Simulator()
    switch = SoftSwitch(
        sim,
        "dut",
        datapath_id=1,
        cost_model=ZERO_COST,
        enable_fast_path=(config != "linear"),
        # This bench measures the *interpreted* tiers; the compiled
        # tier 0 has its own bench (bench_specialized.py).
        enable_specialization=False,
    )
    if config == "classifier":
        switch.flow_cache = None  # bucketed slow path, no microflow cache
    sinks = wire_counting_sinks(sim, switch, packets)
    install_exact_flows(switch, num_flows)
    return sim, switch, sinks


def run_one(num_flows, packets, config):
    sim, switch, sinks = build_dut(num_flows, config, packets)
    frames = steady_traffic(num_flows, packets, ACTIVE_FLOWS)
    inject = switch.inject
    start = time.perf_counter()
    for frame in frames:
        inject(frame, 4)
    sim.run()
    elapsed = time.perf_counter() - start
    delivered = sum(sink.count for sink in sinks)
    assert delivered == packets, f"{config}: {delivered}/{packets} delivered"
    result = {
        "config": config,
        "flows": num_flows,
        "packets": packets,
        "pps": packets / elapsed,
        "elapsed_s": elapsed,
    }
    if switch.flow_cache is not None:
        result["cache"] = switch.flow_cache.stats()
    return result


def run_suite(sizes):
    best = {}
    for _ in range(MEASURE_REPEATS):
        for num_flows, packets in sizes.items():
            for config in ("linear", "classifier", "fastpath"):
                keep_best(
                    best, (num_flows, config), run_one(num_flows, packets, config)
                )
    rows = []
    for num_flows, packets in sizes.items():
        row = {"flows": num_flows, "packets": packets}
        for config in ("linear", "classifier", "fastpath"):
            row[config] = best[(num_flows, config)]
        row["speedup_fastpath"] = row["fastpath"]["pps"] / row["linear"]["pps"]
        row["speedup_classifier"] = row["classifier"]["pps"] / row["linear"]["pps"]
        rows.append(row)
    return rows


def render(rows, mode):
    lines = [
        "=" * 76,
        "FASTPATH: wall-clock pipeline rate, two-tier datapath vs seed linear scan",
        "=" * 76,
        f"mode: {mode}; steady-state working set of {ACTIVE_FLOWS} active flows",
        "",
        f"{'flows':>7} {'pkts':>7} {'linear pps':>12} {'classifier':>12} "
        f"{'fastpath':>12} {'speedup':>8} {'hit rate':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row['flows']:>7} {row['packets']:>7} "
            f"{row['linear']['pps']:>12.0f} {row['classifier']['pps']:>12.0f} "
            f"{row['fastpath']['pps']:>12.0f} "
            f"{row['speedup_fastpath']:>7.1f}x "
            f"{format_rate(row['fastpath']['cache']['hit_rate'], 9)}"
        )
    return "\n".join(lines)


def save_json(rows, mode):
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {"bench": "fastpath", "mode": mode, "rows": rows}
    path = RESULTS_DIR / "fastpath.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def test_fastpath_speedup():
    """Acceptance: ≥5x over the seed linear path at 1k installed flows."""
    rows = run_suite(FULL_SIZES)
    save_result("fastpath", render(rows, mode="full"))
    save_json(rows, mode="full")
    by_flows = {row["flows"]: row for row in rows}
    assert by_flows[1_000]["speedup_fastpath"] >= 5.0
    # The cache, not just the classifier, carries the win at scale.
    assert by_flows[10_000]["speedup_fastpath"] > by_flows[10_000]["speedup_classifier"] * 0.5
    # Steady state means the cache serves nearly every packet.
    for row in rows:
        assert row["fastpath"]["cache"]["hit_rate"] > 0.9


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true", help="CI smoke: small flow counts only"
    )
    args = parser.parse_args(argv)
    mode = "smoke" if args.fast else "full"
    rows = run_suite(SMOKE_SIZES if args.fast else FULL_SIZES)
    save_result("fastpath", render(rows, mode=mode))
    path = save_json(rows, mode=mode)
    print(f"JSON archived at {path}")


if __name__ == "__main__":
    main()
