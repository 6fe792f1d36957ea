"""CHURN — fast-path behaviour under sustained control-plane churn.

HARMLESS keeps commodity software switches on the forwarding path
while controllers continuously reprogram them, so the fast path must
survive FlowMod streams, not just steady state.  Two experiments:

* **churn** — N exact flows serve a steady working set while a
  controller issues one FlowMod every few packets.  Two churn shapes
  (adds/deletes against a table the traffic never visits, and
  unrelated-mask adds into the hot table) × two invalidation policies:
  ``scoped`` (the dependency index: only dependent walks drop) vs
  ``flush`` (the pre-dependency-index behaviour: every mutation clears
  the whole microflow cache, emulated by an explicit ``invalidate()``
  after each mutation).  Measures wall-clock pps and cache hit rate.
* **masked scaling** — M masked (prefix) entries spread over 8
  distinct mask-sets, microflow cache disabled.  The staged-subtable
  classifier costs O(#mask-sets) per lookup, so pps should stay ~flat
  in M while the seed linear scan degrades.

Results go to ``results/churn.txt`` (human) and ``results/churn.json``
(machine; compared against ``baselines/churn.json`` by
``check_regression.py`` in CI).

Run standalone: ``PYTHONPATH=src python benchmarks/bench_churn.py
[--fast]`` — ``--fast`` is the CI smoke mode (smaller sizes).
"""

import json
import time

from repro.net.addresses import IPv4Address
from repro.net.build import udp_frame
from repro.netsim import Simulator
from repro.openflow import ApplyActions, FlowMod, Match, OutputAction
from repro.openflow import consts as c
from repro.softswitch import SoftSwitch

from common import (
    ACTIVE_FLOWS,
    BENCH_MAC_DST,
    BENCH_MAC_SRC,
    MEASURE_REPEATS,
    RESULTS_DIR,
    ZERO_COST,
    format_rate,
    keep_best,
    save_result,
    steady_traffic,
    wire_counting_sinks,
)
from bench_fastpath import install_exact_flows
#: One control-plane mutation every CHURN_EVERY packets.
CHURN_EVERY = 4
#: Churn entries kept installed before the oldest is deleted again.
CHURN_WINDOW = 64

FULL_CHURN = {"flows": 1_000, "packets": 8_000}
#: Smoke rows feed the CI regression gate: sized for hundreds of ms
#: per run so scheduler bursts cannot halve a row.
SMOKE_CHURN = {"flows": 200, "packets": 4_000}

#: masked-tier size -> packets measured (cache disabled, so the seed
#: linear baseline is the wall-clock limiter at large M).
FULL_SCALING = {250: 4_000, 1_000: 2_000, 4_000: 1_000}
SMOKE_SCALING = {250: 2_000, 4_000: 2_000}

#: Distinct prefix lengths = distinct mask-sets in the masked tier.
PREFIX_LENGTHS = tuple(range(17, 25))


def build_switch(packets):
    sim = Simulator()
    # Specialization off: this bench pins the interpreted fast path's
    # churn behaviour (the compiled tier 0 has bench_specialized.py).
    switch = SoftSwitch(
        sim, "dut", datapath_id=1, cost_model=ZERO_COST,
        enable_specialization=False,
    )
    sinks = wire_counting_sinks(sim, switch, packets)
    return sim, switch, sinks


# ----------------------------------------------------------------- churn


def churn_messages(kind, sequence):
    """The FlowMod(s) for churn step *sequence* (install + windowed delete).

    ``unrelated_table``: adds land in table 3, which the traffic's
    pipeline walk never visits.  ``unrelated_mask``: masked adds land in
    the hot table 0, but under a 172.x prefix no traffic key matches.
    Both are the incremental-reprogramming common case: control-plane
    work that should not disturb the forwarding fast path.
    """
    if kind == "unrelated_table":

        def make(seq):
            return FlowMod(
                table_id=3,
                match=Match(eth_type=0x0800, udp_dst=(seq % 60_000) + 1),
                priority=50,
                instructions=[],
            )

    else:

        def make(seq):
            return FlowMod(
                table_id=0,
                match=Match(
                    eth_type=0x0800,
                    ipv4_dst=((172 << 24) | ((seq % 4096) << 8), 0xFFFFFF00),
                ),
                priority=200,
                instructions=[],
            )

    messages = [make(sequence)]
    if sequence >= CHURN_WINDOW:
        expired = make(sequence - CHURN_WINDOW)
        messages.append(
            FlowMod(
                table_id=expired.table_id,
                command=c.OFPFC_DELETE_STRICT,
                match=expired.match,
                priority=expired.priority,
            )
        )
    return messages


def run_churn(num_flows, packets, kind, policy):
    sim, switch, sinks = build_switch(packets)
    install_exact_flows(switch, num_flows)
    frames = steady_traffic(num_flows, packets, ACTIVE_FLOWS)
    churn_raw = []
    sequence = 0
    for _ in range(packets // CHURN_EVERY):
        churn_raw.append([m.to_bytes() for m in churn_messages(kind, sequence)])
        sequence += 1
    inject = switch.inject
    handle = switch.handle_message
    cache = switch.flow_cache
    flush = policy == "flush"
    churn_mods = 0
    start = time.perf_counter()
    for index, frame in enumerate(frames):
        if index % CHURN_EVERY == 0 and index // CHURN_EVERY < len(churn_raw):
            for raw in churn_raw[index // CHURN_EVERY]:
                handle(raw)
                churn_mods += 1
            if flush:
                cache.invalidate()  # the pre-dependency-index behaviour
        inject(frame, 4)
    sim.run()
    elapsed = time.perf_counter() - start
    delivered = sum(sink.count for sink in sinks)
    assert delivered == packets, f"{kind}/{policy}: {delivered}/{packets} delivered"
    return {
        "kind": kind,
        "policy": policy,
        "flows": num_flows,
        "packets": packets,
        "churn_mods": churn_mods,
        "pps": packets / elapsed,
        "elapsed_s": elapsed,
        "hit_rate": cache.hit_rate,
        "cache": cache.stats(),
    }


# -------------------------------------------------------- masked scaling


def scaling_network(index):
    """Entry *index*'s (network, mask, prefix_len, priority).

    Entries spread round-robin over PREFIX_LENGTHS; within one prefix
    length the networks are laid out disjointly, and priority equals
    the prefix length (longest-prefix-match idiom), so the /24 tier
    always wins for the bench traffic.
    """
    bits = PREFIX_LENGTHS[index % len(PREFIX_LENGTHS)]
    position = index // len(PREFIX_LENGTHS)
    mask = (0xFFFFFFFF << (32 - bits)) & 0xFFFFFFFF
    network = ((10 << 24) | (position << (32 - bits))) & mask
    return network, mask, bits


def build_masked_switch(num_entries, config, packets):
    sim = Simulator()
    switch = SoftSwitch(
        sim,
        "dut",
        datapath_id=1,
        cost_model=ZERO_COST,
        enable_fast_path=(config != "linear"),
        enable_specialization=False,
    )
    if config == "classifier":
        switch.flow_cache = None  # measure the masked tier, not the cache
    sinks = wire_counting_sinks(sim, switch, packets)
    for index in range(num_entries):
        network, mask, bits = scaling_network(index)
        message = FlowMod(
            match=Match(eth_type=0x0800, ipv4_dst=(network, mask)),
            priority=bits,
            instructions=[ApplyActions(actions=(OutputAction(port=index % 3 + 1),))],
        )
        assert switch.handle_message(message.to_bytes()) == []
    drop = FlowMod(match=Match(), priority=0, instructions=[])
    assert switch.handle_message(drop.to_bytes()) == []
    return sim, switch, sinks


def masked_traffic(num_entries, packets):
    """Frames destined to /24 entries spread across the table."""
    targets = [
        index
        for index in range(num_entries)
        if PREFIX_LENGTHS[index % len(PREFIX_LENGTHS)] == 24
    ]
    active = [targets[i * len(targets) // ACTIVE_FLOWS] for i in range(ACTIVE_FLOWS)]
    frames = []
    for index in active:
        network, _, _ = scaling_network(index)
        frames.append(
            udp_frame(
                BENCH_MAC_SRC,
                BENCH_MAC_DST,
                IPv4Address("10.255.0.1"),
                IPv4Address(network | 1),
                1000,
                2000,
                b"x" * 32,
            )
        )
    return [frames[i % len(frames)] for i in range(packets)]


def run_scaling(num_entries, packets, config):
    sim, switch, sinks = build_masked_switch(num_entries, config, packets)
    frames = masked_traffic(num_entries, packets)
    inject = switch.inject
    start = time.perf_counter()
    for frame in frames:
        inject(frame, 4)
    sim.run()
    elapsed = time.perf_counter() - start
    delivered = sum(sink.count for sink in sinks)
    assert delivered == packets, f"{config}@{num_entries}: {delivered}/{packets}"
    table = switch.tables[0]
    return {
        "config": config,
        "masked_entries": num_entries,
        "subtables": table.subtable_count,
        "packets": packets,
        "pps": packets / elapsed,
        "elapsed_s": elapsed,
    }


# ------------------------------------------------------------- reporting


def run_suite(churn_params, scaling_sizes):
    best_churn = {}
    best_scaling = {}
    for _ in range(MEASURE_REPEATS):
        for kind in ("unrelated_table", "unrelated_mask"):
            for policy in ("scoped", "flush"):
                keep_best(
                    best_churn,
                    (kind, policy),
                    run_churn(
                        churn_params["flows"], churn_params["packets"], kind, policy
                    ),
                )
        for num_entries, packets in scaling_sizes.items():
            for config in ("linear", "classifier"):
                keep_best(
                    best_scaling,
                    (num_entries, config),
                    run_scaling(num_entries, packets, config),
                )
    return list(best_churn.values()), list(best_scaling.values())


def render(churn_rows, scaling_rows, mode):
    lines = [
        "=" * 76,
        "CHURN: fast path under sustained control-plane reprogramming",
        "=" * 76,
        f"mode: {mode}; 1 FlowMod per {CHURN_EVERY} packets, "
        f"working set {ACTIVE_FLOWS} flows",
        "",
        f"{'churn kind':>16} {'policy':>7} {'flows':>6} {'mods':>6} "
        f"{'pps':>12} {'hit rate':>9} {'dropped walks':>14}",
    ]
    for row in churn_rows:
        lines.append(
            f"{row['kind']:>16} {row['policy']:>7} {row['flows']:>6} "
            f"{row['churn_mods']:>6} {row['pps']:>12.0f} {format_rate(row['hit_rate'], 9)} "
            f"{row['cache']['paths_dropped']:>14}"
        )
    lines += [
        "",
        "MASKED SCALING: staged subtables vs seed linear scan (no cache)",
        f"{'masked entries':>15} {'subtables':>10} {'linear pps':>12} "
        f"{'classifier pps':>15} {'ratio':>7}",
    ]
    by_size = {}
    for row in scaling_rows:
        by_size.setdefault(row["masked_entries"], {})[row["config"]] = row
    for size in sorted(by_size):
        pair = by_size[size]
        ratio = pair["classifier"]["pps"] / pair["linear"]["pps"]
        lines.append(
            f"{size:>15} {pair['classifier']['subtables']:>10} "
            f"{pair['linear']['pps']:>12.0f} {pair['classifier']['pps']:>15.0f} "
            f"{ratio:>6.1f}x"
        )
    return "\n".join(lines)


def save_json(churn_rows, scaling_rows, mode):
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "bench": "churn",
        "mode": mode,
        "churn": churn_rows,
        "masked_scaling": scaling_rows,
    }
    path = RESULTS_DIR / "churn.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def check_acceptance(churn_rows, scaling_rows):
    """The ISSUE acceptance criteria, asserted on every run."""
    by_case = {(row["kind"], row["policy"]): row for row in churn_rows}
    for kind in ("unrelated_table", "unrelated_mask"):
        scoped = by_case[(kind, "scoped")]
        flush = by_case[(kind, "flush")]
        assert scoped["hit_rate"] > 0.8, (kind, scoped["hit_rate"])
        assert flush["hit_rate"] < 0.3, (kind, flush["hit_rate"])
        assert scoped["cache"]["full_invalidations"] == 0
    sizes = sorted({row["masked_entries"] for row in scaling_rows})
    small, large = sizes[0], sizes[-1]
    pps = {
        (row["config"], row["masked_entries"]): row["pps"] for row in scaling_rows
    }
    classifier_decay = pps[("classifier", large)] / pps[("classifier", small)]
    linear_decay = pps[("linear", large)] / pps[("linear", small)]
    # The staged tier holds its rate as the masked table grows; the
    # linear scan decays roughly with the table size.
    assert classifier_decay > 0.5, classifier_decay
    assert linear_decay < classifier_decay / 2, (linear_decay, classifier_decay)


def test_churn_acceptance():
    """Acceptance: >80% hit rate under churn, bounded masked lookups."""
    churn_rows, scaling_rows = run_suite(SMOKE_CHURN, SMOKE_SCALING)
    check_acceptance(churn_rows, scaling_rows)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true", help="CI smoke: smaller sizes"
    )
    args = parser.parse_args(argv)
    mode = "smoke" if args.fast else "full"
    churn_rows, scaling_rows = run_suite(
        SMOKE_CHURN if args.fast else FULL_CHURN,
        SMOKE_SCALING if args.fast else FULL_SCALING,
    )
    check_acceptance(churn_rows, scaling_rows)
    save_result("churn", render(churn_rows, scaling_rows, mode))
    path = save_json(churn_rows, scaling_rows, mode)
    print(f"JSON archived at {path}")


if __name__ == "__main__":
    main()
