"""FABRIC — aggregate throughput of a fully migrated multi-switch fabric.

Every other bench measures one switch; this one measures the *network*:
a leaf-spine fabric of legacy edge switches is migrated wave by wave by
the :class:`HarmlessFleet`, one traffic station is attached per edge
pod, and a zipf-weighted cross-pod burst mix is pushed through the
fabric.  Every frame crosses three migrated hops (source edge S4 ->
spine S4 -> destination edge S4), each hop re-coalescing the burst
(legacy egress buffering -> trunk -> ``SoftSwitch.process_batch``), so
the whole PR 1-4 stack — burst pipeline, microflow cache and the SS_1
compiled tier — is exercised per hop.

Reported per fabric size (2/4/8 edge switches):

* ``pps`` — aggregate frames delivered per wall-clock second (median
  across ``MEASURE_REPEATS`` passes; gated by ``check_regression.py``
  against ``baselines/fabric.json``);
* ``ss1_compiled_share`` / ``ss2_compiled_share`` — per hop half, the
  share of frames received in the measured run that the compiled tier 0
  served (``specialized_frames`` over port rx, from
  ``stats()["specialization"]``; machine-independent, gated absolutely);
* ``interp_hit_rate`` — SS_2 microflow-cache hit rate over the lookups
  the interpreted tier made in the measured run, ``None`` (no data)
  when tier 0 served every frame; recorded, not gated;
* ``packet_ins_migration`` / ``packet_ins_steady`` — controller load
  while the fleet migrates + primes vs during the measured run (the
  steady number should stay ~0: reactive installs happen once).

Run standalone: ``PYTHONPATH=src python benchmarks/bench_fabric.py
[--fast]`` — ``--fast`` is the CI smoke mode.

``--shards N`` switches to the **sharded** suite instead: the fabric is
partitioned at pod boundaries (:mod:`repro.fabric.partition`) and run
as N parallel per-shard event loops in forked worker processes with
the v2 conservative-lookahead sync (skip-ahead rounds, coalesced
boundary pickles, slimmed foreign replicas).  Results land in a
separate artefact (``results/fabric_sharded.json``, gated against
``baselines/fabric_sharded.json``).  Full mode runs the scaling sweep
— every shard count in {1, 2, 4} up to N on every fabric size in
``SHARDED_FULL_SIZES`` (64/128/256 edges) — and reports
``speedup_vs_1shard`` per multi-shard row plus the v2 sync counters
(rounds, skipped rounds, records/bytes exchanged, stubbed sites).
``--edges E`` / ``--packets P`` pin a single configuration instead
(the nightly 4-shard 128-edge smoke uses this).  Note the speedup is
only meaningful on a multi-core machine — the sync protocol is the
same regardless, so single-core CI still exercises the full code
path, just without parallel gain.
"""

import json
import statistics
import time

from repro.core import HarmlessFleet
from repro.fabric import leaf_spine_fabric
from repro.softswitch import DatapathCostModel
from repro.traffic import (
    BurstSource,
    announcement_frame,
    burst_schedule,
    cross_pod_flows,
    interleave_bursts,
    zipf_weights,
)

from common import MEASURE_REPEATS, RESULTS_DIR, format_rate, save_result

#: Edge-switch counts per mode -> frames measured per run.
FULL_SIZES = {2: 12_000, 4: 12_000, 8: 12_000}
SMOKE_SIZES = {2: 4_000, 4: 4_000}

#: Sharded-suite sizes (the tentpole scale: 64-256 switches).  Full
#: mode sweeps every size x every shard count in {1, 2, 4} up to
#: ``--shards``; packet counts are sized for the single-core CI runner.
SHARDED_FULL_SIZES = {64: 24_000, 128: 24_000, 256: 24_000}
SHARDED_SMOKE_SIZES = {16: 8_000, 24: 8_000}
#: Destination pods each source pod targets in the sharded mix
#: (all-pairs is quadratic at 64 pods; 8 peers saturates every trunk).
SHARDED_PEERS_PER_POD = 8

#: Frames per coalesced burst (the PR 3/4 sweet spot).
BURST_SIZE = 32
#: Distinct 5-tuples per ordered pod pair.
FLOWS_PER_PAIR = 4
#: Zipf skew of the cross-pod mix.
TRAFFIC_SKEW = 1.0

ZERO_COST = DatapathCostModel.zero()


def build_fabric(edges: int):
    """A fully migrated leaf-spine fabric with one station per pod."""
    fabric = leaf_spine_fabric(
        edges=edges,
        spines=1,
        hosts_per_edge=1,
        gen_ports_per_edge=1,
        processing_delay_s=0.0,
        host_bandwidth_bps=None,
        trunk_bandwidth_bps=None,
        queue_frames=1_000_000,
    )
    fleet = HarmlessFleet(
        fabric,
        wave_size=2,
        cost_model=ZERO_COST,
        queue_frames=1_000_000,
    )
    fleet.migrate_all(verify=True, strict=True)
    stations = []
    for index, site in enumerate(fabric.edge_sites()):
        station = BurstSource(fabric.sim, f"gen{index}")
        fabric.attach_station(site.name, station, bandwidth_bps=None)
        stations.append(station)
    return fabric, fleet, stations


def prime(fabric, fleet, stations, flows) -> None:
    """Announce every destination, then run one frame per flow.

    After this, every SS_2 on every path holds the reactive flow rules
    and the measured run is pure data plane (steady state).
    """
    sim = fabric.sim
    for flow in flows:
        stations[flow.dst_pod].port0.send(announcement_frame(flow.spec))
    sim.run(until=sim.now + 0.5)
    for flow in flows:
        stations[flow.src_pod].port0.send(flow.spec.frame(payload_len=32))
    sim.run(until=sim.now + 0.5)


def pod_bursts(stations, flows, packets: int, start_s: float):
    """Per-pod zipf burst schedules totalling *packets* frames."""
    pods = len(stations)
    per_pod = packets // pods
    all_bursts = []
    for pod in range(pods):
        specs = [flow.spec for flow in flows if flow.src_pod == pod]
        schedule = burst_schedule(
            rate_pps=1e6,
            duration_s=per_pod / 1e6,
            burst_size=BURST_SIZE,
            start_s=start_s,
        )
        bursts = interleave_bursts(
            specs,
            schedule,
            seed=pod,
            weights=zipf_weights(len(specs), skew=TRAFFIC_SKEW),
            payload_len=32,
            train_len=4,
        )
        all_bursts.append(bursts)
    return all_bursts


def tier_counters(fleet) -> "dict[str, int]":
    """Cumulative tier counters summed over every migrated S4.

    ``<half>_rx`` / ``<half>_specialized`` are the frames each hop half
    received and the ones its compiled tier 0 served; ``lookups`` and
    ``hits`` are the SS_2 microflow-cache lookups the interpreter made.
    """
    totals = dict.fromkeys(
        ("ss1_rx", "ss1_specialized", "ss2_rx", "ss2_specialized", "lookups", "hits"), 0
    )
    for deployment in fleet.deployments.values():
        for half_name, half in (("ss1", deployment.s4.ss1), ("ss2", deployment.s4.ss2)):
            stats = half.stats()
            totals[f"{half_name}_rx"] += sum(port.rx_frames for port in half.ports.values())
            totals[f"{half_name}_specialized"] += stats["specialization"]["specialized_frames"]
            if half_name == "ss2":
                totals["hits"] += stats["cache"]["hits"]
                totals["lookups"] += stats["cache"]["hits"] + stats["cache"]["misses"]
    return totals


def ratio(numerator: int, denominator: int) -> "float | None":
    """A fraction, or None (no data) over an empty denominator."""
    return numerator / denominator if denominator else None


def run_one(edges: int, packets: int) -> dict:
    fabric, fleet, stations = build_fabric(edges)
    sim = fabric.sim
    app = fleet.controller.apps[0]
    flows = cross_pod_flows(pods=edges, per_pair=FLOWS_PER_PAIR, seed=edges)
    prime(fabric, fleet, stations, flows)
    packet_ins_migration = app.packet_ins_handled

    bursts_per_pod = pod_bursts(stations, flows, packets, start_s=sim.now + 1e-3)
    injected = sum(
        len(frames) for bursts in bursts_per_pod for _, frames in bursts
    )
    rx_before = sum(station.rx_count for station in stations)
    before = tier_counters(fleet)

    start = time.perf_counter()
    for station, bursts in zip(stations, bursts_per_pod):
        station.start(bursts)
    sim.run()
    elapsed = time.perf_counter() - start

    delivered = sum(station.rx_count for station in stations) - rx_before
    assert delivered == injected, f"edges={edges}: {delivered}/{injected}"
    after = tier_counters(fleet)
    delta = {key: after[key] - before[key] for key in after}
    return {
        "config": "leaf-spine",
        "edges": edges,
        "hops": 3,
        "packets": injected,
        "pps": injected / elapsed,
        "elapsed_s": elapsed,
        "ss1_compiled_share": ratio(delta["ss1_specialized"], delta["ss1_rx"]),
        "ss2_compiled_share": ratio(delta["ss2_specialized"], delta["ss2_rx"]),
        "interp_hit_rate": ratio(delta["hits"], delta["lookups"]),
        "packet_ins_migration": packet_ins_migration,
        "packet_ins_steady": app.packet_ins_handled - packet_ins_migration,
    }


def run_suite(sizes: dict) -> list:
    samples: "dict[int, list[dict]]" = {}
    for _ in range(MEASURE_REPEATS):
        for edges, packets in sizes.items():
            samples.setdefault(edges, []).append(run_one(edges, packets))
    rows = []
    for edges, runs in sorted(samples.items()):
        row = dict(runs[0])
        row["pps"] = statistics.median(run["pps"] for run in runs)
        row.pop("elapsed_s")
        rows.append(row)
    return rows


def render(rows: list, mode: str) -> str:
    lines = [
        "=" * 76,
        "FABRIC: aggregate pps across a fully migrated leaf-spine fabric",
        "=" * 76,
        f"mode: {mode}; burst {BURST_SIZE}, {FLOWS_PER_PAIR} flows/pod-pair, "
        "3 migrated hops per frame",
        "",
        f"{'edges':>6} {'pkts':>7} {'pps':>12} {'ss1 compiled':>13} "
        f"{'ss2 compiled':>13} {'interp hit':>11} "
        f"{'pkt-ins (mig)':>14} {'pkt-ins (steady)':>17}",
    ]
    for row in rows:
        lines.append(
            f"{row['edges']:>6} {row['packets']:>7} {row['pps']:>12.0f} "
            f"{format_rate(row['ss1_compiled_share'], 13)} "
            f"{format_rate(row['ss2_compiled_share'], 13)} "
            f"{format_rate(row['interp_hit_rate'], 11)} "
            f"{row['packet_ins_migration']:>14} {row['packet_ins_steady']:>17}"
        )
    return "\n".join(lines)


def save_json(rows: list, mode: str):
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {"bench": "fabric", "mode": mode, "rows": rows}
    path = RESULTS_DIR / "fabric.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


# --------------------------------------------------------------------------
# Sharded suite (--shards N): parallel per-pod event loops
# --------------------------------------------------------------------------


def sharded_spines(edges: int) -> int:
    """Spine count for the sharded fabrics — fixed per edge count (so
    shards=1 and shards=N time the *same* topology), one spine per 8
    edges, floor 2 so a 2-shard partition always exists."""
    return max(2, edges // 8)


#: Trunk propagation in the sharded fabrics.  The lookahead window (==
#: min cut-link propagation) bounds how far shards run between sync
#: barriers; 50 us models long inter-pod trunks (~10 km fiber) and keeps
#: the barrier rate low.  Identical for every shard count, so the
#: speedup comparison stays apples-to-apples.
SHARDED_TRUNK_PROP_S = 50e-6


def make_sharded_build(edges: int):
    """The deterministic ``sim -> Fabric`` callable every shard replays."""

    def build(sim):
        fabric = leaf_spine_fabric(
            edges=edges,
            spines=sharded_spines(edges),
            hosts_per_edge=1,
            gen_ports_per_edge=1,
            processing_delay_s=0.0,
            host_bandwidth_bps=None,
            trunk_bandwidth_bps=None,
            queue_frames=1_000_000,
            sim=sim,
        )
        for link in fabric.trunk_links:
            link.propagation_delay_s = SHARDED_TRUNK_PROP_S
        return fabric

    return build


def sharded_panel(edges: int) -> "list[str]":
    """Host names for the post-migration sanity sweep.

    All-pairs reachability is quadratic in hosts and each ARP floods
    the whole fabric, so the sweep probes a fixed panel of <= 8 hosts
    instead: one edge per evenly spaced spine, which spreads the panel
    across every shard cluster (clusters are contiguous spine-chain
    arcs, and edge *s* homes onto spine *s*).
    """
    spines = sharded_spines(edges)
    chosen = []
    for index in range(8):
        spine = 1 + round(index * (spines - 1) / 7)
        if spine not in chosen:
            chosen.append(spine)
    return [f"edge{spine}-h1" for spine in chosen]


def _staggered_singles(frames_with_pods, base_s: float):
    """One single-frame burst per entry, 2 us apart (no same-instant
    injections, so shard runs stay tie-free)."""
    per_pod: "dict[int, list]" = {}
    for offset, (pod, frame) in enumerate(frames_with_pods):
        per_pod.setdefault(pod, []).append((base_s + offset * 2e-6, [frame]))
    return per_pod


def run_one_sharded(edges: int, packets: int, shards: int) -> dict:
    from repro.fabric import ShardedFabric

    build = make_sharded_build(edges)
    backend = "fork" if shards > 1 else "thread"
    with ShardedFabric(build, shards=shards, backend=backend) as sharded:
        fleet = sharded.fleet(
            record_packet_ins=False,
            wave_size=4,
            cost_model=ZERO_COST,
            queue_frames=1_000_000,
        )
        fleet.migrate_all(verify=False)
        sweep = fleet.verify_reachability(host_names=sharded_panel(edges))
        assert sweep["ok"], f"edges={edges} shards={shards}: {sweep['lost'][:5]}"

        edge_names = [site.name for site in sharded.reference.edge_sites()]
        for pod, name in enumerate(edge_names):
            sharded.attach_station(name, f"gen{pod}", bandwidth_bps=None)
        flows = cross_pod_flows(
            pods=edges,
            per_pair=FLOWS_PER_PAIR,
            seed=edges,
            peers_per_pod=min(SHARDED_PEERS_PER_POD, edges - 1),
        )

        # Prime: announce every destination, then one frame per flow —
        # after this the measured run is pure data plane, as in the
        # single-process suite.  Announcements are deduped per station
        # MAC (all flows into a pod share it): each one floods the
        # whole fabric, which dominates prime time at 256 edges.
        base = sharded.stats()["now"]
        seen_macs = set()
        unique_dst = [
            flow
            for flow in flows
            if not (
                flow.spec.dst_mac in seen_macs or seen_macs.add(flow.spec.dst_mac)
            )
        ]
        announcements = _staggered_singles(
            [
                (flow.dst_pod, announcement_frame(flow.spec))
                for flow in unique_dst
            ],
            base + 1e-3,
        )
        for pod, bursts in announcements.items():
            sharded.start_station(edge_names[pod], 0, bursts)
        sharded.run()
        base = sharded.stats()["now"]
        warmup = _staggered_singles(
            [(flow.src_pod, flow.spec.frame(payload_len=32)) for flow in flows],
            base + 1e-3,
        )
        for pod, bursts in warmup.items():
            sharded.start_station(edge_names[pod], 0, bursts)
        sharded.run()

        samples = []
        injected_total = 0
        for _ in range(MEASURE_REPEATS):
            start_s = sharded.stats()["now"] + 1e-3
            # pod_bursts only reads len() of its first argument.
            bursts_per_pod = pod_bursts(edge_names, flows, packets, start_s)
            injected = sum(
                len(frames)
                for bursts in bursts_per_pod
                for _, frames in bursts
            )
            rx_before = sum(
                row["rx"] for row in sharded.delivered().values()
            )
            start = time.perf_counter()
            for name, bursts in zip(edge_names, bursts_per_pod):
                sharded.start_station(name, 0, bursts)
            sharded.run()
            elapsed = time.perf_counter() - start
            delivered = (
                sum(row["rx"] for row in sharded.delivered().values())
                - rx_before
            )
            assert delivered == injected, (
                f"edges={edges} shards={shards}: {delivered}/{injected}"
            )
            samples.append(injected / elapsed)
            injected_total += injected
        stats = sharded.stats()
        assert stats["shadow_drops"] == 0
    return {
        "config": "leaf-spine-sharded",
        "edges": edges,
        "spines": sharded_spines(edges),
        "shards": shards,
        "backend": backend,
        "packets": injected_total // MEASURE_REPEATS,
        "pps": statistics.median(samples),
        "sync_rounds": stats["sync_rounds"],
        "rounds_skipped": stats["rounds_skipped"],
        "frames_exported": stats["frames_exported"],
        "records_exported": stats["records_exported"],
        "bytes_exchanged": stats["bytes_exchanged"],
        "stub_sites": stats["stub_sites"],
        "stub_hosts": stats["stub_hosts"],
    }


def run_sharded_suite(sizes: dict, shards: int, sweep_counts: bool):
    """One row per (edges, shard count).

    *sweep_counts* runs every shard count in {1, 2, 4} up to *shards*
    on each fabric size (the scaling sweep) and annotates every
    multi-shard row with ``speedup_vs_1shard``; otherwise only
    *shards* itself is measured.
    """
    rows = []
    for edges, packets in sorted(sizes.items()):
        if sweep_counts:
            counts = sorted({c for c in (1, 2, 4) if c < shards} | {shards})
        else:
            counts = [shards]
        baseline_pps = None
        for count in counts:
            row = run_one_sharded(edges, packets, count)
            if count == 1:
                baseline_pps = row["pps"]
            elif baseline_pps:
                row["speedup_vs_1shard"] = row["pps"] / baseline_pps
            rows.append(row)
    return rows


def render_sharded(rows: list, mode: str) -> str:
    lines = [
        "=" * 76,
        "FABRIC-SHARDED: parallel per-pod event loops, "
        "conservative-lookahead sync",
        "=" * 76,
        f"mode: {mode}; burst {BURST_SIZE}, {FLOWS_PER_PAIR} flows/pod-pair, "
        f"<= {SHARDED_PEERS_PER_POD} peer pods/source, fork workers",
        "",
        f"{'edges':>6} {'shards':>7} {'pkts':>7} {'pps':>10} "
        f"{'rounds':>7} {'skipped':>8} {'exported':>9} {'KiB xchg':>9} "
        f"{'stubs':>6} {'speedup':>8}",
    ]
    for row in rows:
        speedup = (
            f"{row['speedup_vs_1shard']:>7.2f}x"
            if "speedup_vs_1shard" in row
            else f"{'-':>8}"
        )
        lines.append(
            f"{row['edges']:>6} {row['shards']:>7} {row['packets']:>7} "
            f"{row['pps']:>10.0f} {row['sync_rounds']:>7} "
            f"{row['rounds_skipped']:>8} {row['frames_exported']:>9} "
            f"{row['bytes_exchanged'] / 1024:>9.0f} {row['stub_sites']:>6} "
            f"{speedup}"
        )
    return "\n".join(lines)


def save_json_sharded(rows: list, mode: str):
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {"bench": "fabric_sharded", "mode": mode, "rows": rows}
    path = RESULTS_DIR / "fabric_sharded.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true", help="CI smoke: small fabrics only"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="run the sharded suite with N parallel shard workers "
        "(writes results/fabric_sharded.json instead of fabric.json); "
        "full mode sweeps every shard count in {1,2,4} up to N",
    )
    parser.add_argument(
        "--edges",
        type=int,
        default=None,
        metavar="E",
        help="sharded suite only: run a single fabric size of E edge "
        "switches instead of the mode's size table",
    )
    parser.add_argument(
        "--packets",
        type=int,
        default=None,
        metavar="P",
        help="sharded suite only: frames per measured pass (default: "
        "the mode's table value, or 8000 with --edges in smoke mode)",
    )
    args = parser.parse_args(argv)
    mode = "smoke" if args.fast else "full"
    if args.shards is None and (args.edges or args.packets):
        parser.error("--edges/--packets need --shards")
    if args.shards is not None:
        if args.shards < 1:
            parser.error("--shards must be >= 1")
        if args.edges is not None:
            packets = args.packets or (8_000 if args.fast else 24_000)
            sizes = {args.edges: packets}
        else:
            sizes = dict(SHARDED_SMOKE_SIZES if args.fast else SHARDED_FULL_SIZES)
            if args.packets is not None:
                sizes = {edges: args.packets for edges in sizes}
        rows = run_sharded_suite(sizes, args.shards, sweep_counts=not args.fast)
        save_result("fabric_sharded", render_sharded(rows, mode=mode))
        path = save_json_sharded(rows, mode=mode)
    else:
        rows = run_suite(SMOKE_SIZES if args.fast else FULL_SIZES)
        save_result("fabric", render(rows, mode=mode))
        path = save_json(rows, mode=mode)
    print(f"JSON archived at {path}")


if __name__ == "__main__":
    main()
