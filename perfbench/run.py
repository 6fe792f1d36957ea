"""Repository benchmark: four fabric workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the program unmodified and reports the end-to-end
metrics; ``--trace 1`` runs the same workload with span wrappers on
every layer's public entry points and reports the per-layer metrics.
The second-to-last output line is the full run record (every metric,
``null`` where a ratio has no data, the output checks, the host-speed
calibration); the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Metric names, units and bounds; the result line carries exactly
#: the ``end_to_end`` metrics (untraced) or the ``per_layer`` ones (traced).
SPEC_PATH = ROOT / "BENCHMARK.json"


def ratio(numerator, denominator) -> "float | None":
    return numerator / denominator if denominator else None


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def delivered_pps(record, round_seconds=None) -> "float | None":
    """Frames delivered per second over all measured rounds: reference-host
    seconds unless *round_seconds* gives other per-round times.

    A total, not a per-round median: garbage-collector passes land in
    some rounds and not others, and their cost belongs to the program.
    """
    if round_seconds is None:
        round_seconds = record.round_ref_s
    return ratio(sum(record.round_frames), sum(round_seconds))


def attempts(workload) -> "tuple[int, int]":
    """(attempted, failed): frames or probes, plus one per failed check."""
    record = workload.record
    if workload.name == "rollout":
        attempted, lost = record.probes, record.probes_lost
    else:
        attempted, lost = record.injected, record.injected - record.delivered
    failed = min(attempted, lost + len(record.failures))
    return max(attempted, 1), failed


def end_to_end(workload) -> dict:
    record = workload.record
    return {
        "setup_s": statistics.median(record.setup_ref_s),
        "peak_rss_mb": peak_rss_mb(),
        "delivered_pps": delivered_pps(record),
        "wall_setup_s": statistics.median(record.setup_s),
        "wall_delivered_pps": delivered_pps(record, record.round_s),
        "rollout_s": statistics.median(record.rollout_s) if record.rollout_s else None,
        "migrate_ms_p50": (
            statistics.median(record.migrate_s_per_switch) * 1e3
            if record.migrate_s_per_switch
            else None
        ),
    }


def quality(workload) -> dict:
    record = workload.record
    attempted, failed = attempts(workload)
    rollout = workload.name == "rollout"
    return {
        "undelivered_ratio": None if rollout else failed / attempted,
        "probe_loss_ratio": failed / attempted if rollout else None,
        "sim_rtt_us_p50": statistics.median(record.sim_rtt_us) if record.sim_rtt_us else None,
    }


def per_layer(workload, measured: dict, setup: dict) -> dict:
    """Per-layer metrics from span summaries and public-counter deltas."""
    from layer_trace import SpanStats, layer_self_s

    record = workload.record
    counters = record.measured
    empty = SpanStats()

    def span(name, phase=measured):
        return phase.get(name, empty)

    layers = layer_self_s(measured)
    frames = record.delivered + counters["host_rx_frames"]
    rollout = workload.name == "rollout"
    bringup = measured if rollout else setup
    bringup_layers = layer_self_s(bringup)
    switches = record.switches_measured if rollout else record.switches_in_setup
    sweep = span("core.sweep", bringup)
    handle = span("control.handle_message")
    shard_events = [
        value for key, value in counters.items()
        if key.startswith("shard") and key.endswith("_events")
    ]
    ss2_lookups = counters["ss2_cache_hits"] + counters["ss2_cache_misses"]
    return {
        "net.frames_built_per_frame": ratio(span("net.frame_init").calls, frames),
        "net.vlan_ops_per_frame": ratio(span("net.vlan").calls, frames),
        "net.codec_calls_per_frame": ratio(span("net.codec").calls, frames),
        "net.wire_length_calls_per_frame": ratio(span("net.wire_length").calls, frames),
        "net.self_us_per_frame": ratio(layers.get("net", 0.0) * 1e6, frames),
        "netsim.events_per_frame": ratio(counters["sim_events"], frames),
        "netsim.frames_per_link_event": ratio(span("netsim.link").units, span("netsim.link").calls),
        "netsim.link_self_us_per_frame": ratio(span("netsim.link").self_s * 1e6, frames),
        "netsim.sim_self_us_per_frame": ratio(span("netsim.sim").self_s * 1e6, frames),
        "netsim.queue_hwm_max": counters["queue_hwm_max"],
        "netsim.link_drops": counters["link_drops"],
        "legacy.receive_calls_per_frame": ratio(span("legacy.receive").calls, frames),
        "legacy.self_us_per_frame": ratio(layers.get("legacy", 0.0) * 1e6, frames),
        "legacy.flood_fallbacks": counters["flood_fallbacks"],
        "softswitch.ss1_self_us_per_frame": ratio(span("softswitch.ss1").self_s * 1e6, frames),
        "softswitch.ss2_self_us_per_frame": ratio(span("softswitch.ss2").self_s * 1e6, frames),
        "softswitch.ss1_compiled_share": ratio(counters["ss1_specialized"], counters["ss1_rx"]),
        "softswitch.ss2_compiled_share": ratio(counters["ss2_specialized"], counters["ss2_rx"]),
        "softswitch.interp_lookups": ss2_lookups,
        "softswitch.interp_cache_hit_rate": ratio(counters["ss2_cache_hits"], ss2_lookups),
        "softswitch.compiles": counters["compiles"],
        "softswitch.program_invalidations": counters["program_invalidations"],
        "softswitch.unique_keys_per_frame": ratio(counters["ss2_unique_keys"], frames),
        "control.flowmods": span("control.send").units,
        "control.packet_ins": counters["packet_ins"],
        "control.self_us_per_frame": ratio(layers.get("control", 0.0) * 1e6, frames),
        "control.handle_message_us_p50": (
            handle.median_s() * 1e6 if handle.durations else None
        ),
        "control.app_us_per_packet_in": ratio(
            span("control.app").total_s * 1e6, span("control.app").calls
        ),
        "snmp.requests_per_switch": ratio(span("snmp.handle", bringup).calls, switches),
        "snmp.self_ms_per_switch": ratio(bringup_layers.get("snmp", 0.0) * 1e3, switches),
        "mgmt.self_ms_per_switch": ratio(bringup_layers.get("mgmt", 0.0) * 1e3, switches),
        "core.migrate_self_ms_per_switch": ratio(
            span("core.migrate", bringup).self_s * 1e3, switches
        ),
        "core.sweep_s": ratio(sweep.total_s, sweep.calls),
        "sharded.sync_rounds": counters["sync_rounds"],
        "sharded.rounds_skipped": counters["rounds_skipped"],
        "sharded.records_exported": counters["records_exported"],
        "sharded.bytes_exchanged": counters["bytes_exchanged"],
        "sharded.event_imbalance": (
            max(shard_events) / statistics.mean(shard_events)
            if shard_events and sum(shard_events)
            else 1.0
        ),
        "sharded.shadow_drops": counters["shadow_drops"],
        "traced.delivered_pps": delivered_pps(record),
    }


def deterministic_counters(workload) -> dict:
    """Counters that must repeat exactly for a fixed seed and round count,
    traced or not (public counters only)."""
    record = workload.record
    keys = (
        "sim_events", "link_frames", "compiles", "program_invalidations",
        "ss1_specialized", "ss2_specialized", "ss1_fallback", "ss2_fallback",
        "packet_ins", "flows_installed", "sync_rounds", "rounds_skipped",
        "records_exported", "bytes_exchanged",
    )
    out = {key: record.measured[key] for key in keys if key in record.measured}
    out.update(
        injected=record.injected,
        delivered=record.delivered,
        probes=record.probes,
        round_frames=list(record.round_frames),
        switches=record.switches_measured or record.switches_in_setup,
        flowmods=getattr(workload, "flowmods_sent", 0),
    )
    return out


def trace_counts(measured: dict, setup: dict) -> dict:
    """Call and unit counts per span name (deterministic for a fixed seed)."""
    return {
        phase: {name: (stats.calls, stats.units) for name, stats in sorted(summary.items())}
        for phase, summary in (("setup", setup), ("measured", measured))
    }


def run(name: str, seed: int, seconds: float = 0.0, trace: bool = False,
        rounds: "int | None" = None, scale=None) -> dict:
    """One benchmark run; returns the full record (metrics may be None)."""
    from layer_trace import Tracer, install_layer_spans, merge_summaries
    from workloads import execute, worker_probe

    tracer = None
    if trace:
        tracer = Tracer()
        install_layer_spans(tracer, worker_probe)
    try:
        workload = execute(name, seed, seconds=seconds, rounds=rounds, tracer=tracer, scale=scale)
    finally:
        if tracer is not None:
            tracer.restore()
    record = workload.record
    attempted, failed = attempts(workload)
    calibration = statistics.median(record.calibration_ms)
    out = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "rounds": len(record.round_s),
        "calibration_ms": calibration,
        "checks_failed": list(record.failures),
        "attempted": attempted,
        "failed": failed,
        "counters": deterministic_counters(workload),
    }
    if trace:
        parts = workload.summaries
        measured = merge_summaries([tracer.summary(True)] + [part["measured"] for part in parts])
        setup = merge_summaries([tracer.summary(False)] + [part["setup"] for part in parts])
        metrics = per_layer(workload, measured, setup)
        metrics["host.calibration_ms"] = calibration
        out["metrics"] = metrics
        out["trace_counts"] = trace_counts(measured, setup)
        out["spans"] = tracer.spans
    else:
        out["metrics"] = {**end_to_end(workload), **quality(workload)}
    return out


def result_line(record: dict) -> dict:
    """The driver-facing result object: numbers only, one per listed metric."""
    spec = json.loads(SPEC_PATH.read_text())
    metrics = {}
    for declared in spec["per_layer" if record["trace"] else "end_to_end"]:
        name = declared["name"]
        value = record["metrics"].get(name)
        if value is None:
            raise RuntimeError(f"{name} has no data on {record['workload']}")
        metrics[name] = {"value": value, "unit": declared["unit"]}
    return {
        "correct": not record["checks_failed"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("steady", "churn", "rollout", "sharded")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(pathlib.Path(__file__).resolve().parent)]
    record = run(args.workload, args.seed, seconds=args.seconds, trace=bool(args.trace))
    line = result_line(record)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
