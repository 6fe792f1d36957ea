"""The four benchmark workloads, driven through the library's public API.

Every workload derives all of its inputs (flow 5-tuples, the zipf burst
mix, the churn FlowMod stream, the sweep probe order) from one seed, feeds the
program only generated frames and FlowMods, and checks the program's
outputs after every run.  See README.md in this directory for why each
workload exists and which ROADMAP item it judges.
"""

from __future__ import annotations

import gc
import itertools
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.apps.learning_switch import LearningSwitchApp
from repro.core import HarmlessFleet
from repro.fabric import ShardedFabric, leaf_spine_fabric
from repro.openflow import consts as ofc
from repro.openflow.actions import OutputAction
from repro.openflow.instructions import ApplyActions
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowStatsRequest
from repro.softswitch import DatapathCostModel
from repro.traffic import (
    BurstSource,
    announcement_frame,
    burst_schedule,
    cross_pod_flows,
    interleave_bursts,
    station_mac,
    zipf_weights,
)

ZERO_COST = DatapathCostModel.zero()
#: Frames per coalesced burst, flows per ordered pod pair, zipf skew,
#: payload bytes and flow-train length of the cross-pod mix (the
#: ``bench_fabric`` traffic shape).
BURST_SIZE = 32
FLOWS_PER_PAIR = 4
TRAFFIC_SKEW = 1.0
PAYLOAD_LEN = 32
TRAIN_LEN = 4
#: Offered rate per station; bursts leave BURST_SIZE / rate apart.
STATION_RATE_PPS = 1e6
#: Churn: every CHURN_EVERY-th burst slot, each SS_2 receives one FlowMod.
CHURN_EVERY = 4
#: Priority of the learning switch's forwarding rules.
LEARNED_PRIORITY = LearningSwitchApp().flow_priority
#: First of the locally administered MACs the churn stream installs and
#: deletes; no station or host in any fabric uses this block.
UNUSED_MAC_BASE = 0x06_C0_00_00_00_00
#: Sharded fabrics: trunk propagation (sets the lookahead window) and
#: the number of destination pods per source pod.
SHARDED_TRUNK_PROP_S = 50e-6
SHARDED_PEERS_PER_POD = 8
#: Rollout: simulated RTT (us) of a warm ping between the two fixed
#: detour-probe hosts of the 32-edge, 4-spine fabric under the default
#: ESwitch cost model.  Deterministic; it moves only if the simulated
#: HARMLESS detour (links, trunk, SS_1/SS_2 costs) changes.
DETOUR_PROBE_PINGS = 5
DETOUR_WARMUP_PINGS = 3


@dataclass(frozen=True)
class Scale:
    """Size of one workload."""

    edges: int
    spines: int
    #: Frames injected per measured round (traffic workloads).
    round_frames: int = 0
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int = 3
    shards: int = 1
    hosts_per_edge: int = 1
    #: Hosts pinged by the rollout sweep (all ordered pairs).
    panel: int = 8
    #: Expected detour-probe RTT p50 in us (rollout only; None = unchecked).
    detour_rtt_us: "float | None" = None


SCALES = {
    "steady": Scale(edges=8, spines=1, round_frames=2048, setups=3),
    "churn": Scale(edges=8, spines=1, round_frames=2048, setups=3),
    "rollout": Scale(edges=16, spines=4, setups=9, hosts_per_edge=2, detour_rtt_us=140.7008),
    "sharded": Scale(edges=16, spines=2, round_frames=4096, setups=3, shards=2),
}

#: Small sizes for the benchmark's own tests.
TINY_SCALES = {
    "steady": Scale(edges=3, spines=1, round_frames=192, setups=1),
    "churn": Scale(edges=3, spines=1, round_frames=192, setups=1),
    "rollout": Scale(edges=4, spines=2, setups=1, hosts_per_edge=1, panel=3, detour_rtt_us=95.0752),
    "sharded": Scale(edges=4, spines=2, round_frames=256, setups=1, shards=2),
}


# --------------------------------------------------------------------------
# Public-counter snapshots
# --------------------------------------------------------------------------


def _iter_links(nodes):
    """Every link reachable from *nodes*, once, with its two end ports."""
    seen_nodes, seen_links = set(), set()
    pending = list(nodes)
    while pending:
        node = pending.pop()
        if id(node) in seen_nodes or not hasattr(node, "ports"):
            continue
        seen_nodes.add(id(node))
        for port in node.ports.values():
            link = port.link
            if link is None:
                continue
            key = (id(link.port_a), id(link.port_b))
            if key not in seen_links:
                seen_links.add(key)
                yield link, (link.port_a, link.port_b)
            pending.append(link.other_end(port).node)


def fabric_counters(fabric, fleet) -> Counter:
    """Cumulative public counters of a fabric and its fleet.

    Keys ending in ``_max`` are high-water marks; all others are sums.
    The library offers no way to reset a link's ``queue_hwm``, so
    ``queue_hwm_max`` is the highest queue any link saw since the fabric
    was built, set-up priming traffic included.
    """
    out: Counter = Counter()
    out["sim_events"] = fabric.sim.events_processed
    roots = [site.switch for site in fabric.sites.values()]
    for link, ports in _iter_links(roots):
        for port in ports:
            stats = link.stats(port)
            out["link_frames"] += stats.frames
            out["link_drops"] += stats.drops
            out["queue_hwm_max"] = max(out["queue_hwm_max"], stats.queue_hwm)
    for site in fabric.sites.values():
        out["flood_fallbacks"] += site.switch.fdb.flood_fallbacks
        for host in site.hosts:
            if hasattr(host, "port0"):
                out["host_rx_frames"] += host.port0.rx_frames
    for nodes in fabric.stations.values():
        for node in nodes:
            out["station_rx"] += node.rx_count
    if fleet is None:
        return out
    for deployment in fleet.deployments.values():
        for tag, half in (("ss1", deployment.s4.ss1), ("ss2", deployment.s4.ss2)):
            stats = half.stats()
            spec = stats["specialization"]
            out[f"{tag}_rx"] += sum(port.rx_frames for port in half.ports.values())
            out[f"{tag}_specialized"] += spec["specialized_frames"]
            out[f"{tag}_fallback"] += spec["fallback_frames"]
            out[f"{tag}_unique_keys"] += half.batch_unique_keys
            out["compiles"] += spec["compiles"]
            out["program_invalidations"] += spec["invalidations"]
            cache = stats["cache"]
            if cache is not None:
                out[f"{tag}_cache_hits"] += cache["hits"]
                out[f"{tag}_cache_misses"] += cache["misses"]
    for app in fleet.controller.apps:
        if isinstance(app, LearningSwitchApp):
            out["packet_ins"] += app.packet_ins_handled
            out["flows_installed"] += app.flows_installed
    out["controller_errors"] += len(fleet.controller.errors_received)
    return out


def counter_delta(after: Counter, before: Counter) -> Counter:
    return Counter(
        {
            key: value if key.endswith("_max") else value - before.get(key, 0)
            for key, value in after.items()
        }
    )


def counter_merge(total: Counter, part: Counter) -> None:
    for key, value in part.items():
        if key.endswith("_max"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] += value


# --------------------------------------------------------------------------
# Workload base
# --------------------------------------------------------------------------


@dataclass
class RunRecord:
    """What one run measured, before metrics are derived from it.

    Every timed interval is kept twice: in wall seconds (``*_s``) and in
    reference-host seconds (``*_ref_s``, see :class:`Clock`).
    """

    setup_s: "list[float]" = field(default_factory=list)
    setup_ref_s: "list[float]" = field(default_factory=list)
    #: Per measured round: seconds of its timed region, and frames
    #: delivered inside it.
    round_s: "list[float]" = field(default_factory=list)
    round_ref_s: "list[float]" = field(default_factory=list)
    round_frames: "list[int]" = field(default_factory=list)
    rollout_s: "list[float]" = field(default_factory=list)
    migrate_s_per_switch: "list[float]" = field(default_factory=list)
    switches_in_setup: int = 0
    switches_measured: int = 0
    injected: int = 0
    delivered: int = 0
    probes: int = 0
    probes_lost: int = 0
    sim_rtt_us: "list[float]" = field(default_factory=list)
    #: Reference-loop times (ms): one at the start, one after each
    #: timed segment (see :class:`Clock`).
    calibration_ms: "list[float]" = field(default_factory=list)
    failures: "list[str]" = field(default_factory=list)
    #: Public counters summed over the measured rounds.
    measured: Counter = field(default_factory=Counter)


#: Iterations of the host-speed reference loop.
CALIBRATION_ITERATIONS = 200_000
#: Reference-loop time (ms) of the reference host.  A host on which the
#: loop takes twice as long is taken to run the program at half speed.
REFERENCE_MS = 20.0


def reference_loop_ms() -> float:
    """Time of a fixed pure-Python loop: host speed, not program speed."""
    start = time.perf_counter()
    acc = 0
    for index in range(CALIBRATION_ITERATIONS):
        acc = (acc * 31 + index) & 0xFFFF
    return (time.perf_counter() - start) * 1e3


def wall_clock(action):
    """Run *action*; return its value and its wall seconds, twice."""
    start = time.perf_counter()
    value = action()
    elapsed = time.perf_counter() - start
    return value, elapsed, elapsed


class Clock:
    """Times program work in wall seconds and in reference-host seconds.

    A shared host's own speed drifts, for seconds to minutes at a time, by
    as much as the program's.  So the reference loop is timed after every
    timed segment (outside it), and a segment's reference-host seconds
    are its wall seconds times :data:`REFERENCE_MS` over the mean of the
    loop times just before and just after it.
    """

    def __init__(self, record: RunRecord) -> None:
        self.record = record
        self.host_ms = reference_loop_ms()
        record.calibration_ms.append(self.host_ms)

    def measure(self, action):
        """Run *action* as one segment: ``(value, wall_s, reference_s)``."""
        value, elapsed, _ = wall_clock(action)
        host_ms = reference_loop_ms()
        self.record.calibration_ms.append(host_ms)
        reference_s = elapsed * REFERENCE_MS * 2 / (self.host_ms + host_ms)
        self.host_ms = host_ms
        return value, elapsed, reference_s


class Workload:
    """One workload instance for one seed.

    :meth:`setup` brings the system to the state the measurement starts
    from; :meth:`run_round` runs one measured round and records it;
    :meth:`check` appends failed output checks to the record.
    """

    name = ""

    def __init__(self, scale: Scale, seed: int, tracer=None) -> None:
        self.scale = scale
        self.seed = seed
        self.tracer = tracer
        self.record = RunRecord()
        self.clock = Clock(self.record)
        #: Span summaries of forked workers (traced ``sharded`` runs).
        self.summaries: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, round_id: int) -> None:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the last set-up built."""

    def fail(self, message: str) -> None:
        self.record.failures.append(message)

    def timed_setup(self) -> None:
        """Release the last set-up, collect, and time a fresh one."""
        self.close()
        gc.collect()
        _, wall_s, reference_s = self.clock.measure(self.setup)
        self.record.setup_s.append(wall_s)
        self.record.setup_ref_s.append(reference_s)

    def round_bursts(self, round_id: int, start_s: float):
        """The seeded per-pod bursts of one traffic round, and the frames
        each pod's station must receive."""
        pods = self.scale.edges
        bursts = pod_round_bursts(
            self.flows, pods, self.scale.round_frames, start_s,
            seed=self.seed * 100_003 + round_id,
        )
        return bursts, expected_per_pod(bursts, pods)

    def record_round(self, round_id: int, expected, got, timed, delta) -> None:
        """Book one measured traffic round, timed as ``(wall_s,
        reference_s)``, and fail it unless every station received
        exactly the frames addressed to it."""
        record = self.record
        counter_merge(record.measured, delta)
        injected = sum(expected)
        record.injected += injected
        record.delivered += min(sum(got), injected)
        record.round_s.append(timed[0])
        record.round_ref_s.append(timed[1])
        record.round_frames.append(sum(got))
        if got != expected:
            self.fail(f"round {round_id}: per-station delivery {got} != expected {expected}")

    def timed_rollout(self, fleet, measure=wall_clock) -> "tuple[float, float]":
        """Migrate every wave of *fleet*, recording wall time per switch;
        return the rollout's ``(wall_s, reference_s)``.  *measure* times
        each wave (:meth:`Clock.measure` makes every wave a segment).

        Waves are not swept here; each workload checks reachability once
        the rollout is complete.
        """
        wall_s = reference_s = 0.0
        while not fleet.complete:
            report, wave_s, wave_ref_s = measure(lambda: fleet.migrate_next_wave(verify=False))
            # A ShardedFleet merges its shards' rows into a dict.
            sites = report["migrated"] if isinstance(report, dict) else report.sites
            self.record.migrate_s_per_switch.append(wave_s / max(1, len(sites)))
            wall_s += wave_s
            reference_s += wave_ref_s
        self.record.rollout_s.append(wall_s)
        return wall_s, reference_s


# --------------------------------------------------------------------------
# Cross-pod traffic over a migrated leaf-spine fabric (steady, churn)
# --------------------------------------------------------------------------


def pod_round_bursts(flows, pods: int, frames: int, start_s: float, seed: int):
    """Per-pod zipf burst lists totalling *frames* frames."""
    per_pod = frames // pods
    out = []
    for pod in range(pods):
        specs = [flow.spec for flow in flows if flow.src_pod == pod]
        schedule = burst_schedule(
            rate_pps=STATION_RATE_PPS,
            duration_s=per_pod / STATION_RATE_PPS,
            burst_size=BURST_SIZE,
            start_s=start_s,
        )
        out.append(
            interleave_bursts(
                specs,
                schedule,
                seed=seed * 7919 + pod,
                weights=zipf_weights(len(specs), skew=TRAFFIC_SKEW),
                payload_len=PAYLOAD_LEN,
                train_len=TRAIN_LEN,
            )
        )
    return out


def expected_per_pod(bursts_per_pod, pods: int) -> "list[int]":
    pod_of = {station_mac(pod): pod for pod in range(pods)}
    expected = [0] * pods
    for bursts in bursts_per_pod:
        for _, frames in bursts:
            for frame in frames:
                expected[pod_of[frame.dst]] += 1
    return expected


class FabricTraffic(Workload):
    """``steady``: a fully migrated, primed leaf-spine fabric carrying
    zipf cross-pod bursts over three migrated hops (zero cost model)."""

    name = "steady"

    def setup(self) -> None:
        self.close()
        scale = self.scale
        fabric = leaf_spine_fabric(
            edges=scale.edges,
            spines=scale.spines,
            hosts_per_edge=scale.hosts_per_edge,
            gen_ports_per_edge=1,
            processing_delay_s=0.0,
            host_bandwidth_bps=None,
            trunk_bandwidth_bps=None,
            queue_frames=1_000_000,
        )
        fleet = HarmlessFleet(
            fabric, wave_size=2, cost_model=ZERO_COST, queue_frames=1_000_000
        )
        self.timed_rollout(fleet)
        self.record.switches_in_setup += len(fleet.deployments)
        sweep = fleet.verify_reachability()
        if not sweep.ok:
            self.fail(f"post-rollout sweep: {sweep.describe()}")
        stations = []
        for index, site in enumerate(fabric.edge_sites()):
            station = BurstSource(fabric.sim, f"gen{index}")
            fabric.attach_station(site.name, station, bandwidth_bps=None)
            stations.append(station)
        flows = cross_pod_flows(
            pods=scale.edges, per_pair=FLOWS_PER_PAIR, seed=self.seed
        )
        sim = fabric.sim
        for flow in flows:
            stations[flow.dst_pod].port0.send(announcement_frame(flow.spec))
        sim.run(until=sim.now + 0.5)
        for flow in flows:
            stations[flow.src_pod].port0.send(flow.spec.frame(payload_len=PAYLOAD_LEN))
        sim.run(until=sim.now + 0.5)
        self.fabric, self.fleet, self.stations, self.flows = fabric, fleet, stations, flows

    def close(self) -> None:
        self.fabric = self.fleet = self.stations = None

    def schedule_control(self, bursts_per_pod) -> None:
        """Hook for control-plane load during a round (none here)."""

    def run_round(self, round_id: int) -> None:
        fabric, stations = self.fabric, self.stations
        sim = fabric.sim
        bursts, expected = self.round_bursts(round_id, sim.now + 1e-3)
        rx_before = [station.rx_count for station in stations]
        before = fabric_counters(fabric, self.fleet)

        def inject_and_run():
            for station, station_bursts in zip(stations, bursts):
                station.start(station_bursts)
            self.schedule_control(bursts)
            sim.run()

        _, *timed = self.clock.measure(inject_and_run)
        got = [station.rx_count - base for station, base in zip(stations, rx_before)]
        delta = counter_delta(fabric_counters(fabric, self.fleet), before)
        self.record_round(round_id, expected, got, timed, delta)

    def check(self) -> None:
        measured = self.record.measured
        if self.record.delivered != self.record.injected:
            self.fail(f"delivered {self.record.delivered} of {self.record.injected}")
        if measured["link_drops"]:
            self.fail(f"{measured['link_drops']} link drops")
        if measured["packet_ins"]:
            self.fail(f"{measured['packet_ins']} packet-ins in the measured phase")
        if measured["controller_errors"]:
            self.fail(f"{measured['controller_errors']} OpenFlow errors")


class ChurnTraffic(FabricTraffic):
    """``churn``: the steady traffic while the controller streams
    FlowMods to every SS_2 through its :class:`Datapath` handle."""

    name = "churn"

    def setup(self) -> None:
        super().setup()
        self.streams = [
            self._mod_stream(deployment.datapath, index)
            for index, deployment in enumerate(self.fleet.deployments.values())
        ]
        self.flowmods_sent = 0

    def _live_rules(self, datapath) -> "list[tuple[Match, int]]":
        """The learning switch's installed forwarding rules on one SS_2,
        read back over OpenFlow flow stats."""
        replies = []
        datapath.send_with_reply(FlowStatsRequest(), replies.append)
        sim = self.fabric.sim
        sim.run(until=sim.now + 0.01)
        learned = {}
        for app in self.fleet.controller.apps:
            if isinstance(app, LearningSwitchApp):
                learned = app.tables.get(datapath.dpid, {})
        ports = {Match(eth_dst=int(mac)): port for mac, port in learned.items()}
        rules = [
            (entry.match, ports[entry.match])
            for reply in replies
            for entry in reply.entries
            if entry.priority == LEARNED_PRIORITY and entry.match in ports
        ]
        return sorted(rules, key=lambda rule: str(rule[0]))

    def _mod_stream(self, datapath, index: int):
        """Endless FlowMods for one SS_2: an ADD/DELETE_STRICT pair on an
        unused MAC, then two same-action MODIFY_STRICTs on live rules."""
        live = self._live_rules(datapath)
        rng = random.Random(self.seed * 31 + index)
        rng.shuffle(live)
        live_cycle = itertools.cycle(live)
        out_port = min(datapath.channel.switch.ports)

        def generate():
            for serial in itertools.count():
                match = Match(eth_dst=UNUSED_MAC_BASE + (index << 16) + serial % 0xFFFF)
                yield FlowMod(
                    match=match,
                    instructions=[ApplyActions(actions=(OutputAction(port=out_port),))],
                    priority=LEARNED_PRIORITY,
                )
                yield FlowMod(
                    command=ofc.OFPFC_DELETE_STRICT, match=match, priority=LEARNED_PRIORITY
                )
                for _ in range(2):
                    rule, port = next(live_cycle)
                    yield FlowMod(
                        command=ofc.OFPFC_MODIFY_STRICT,
                        match=rule,
                        instructions=[ApplyActions(actions=(OutputAction(port=port),))],
                        priority=LEARNED_PRIORITY,
                    )

        if not live:
            self.fail(f"{datapath.name}: no live learning-switch rules to modify")
        return generate() if live else iter(())

    def schedule_control(self, bursts_per_pod) -> None:
        sim = self.fabric.sim
        slots = sorted({start for bursts in bursts_per_pod for start, _ in bursts})
        datapaths = [deployment.datapath for deployment in self.fleet.deployments.values()]
        for slot in slots[::CHURN_EVERY]:
            for datapath, stream in zip(datapaths, self.streams):
                message = next(stream, None)
                if message is not None:
                    sim.schedule_at(slot, lambda d=datapath, m=message: d.send(m))
                    self.flowmods_sent += 1

    def check(self) -> None:
        super().check()
        if not self.flowmods_sent:
            self.fail("churn sent no FlowMods")


# --------------------------------------------------------------------------
# Sharded cross-pod traffic (fork workers)
# --------------------------------------------------------------------------


def sharded_build(edges: int, spines: int):
    """The deterministic ``sim -> Fabric`` callable every shard replays."""

    def build(sim):
        fabric = leaf_spine_fabric(
            edges=edges,
            spines=spines,
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


def _staggered(frames_with_pods, base_s: float):
    """One single-frame burst per entry, 2 us apart (tie-free)."""
    per_pod: "dict[int, list]" = {}
    for offset, (pod, frame) in enumerate(frames_with_pods):
        per_pod.setdefault(pod, []).append((base_s + offset * 2e-6, [frame]))
    return per_pod


class ShardedTraffic(Workload):
    """``sharded``: the steady traffic on a fabric split into shards
    that run in forked worker processes."""

    name = "sharded"

    def __init__(self, scale: Scale, seed: int, tracer=None) -> None:
        super().__init__(scale, seed, tracer)
        self.sharded = None

    def setup(self) -> None:
        self.close()
        scale = self.scale
        if self.tracer is not None:
            self.tracer.mark_fork()
        sharded = ShardedFabric(
            sharded_build(scale.edges, scale.spines), shards=scale.shards, backend="fork"
        )
        self.sharded = sharded
        fleet = sharded.fleet(
            record_packet_ins=False, wave_size=4, cost_model=ZERO_COST,
            queue_frames=1_000_000,
        )
        self.timed_rollout(fleet)
        # Worker spans cover only the last set-up (earlier workers exited).
        self.record.switches_in_setup = len(sharded.reference.sites)
        panel = [site.hosts[0].name for site in sharded.reference.edge_sites()][:8]
        sweep = fleet.verify_reachability(host_names=panel)
        if not sweep["ok"]:
            self.fail(f"post-rollout sweep lost {len(sweep['lost'])} pairs")
        names = [site.name for site in sharded.reference.edge_sites()]
        for pod, name in enumerate(names):
            sharded.attach_station(name, f"gen{pod}", bandwidth_bps=None)
        flows = cross_pod_flows(
            pods=scale.edges, per_pair=FLOWS_PER_PAIR, seed=self.seed,
            peers_per_pod=min(SHARDED_PEERS_PER_POD, scale.edges - 1),
        )
        seen = set()
        announce = [
            (flow.dst_pod, announcement_frame(flow.spec))
            for flow in flows
            if not (flow.spec.dst_mac in seen or seen.add(flow.spec.dst_mac))
        ]
        for frames in (
            announce,
            [(flow.src_pod, flow.spec.frame(payload_len=PAYLOAD_LEN)) for flow in flows],
        ):
            base = sharded.stats()["now"] + 1e-3
            for pod, bursts in _staggered(frames, base).items():
                sharded.start_station(names[pod], 0, bursts)
            sharded.run()
        self.names, self.flows = names, flows

    def close(self) -> None:
        if self.sharded is not None:
            self.sharded.close()
            self.sharded = None

    def snapshot(self) -> Counter:
        stats = self.sharded.stats()
        out = Counter(
            {
                key: stats[key]
                for key in (
                    "events_processed", "sync_rounds", "rounds_skipped",
                    "records_exported", "bytes_exchanged", "shadow_drops",
                    "boundary_drops",
                )
            }
        )
        out["sim_events"] = stats["events_processed"]
        for row in stats["per_shard"]:
            out[f"shard{row['shard']}_events"] = row["events_processed"]
        if self.tracer is not None:
            for part in self.sharded.backend.broadcast("bench_probe"):
                counter_merge(out, part)
        return out

    def run_round(self, round_id: int) -> None:
        sharded, pods = self.sharded, self.scale.edges
        if self.tracer is not None:
            sharded.backend.broadcast("bench_set_round", round_id)
        bursts, expected = self.round_bursts(round_id, sharded.stats()["now"] + 1e-3)
        rx_before = sharded.delivered()
        before = self.snapshot()

        def inject_and_run():
            for name, station_bursts in zip(self.names, bursts):
                sharded.start_station(name, 0, station_bursts)
            sharded.run()

        _, *timed = self.clock.measure(inject_and_run)
        rx_after = sharded.delivered()
        got = [
            rx_after[f"gen{pod}"]["rx"] - rx_before[f"gen{pod}"]["rx"] for pod in range(pods)
        ]
        self.record_round(round_id, expected, got, timed, counter_delta(self.snapshot(), before))
        if self.tracer is not None:
            sharded.backend.broadcast("bench_set_round", -1)

    def check(self) -> None:
        if self.tracer is not None:
            self.summaries = self.sharded.backend.broadcast("bench_summary")
        measured = self.record.measured
        if self.record.delivered != self.record.injected:
            self.fail(f"delivered {self.record.delivered} of {self.record.injected}")
        for key in ("shadow_drops", "boundary_drops", "link_drops"):
            if measured[key]:
                self.fail(f"{measured[key]} {key.replace('_', ' ')}")


def worker_probe(worker) -> Counter:
    """Public counters of one shard's owned region (runs in the worker)."""
    counters = fabric_counters(worker.fabric, worker.fleet)
    counters.pop("sim_events", None)
    return counters


# --------------------------------------------------------------------------
# Wave-by-wave rollout of a 32-edge fabric, then a panel ping sweep
# --------------------------------------------------------------------------


class Rollout(Workload):
    """``rollout``: HarmlessFleet migrates a hosts-only fabric wave by
    wave under the default ESwitch cost model, then a host panel runs a
    ping sweep and a fixed host pair measures the simulated detour."""

    name = "rollout"

    def __init__(self, scale: Scale, seed: int, tracer=None) -> None:
        super().__init__(scale, seed, tracer)
        self.fabric = self.fleet = None

    def setup(self) -> None:
        """Build the legacy fabric, plan the waves, and check the legacy
        network answers the panel sweep before anything migrates."""
        self.fabric = leaf_spine_fabric(
            edges=self.scale.edges,
            spines=self.scale.spines,
            hosts_per_edge=self.scale.hosts_per_edge,
        )
        self.fleet = HarmlessFleet(self.fabric)
        sweep = self.fleet.verify_reachability(hosts=self.panel())
        if not sweep.ok:
            self.fail(f"pre-migration sweep: {sweep.describe()}")

    def close(self) -> None:
        self.fabric = self.fleet = None

    def panel(self) -> list:
        """The fixed sweep panel: the first host of evenly spaced edges,
        in a seeded order (the order the probes are sent in)."""
        edges = self.fabric.edge_sites()
        step = max(1, len(edges) // self.scale.panel)
        hosts = [site.hosts[0] for site in edges[::step][: self.scale.panel]]
        random.Random(self.seed).shuffle(hosts)
        return hosts

    def run_round(self, round_id: int) -> None:
        """A rollout and its checks, timed wave by wave; the next round
        starts from a freshly set-up legacy fabric."""
        if self.fleet.migrated_sites:
            self.timed_setup()
        fabric, fleet = self.fabric, self.fleet
        before = fabric_counters(fabric, fleet)
        wall_s, reference_s = self.timed_rollout(fleet, self.clock.measure)
        self.record.switches_measured += len(fleet.deployments)

        def verify():
            problems = fleet.verify_deployments()
            self.record.sim_rtt_us.append(self._detour_probe(round_id))
            return problems, fleet.verify_reachability(hosts=self.panel())

        (problems, sweep), verify_s, verify_ref_s = self.clock.measure(verify)
        if problems:
            self.fail(f"round {round_id}: unhealthy deployments {sorted(problems)}")
        delta = counter_delta(fabric_counters(fabric, fleet), before)
        self.record.probes += sweep.pairs
        self.record.probes_lost += len(sweep.lost)
        if not sweep.ok:
            self.fail(f"round {round_id}: {sweep.describe()}")
        self.record.round_s.append(wall_s + verify_s)
        self.record.round_ref_s.append(reference_s + verify_ref_s)
        self.record.round_frames.append(delta["host_rx_frames"])
        counter_merge(self.record.measured, delta)

    def _detour_probe(self, round_id: int) -> float:
        """p50 simulated RTT (us) of warm pings between the first host of
        the first and of the last edge (the longest detour path)."""
        edges = self.fabric.edge_sites()
        src, dst = edges[0].hosts[0], edges[-1].hosts[0]
        sim = self.fabric.sim
        # The learning switch installs one direction per answered ping;
        # after DETOUR_WARMUP_PINGS both directions run in the data plane.
        for _ in range(DETOUR_WARMUP_PINGS):
            src.ping(dst.ip)
            sim.run(until=sim.now + 0.1)
        results = []
        for _ in range(DETOUR_PROBE_PINGS):
            results.append(src.ping(dst.ip))
            sim.run(until=sim.now + 0.1)
        self.record.probes += len(results)
        lost = sum(result.lost for result in results)
        self.record.probes_lost += lost
        if lost:
            self.fail(f"round {round_id}: {lost} detour probes lost")
            return float("nan")
        return statistics.median(result.rtt for result in results) * 1e6

    def check(self) -> None:
        expected = self.scale.detour_rtt_us
        for rtt in self.record.sim_rtt_us:
            if expected is not None and not abs(rtt - expected) <= 1e-6 * expected:
                self.fail(f"detour RTT {rtt:.6f} us != expected {expected:.6f} us")


WORKLOADS = {
    "steady": FabricTraffic,
    "churn": ChurnTraffic,
    "rollout": Rollout,
    "sharded": ShardedTraffic,
}


def execute(name: str, seed: int, seconds: float = 0.0, rounds: "int | None" = None,
            tracer=None, scale: "Scale | None" = None) -> Workload:
    """Set up *name* ``scale.setups`` times, then run measured rounds
    until *seconds* of wall time have passed (at least one round) or,
    with *rounds*, exactly that many; finally run the output checks.
    """
    workload = WORKLOADS[name](scale or SCALES[name], seed, tracer)
    try:
        for _ in range(workload.scale.setups):
            workload.timed_setup()
        begin = time.perf_counter()
        for round_id in itertools.count(1):
            if tracer is not None:
                tracer.round_id = round_id
            # Every round starts from an empty collector, so a full pass
            # over the set-up heap does not land in some rounds only; the
            # collections the round's own garbage triggers stay timed.
            gc.collect()
            workload.run_round(round_id)
            if tracer is not None:
                tracer.round_id = -1
            if rounds is not None:
                if round_id >= rounds:
                    break
            elif time.perf_counter() - begin >= seconds:
                break
        workload.check()
    finally:
        workload.close()
    return workload
