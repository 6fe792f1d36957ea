"""Partitioning a fabric into shards, and the harness that runs them.

The :mod:`repro.netsim.sharded` engine gives us parallel event loops
with conservative-lookahead sync; this module supplies the fabric-level
pieces:

* :func:`partition_fabric` — decide which sites each shard owns.  The
  topology builders already encode locality (pods): a *cluster* is a
  non-pod anchor switch (spine, distribution) plus the pod sites homed
  onto it — or a lone pod site where no anchor exists (rings).
  Clusters are assigned to shards contiguously, so the cut set is the
  small set of anchor-to-anchor trunks (spine chain, dist-to-core,
  ring section joints), never the fat edge-to-anchor bundles.
* :class:`ShardWorker` — one shard's replica.  Every worker
  deterministically rebuilds the *identical* fabric topology on its
  own :class:`~repro.netsim.sharded.ShardSimulator`, severs the cut
  trunks into boundary proxies, and then drives only the sites it
  owns: its fleet replica migrates only owned switches, its stations
  transmit only from owned pods, its reachability probes source only
  from owned hosts.  Foreign regions of the replica receive no traffic
  (the fabrics are trees, so the cut separates them), they merely keep
  names, port numbers and wave structure aligned across shards — so by
  default they are built *slimmed* (see
  :func:`repro.fabric.topology.slim_replica_build`): real switches for
  the identity-bearing geometry, stubs in place of the foreign hosts,
  host links and management planes a worker provably never exercises.
* :class:`ShardedFabric` / :class:`ShardedFleet` — the user-facing
  facade: build once, choose ``backend="thread"`` (in-process, used by
  the differential tests) or ``backend="fork"`` (one process per
  shard — the actual multi-core speedup), and call the familiar
  ``fleet.migrate_all()`` / ``run()`` / ``stats()`` surface; results
  merge across shards.

Digests (:func:`site_digest`, :class:`PacketInRecorder`) exist for the
shard-count-invariance suite: everything a shard owns — switch
counters, FDB contents, port counters, host ping outcomes, S4 datapath
counters, packet-in payload multisets — serialises to comparable plain
data, and the union over shards must equal the single-process run
bit-for-bit.  Packet-in digests are per-switch *multisets* (sorted
payload hashes), because simultaneous arrivals on different shards may
interleave differently at a shared switch without changing anything
the fabric can observe.
"""

from __future__ import annotations

import hashlib
import queue as _queue_mod
import threading
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.controller.app import ControllerApp
from repro.netsim.sharded import (
    DEFAULT_SYNC_TIMEOUT_S,
    PeerAborted,
    PipeEndpoint,
    ShardSimulator,
    ShardSyncError,
    ThreadMesh,
    make_pipe_mesh,
    sever_link,
)
from repro.netsim.simulator import Simulator

if TYPE_CHECKING:
    from repro.fabric.topology import Fabric

__all__ = [
    "CutLink",
    "FabricPartition",
    "PacketInRecorder",
    "ShardWorker",
    "ShardedFabric",
    "ShardedFleet",
    "partition_fabric",
    "site_digest",
]


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutLink:
    """One inter-shard trunk, identified by build order.

    ``index`` is the position in ``fabric.trunk_links`` — the builders
    are deterministic, so the index selects the same physical link in
    every shard's replica.
    """

    index: int
    name: str
    site_a: str
    site_b: str
    shard_a: int
    shard_b: int


@dataclass
class FabricPartition:
    """Which shard owns which site, and where the fabric is cut."""

    nshards: int
    assignment: "dict[str, int]"
    clusters: "list[list[str]]"
    cuts: "list[CutLink]" = field(default_factory=list)
    #: min propagation delay over the cuts — the sync lookahead.
    lookahead_s: "float | None" = None

    def owned_sites(self, shard: int) -> "list[str]":
        return [name for name, owner in self.assignment.items() if owner == shard]

    def describe(self) -> str:
        lines = [
            f"partition: {self.nshards} shard(s), "
            f"{len(self.cuts)} cut link(s), "
            f"lookahead {self.lookahead_s if self.lookahead_s else '-'}"
        ]
        for shard in range(self.nshards):
            names = ",".join(self.owned_sites(shard))
            lines.append(f"  shard {shard}: {names}")
        for cut in self.cuts:
            lines.append(
                f"  cut {cut.name} (shard {cut.shard_a} <-> {cut.shard_b})"
            )
        return "\n".join(lines)


def partition_fabric(fabric: "Fabric", nshards: int) -> FabricPartition:
    """Assign every site of *fabric* to one of *nshards* shards.

    Sites are grouped into anchor clusters (see the module docstring)
    and clusters are split contiguously — cluster ``i`` goes to shard
    ``i * nshards // len(clusters)`` — so cuts land on the sparse
    anchor-to-anchor trunks.  Raises when the fabric has fewer clusters
    than requested shards, or when any cut trunk has zero propagation
    delay (conservative sync needs positive lookahead).
    """
    if nshards < 1:
        raise ValueError("need at least one shard")

    neighbors: "dict[str, list[str]]" = {name: [] for name in fabric.sites}
    for link in fabric.trunk_links:
        site_a = link.port_a.node.name
        site_b = link.port_b.node.name
        neighbors[site_a].append(site_b)
        neighbors[site_b].append(site_a)

    clusters: "list[list[str]]" = []
    cluster_of: "dict[str, int]" = {}
    for site in fabric.sites.values():
        if site.pod is None:
            continue
        anchor = next(
            (
                peer
                for peer in neighbors[site.name]
                if fabric.sites[peer].pod is None
            ),
            None,
        )
        if anchor is not None and anchor in cluster_of:
            index = cluster_of[anchor]
        else:
            index = len(clusters)
            clusters.append([])
            if anchor is not None:
                clusters[index].append(anchor)
                cluster_of[anchor] = index
        clusters[index].append(site.name)
        cluster_of[site.name] = index
    if not clusters:
        raise ValueError("fabric has no pod sites to partition around")

    # Anchors that home no pods (a campus core, a spare spine) join the
    # cluster of their first already-clustered neighbor; iterate so
    # chains of them resolve too.
    pending = [name for name in fabric.sites if name not in cluster_of]
    while pending:
        still = []
        for name in pending:
            index = next(
                (cluster_of[peer] for peer in neighbors[name] if peer in cluster_of),
                None,
            )
            if index is None:
                still.append(name)
                continue
            clusters[index].append(name)
            cluster_of[name] = index
        if len(still) == len(pending):
            raise ValueError(f"sites not connected to any pod cluster: {still}")
        pending = still

    if nshards > len(clusters):
        raise ValueError(
            f"cannot split {len(clusters)} cluster(s) into {nshards} shards "
            f"(one cluster is the finest cut this fabric supports)"
        )
    assignment = {
        name: index * nshards // len(clusters)
        for index, cluster in enumerate(clusters)
        for name in cluster
    }

    cuts: "list[CutLink]" = []
    lookahead = None
    for index, link in enumerate(fabric.trunk_links):
        site_a = link.port_a.node.name
        site_b = link.port_b.node.name
        shard_a = assignment[site_a]
        shard_b = assignment[site_b]
        if shard_a == shard_b:
            continue
        if link.propagation_delay_s <= 0:
            raise ValueError(
                f"cut link {link.name} has zero propagation delay; "
                f"conservative sync needs positive lookahead"
            )
        cuts.append(
            CutLink(
                index=index,
                name=link.name,
                site_a=site_a,
                site_b=site_b,
                shard_a=shard_a,
                shard_b=shard_b,
            )
        )
        if lookahead is None or link.propagation_delay_s < lookahead:
            lookahead = link.propagation_delay_s
    if nshards > 1 and not cuts:
        raise ValueError("multi-shard partition produced no cut links")

    return FabricPartition(
        nshards=nshards,
        assignment=assignment,
        clusters=clusters,
        cuts=cuts,
        lookahead_s=lookahead,
    )


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


def _payload_hash(in_port: int, data: bytes) -> str:
    return hashlib.sha1(in_port.to_bytes(4, "big") + data).hexdigest()[:16]


class PacketInRecorder(ControllerApp):
    """Records every packet-in as a per-switch multiset of payload hashes.

    A *multiset* (sorted hashes), not a sequence: two frames arriving at
    the same instant from different shards may reach a shared switch in
    either (time, seq) order, flipping which packet-in is emitted first
    without changing the set of packet-ins or any counter.  Register it
    before the forwarding app so it observes without consuming.
    """

    def __init__(self) -> None:
        self.by_switch: "dict[str, list[str]]" = {}

    def on_packet_in(self, dp, msg) -> bool:  # noqa: D102 - base class doc
        self.by_switch.setdefault(dp.name, []).append(
            _payload_hash(msg.in_port, msg.data)
        )
        return False

    def digest(self) -> "dict[str, list[str]]":
        return {name: sorted(hashes) for name, hashes in self.by_switch.items()}


def site_digest(
    fabric: "Fabric", site_name: str, fleet=None, include_rtts: bool = False
) -> dict:
    """Everything observable at one site, as comparable plain data.

    Covers the legacy switch (aggregate + per-port counters, FDB
    contents), its ports, its hosts (IP deliveries + per-ping
    outcomes), its stations, and — when *fleet* has migrated the
    site — the S4 datapath counters.  Ping RTTs are excluded by
    default: when two probes to the *same* destination tie at a shared
    trunk, their serialisation order (hence their RTT split) is
    tie-dependent, while loss/delivery is not.  Pass
    ``include_rtts=True`` for scenarios without such contention.
    """
    site = fabric.sites[site_name]
    switch = site.switch
    counters = {
        key: sorted(value.items()) if isinstance(value, dict) else value
        for key, value in asdict(switch.counters).items()
    }
    digest = {
        "counters": counters,
        "fdb": sorted(
            (entry.vlan_id, str(entry.mac), entry.port, entry.static)
            for entry in switch.fdb._entries.values()
        ),
        "ports": {
            number: (
                port.rx_frames,
                port.rx_bytes,
                port.tx_frames,
                port.tx_bytes,
                port.tx_dropped,
            )
            for number, port in sorted(switch.ports.items())
        },
        "hosts": {
            host.name: {
                "rx_ip_packets": host.rx_ip_packets,
                "pings": [
                    (result.sequence, result.lost)
                    for result in host.ping_results
                ],
                **(
                    {"rtts": host.rtts()} if include_rtts else {}
                ),
            }
            for host in site.hosts
        },
        "stations": {
            node.name: {"sent": node.sent, "rx": node.rx_count}
            for node in fabric.stations.get(site_name, [])
            if hasattr(node, "sent")
        },
    }
    deployment = getattr(fleet, "deployments", {}).get(site_name) if fleet else None
    if deployment is not None:
        digest["s4"] = {
            half.name: (
                half.packets_forwarded,
                half.packets_dropped,
                half.packets_to_controller,
            )
            for half in (deployment.s4.ss1, deployment.s4.ss2)
        }
    return digest


# ---------------------------------------------------------------------------
# The per-shard worker
# ---------------------------------------------------------------------------


class ShardWorker:
    """One shard: a full fabric replica driving only its owned sites.

    The same class backs both backends — the thread backend calls its
    methods from per-shard threads, the fork backend from a command
    loop inside a forked process.  Every method that advances simulated
    time (``run``, the fleet operations) is **collective**: the backend
    must invoke it on all shards concurrently, since the shard
    simulators rendezvous at lookahead windows.
    """

    def __init__(
        self,
        shard: int,
        partition: FabricPartition,
        build: "Callable[[Simulator], Fabric]",
        transport=None,
    ) -> None:
        from repro.fabric.topology import slim_replica_build

        self.shard = shard
        self.partition = partition
        self.sim = ShardSimulator(
            shard=shard,
            nshards=partition.nshards,
            lookahead_s=partition.lookahead_s if partition.nshards > 1 else None,
            transport=transport,
        )
        self.owned = set(partition.owned_sites(shard))
        foreign = frozenset(partition.assignment) - self.owned
        if partition.nshards > 1 and foreign:
            with slim_replica_build(foreign):
                self.fabric = build(self.sim)
        else:
            self.fabric = build(self.sim)
        for cut in partition.cuts:
            link = self.fabric.trunk_links[cut.index]
            if cut.shard_a == shard:
                owned_port, peer = link.port_a, cut.shard_b
            elif cut.shard_b == shard:
                owned_port, peer = link.port_b, cut.shard_a
            else:
                owned_port, peer = None, -1
            sever_link(
                link, self.sim, boundary_id=cut.index,
                peer_shard=peer, owned_port=owned_port,
            )
        self.fleet = None
        self.recorder: "PacketInRecorder | None" = None

    # ------------------------------------------------------- fleet ops

    def fleet_init(self, record_packet_ins: bool = True, **fleet_kwargs) -> int:
        """Create this shard's fleet replica; returns the wave count."""
        from repro.apps.learning_switch import LearningSwitchApp
        from repro.controller.core import Controller
        from repro.core.manager import HarmlessFleet

        controller = Controller(self.sim, name=f"controller-s{self.shard}")
        if record_packet_ins:
            self.recorder = PacketInRecorder()
            controller.add_app(self.recorder)
        controller.add_app(LearningSwitchApp())
        self.fleet = HarmlessFleet(
            self.fabric,
            controller=controller,
            owned_sites=self.owned if self.partition.nshards > 1 else None,
            **fleet_kwargs,
        )
        return self.fleet.plan.num_waves

    def migrate_wave(self, verify: bool = True) -> dict:
        """Collective: execute the next wave (owned sites only)."""
        report = self.fleet.migrate_next_wave(verify=verify)
        row = {
            "index": report.index,
            "sites": report.sites,
            "migrated": [name for name in report.sites if name in self.owned],
            "capex_usd": report.capex_usd,
            "downtime_s": report.downtime_s,
            "sdn_ports_after": report.sdn_ports_after,
            "complete": self.fleet.complete,
            "reachability": None,
        }
        if report.reachability is not None:
            row["reachability"] = {
                "pairs": report.reachability.pairs,
                "answered": report.reachability.answered,
                "lost": report.reachability.lost,
            }
        return row

    def reach_sweep(
        self,
        window_s: "float | None" = None,
        host_names: "list[str] | None" = None,
    ) -> dict:
        """Collective: sweep owned-source -> all-host pairs.

        One sweep per call — convergence *loops* must live above the
        broadcast (see :meth:`ShardedFleet.await_reconvergence`): a
        per-worker retry loop would let shards with clean local sweeps
        exit early and deadlock the collective behind them.

        *host_names* restricts the sweep to a panel of hosts (sources
        are the owned subset of the panel, destinations the whole
        panel) — the probe-pair count on a big fabric is quadratic in
        hosts, so resilience scoring picks a fixed panel instead of
        sweeping every pair.
        """
        hosts = None
        if host_names is not None:
            wanted = set(host_names)
            hosts = [host for host in self.fabric.hosts if host.name in wanted]
        report = self.fleet.verify_reachability(hosts=hosts, window_s=window_s)
        return {
            "pairs": report.pairs,
            "answered": report.answered,
            "lost": report.lost,
        }

    # ----------------------------------------------------- station ops

    def attach_station(
        self, site_name: str, station_name: str, link_kwargs: "dict | None" = None
    ) -> int:
        """Attach a :class:`~repro.traffic.generators.BurstSource`.

        Attached on **every** shard (the replicas must stay wired
        identically — a foreign station is a valid flood/unicast sink);
        only the owning shard will ever transmit from it.
        """
        from repro.traffic.generators import BurstSource

        station = BurstSource(self.sim, station_name)
        return self.fabric.attach_station(site_name, station, **(link_kwargs or {}))

    def station_start(self, site_name: str, index: int, bursts: list) -> int:
        """Schedule bursts on a station — only on its owning shard."""
        if self.partition.assignment[site_name] != self.shard:
            return 0
        station = self.fabric.stations[site_name][index]
        station.start(bursts)
        return sum(len(frames) for _, frames in bursts)

    # ------------------------------------------------------- execution

    def run(self, until: "float | None" = None, max_events: "int | None" = None) -> int:
        """Collective: advance the shard simulators in lockstep."""
        return self.sim.run(until=until, max_events=max_events)

    # --------------------------------------------------------- results

    def digest(self, include_rtts: bool = False) -> dict:
        sites = {
            name: site_digest(
                self.fabric, name, fleet=self.fleet, include_rtts=include_rtts
            )
            for name in sorted(self.owned)
        }
        packet_ins = self.recorder.digest() if self.recorder is not None else {}
        return {"sites": sites, "packet_ins": packet_ins}

    def delivered(self) -> dict:
        """Per-station sent/received counts for owned sites."""
        return {
            node.name: {"sent": node.sent, "rx": node.rx_count}
            for site_name in sorted(self.owned)
            for node in self.fabric.stations.get(site_name, [])
        }

    def sim_stats(self) -> dict:
        stats = self.sim.sync_stats()
        stats["stub_sites"] = self.fabric.stub_sites
        stats["stub_hosts"] = self.fabric.stub_hosts
        return stats


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class _ThreadBackend:
    """All shards in-process, one command thread each.

    Messages cross shard boundaries by reference (no pickling), and the
    whole run shares one core — this backend exists for correctness
    (the differential suite) and for debugging, not for speed.
    """

    name = "thread"

    def __init__(
        self,
        partition: FabricPartition,
        build: "Callable[[Simulator], Fabric]",
        timeout_s: float = DEFAULT_SYNC_TIMEOUT_S,
    ) -> None:
        mesh = (
            ThreadMesh(partition.nshards, timeout_s=timeout_s)
            if partition.nshards > 1
            else None
        )
        self.workers = [
            ShardWorker(
                shard,
                partition,
                build,
                transport=mesh.endpoint(shard) if mesh is not None else None,
            )
            for shard in range(partition.nshards)
        ]
        self._inboxes = [_queue_mod.SimpleQueue() for _ in self.workers]
        self._outboxes = [_queue_mod.SimpleQueue() for _ in self.workers]
        self._threads = [
            threading.Thread(
                target=self._loop,
                args=(worker, self._inboxes[index], self._outboxes[index]),
                name=f"shard-worker-{index}",
                daemon=True,
            )
            for index, worker in enumerate(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    @staticmethod
    def _loop(worker: ShardWorker, inbox, outbox) -> None:
        while True:
            item = inbox.get()
            if item is None:
                return
            method, args, kwargs = item
            try:
                outbox.put(("ok", getattr(worker, method)(*args, **kwargs)))
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                if worker.sim.transport is not None:
                    worker.sim.transport.abort()
                outbox.put(("err", exc))

    def broadcast(self, method: str, *args, **kwargs) -> list:
        for inbox in self._inboxes:
            inbox.put((method, args, kwargs))
        outcomes = [outbox.get() for outbox in self._outboxes]
        return _collect(outcomes)

    def close(self) -> None:
        for inbox in self._inboxes:
            inbox.put(None)
        for thread in self._threads:
            thread.join(timeout=5)


class _ForkBackend:
    """One forked process per shard — the multi-core configuration.

    Pipes are created before forking (the boundary mesh peer-to-peer,
    one command pipe per worker to the parent); ``fork`` start method
    means the build callable is inherited, not pickled.  Command
    results and boundary records do pickle — both are plain data and
    frames.
    """

    name = "fork"

    def __init__(
        self,
        partition: FabricPartition,
        build: "Callable[[Simulator], Fabric]",
        timeout_s: float = DEFAULT_SYNC_TIMEOUT_S,
    ) -> None:
        import multiprocessing

        context = multiprocessing.get_context("fork")
        nshards = partition.nshards
        meshes = make_pipe_mesh(nshards) if nshards > 1 else [dict()]
        self._timeout_s = timeout_s
        self._conns = []
        self.processes = []
        child_conns = []
        for shard in range(nshards):
            parent_conn, child_conn = context.Pipe(duplex=True)
            self._conns.append(parent_conn)
            child_conns.append(child_conn)
        for shard in range(nshards):
            process = context.Process(
                target=_fork_worker_main,
                args=(
                    shard,
                    partition,
                    build,
                    meshes[shard] if nshards > 1 else None,
                    child_conns[shard],
                    timeout_s,
                ),
                name=f"shard-{shard}",
                daemon=True,
            )
            process.start()
            self.processes.append(process)
        # The parent holds no end of the boundary mesh and only its own
        # side of each command pipe — close the rest so a dead worker
        # surfaces as EOF/broken pipe instead of a silent hang.
        for mesh in meshes:
            for connection in mesh.values():
                connection.close()
        for connection in child_conns:
            connection.close()
        for shard, connection in enumerate(self._conns):
            status, detail = self._recv(shard, connection)
            if status != "ok":
                self.close()
                raise ShardSyncError(f"shard {shard} failed to build: {detail}")

    def _recv(self, shard: int, connection):
        if not connection.poll(self._timeout_s):
            raise ShardSyncError(f"shard {shard}: worker unresponsive")
        try:
            return connection.recv()
        except EOFError:
            raise ShardSyncError(f"shard {shard}: worker died") from None

    def broadcast(self, method: str, *args, **kwargs) -> list:
        for connection in self._conns:
            connection.send((method, args, kwargs))
        outcomes = []
        for shard, connection in enumerate(self._conns):
            try:
                outcomes.append(self._recv(shard, connection))
            except ShardSyncError as exc:
                outcomes.append(("err", exc))
        return _collect(
            [
                (status, ShardSyncError(detail) if status == "err"
                 and isinstance(detail, str) else detail)
                for status, detail in outcomes
            ]
        )

    def close(self) -> None:
        for connection in self._conns:
            try:
                connection.send(("__exit__", (), {}))
            except (OSError, ValueError):
                pass
        for process in self.processes:
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        for connection in self._conns:
            connection.close()


def _fork_worker_main(
    shard: int,
    partition: FabricPartition,
    build,
    mesh: "dict | None",
    command_conn,
    timeout_s: float,
) -> None:
    """Entry point of a forked shard process: build, then serve commands."""
    import traceback

    try:
        transport = (
            PipeEndpoint(shard, mesh, timeout_s=timeout_s)
            if mesh is not None
            else None
        )
        worker = ShardWorker(shard, partition, build, transport=transport)
    except BaseException:  # noqa: BLE001 - reported over the pipe
        command_conn.send(("err", traceback.format_exc()))
        return
    command_conn.send(("ok", None))
    while True:
        try:
            method, args, kwargs = command_conn.recv()
        except EOFError:
            return
        if method == "__exit__":
            return
        try:
            command_conn.send(("ok", getattr(worker, method)(*args, **kwargs)))
        except PeerAborted as exc:
            command_conn.send(("err", f"PeerAborted: {exc}"))
        except BaseException as exc:  # noqa: BLE001 - reported over the pipe
            if worker.sim.transport is not None:
                worker.sim.transport.abort()
            command_conn.send(
                ("err", f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
            )


def _collect(outcomes: "list[tuple[str, object]]") -> list:
    """Unwrap broadcast outcomes; raise the most informative failure.

    When one shard fails mid-collective its peers usually fail with
    :class:`PeerAborted` — the root cause is the non-PeerAborted error.
    """
    root = None
    fallback = None
    for status, value in outcomes:
        if status != "err":
            continue
        if isinstance(value, PeerAborted):
            fallback = fallback or value
        elif root is None:
            root = value
    if root is not None:
        raise root if isinstance(root, BaseException) else ShardSyncError(str(root))
    if fallback is not None:
        raise fallback
    return [value for _, value in outcomes]


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------


class ShardedFabric:
    """A fabric split across N shard simulators, driven as one object.

    *build* is a deterministic ``sim -> Fabric`` callable (typically a
    lambda over one of the :mod:`repro.fabric.topology` builders); it
    runs once on a throwaway simulator to compute the partition (the
    *reference* fabric, also used for topology queries — always a full,
    unslimmed build) and once per shard to create the replicas.  Each
    multi-shard replica stubs out the foreign state it provably never
    exercises — see
    :func:`repro.fabric.topology.slim_replica_build`; ``stats()``
    reports the per-shard ``stub_sites`` / ``stub_hosts``.

    Use as a context manager — ``close()`` tears the backend down.
    """

    def __init__(
        self,
        build: "Callable[[Simulator], Fabric]",
        shards: int = 1,
        backend: str = "thread",
        timeout_s: float = DEFAULT_SYNC_TIMEOUT_S,
    ) -> None:
        self.build = build
        self.reference = build(Simulator())
        self.partition = partition_fabric(self.reference, shards)
        if backend == "thread":
            self.backend = _ThreadBackend(self.partition, build, timeout_s=timeout_s)
        elif backend == "fork":
            self.backend = _ForkBackend(self.partition, build, timeout_s=timeout_s)
        else:
            raise ValueError(f"unknown backend {backend!r} (thread|fork)")

    # --------------------------------------------------------- control

    @property
    def nshards(self) -> int:
        return self.partition.nshards

    def fleet(self, **fleet_kwargs) -> "ShardedFleet":
        return ShardedFleet(self, **fleet_kwargs)

    def attach_station(
        self, site_name: str, station_name: str, **link_kwargs
    ) -> int:
        """Attach a burst station replica on every shard; returns port."""
        ports = self.backend.broadcast(
            "attach_station", site_name, station_name, link_kwargs or None
        )
        assert len(set(ports)) == 1, "replicas diverged on gen port allocation"
        return ports[0]

    def start_station(self, site_name: str, index: int, bursts: list) -> int:
        """Schedule bursts on the owning shard; returns frames queued."""
        return sum(
            self.backend.broadcast("station_start", site_name, index, bursts)
        )

    def run(self, until: "float | None" = None, max_events: "int | None" = None) -> int:
        """Advance all shards in lockstep; returns total events run."""
        return sum(self.backend.broadcast("run", until, max_events))

    # --------------------------------------------------------- results

    def digest(self, include_rtts: bool = False) -> dict:
        """Union of the per-shard digests (each site owned exactly once)."""
        merged = {"sites": {}, "packet_ins": {}}
        for row in self.backend.broadcast("digest", include_rtts):
            merged["sites"].update(row["sites"])
            merged["packet_ins"].update(row["packet_ins"])
        merged["sites"] = dict(sorted(merged["sites"].items()))
        merged["packet_ins"] = dict(sorted(merged["packet_ins"].items()))
        return merged

    def delivered(self) -> dict:
        merged = {}
        for row in self.backend.broadcast("delivered"):
            merged.update(row)
        return dict(sorted(merged.items()))

    def stats(self) -> dict:
        per_shard = self.backend.broadcast("sim_stats")
        drops_by_id: "dict[int, int]" = {}
        for row in per_shard:
            for boundary_id, frames in row["boundary_drops_by_id"].items():
                drops_by_id[boundary_id] = drops_by_id.get(boundary_id, 0) + frames
        return {
            "shards": self.nshards,
            "backend": self.backend.name,
            "now": max(row["now"] for row in per_shard),
            "events_processed": sum(row["events_processed"] for row in per_shard),
            "pending_events": sum(row["pending_events"] for row in per_shard),
            "sync_rounds": max(row["sync_rounds"] for row in per_shard),
            "rounds_skipped": max(row["rounds_skipped"] for row in per_shard),
            "frames_exported": sum(row["frames_exported"] for row in per_shard),
            "records_exported": sum(row["records_exported"] for row in per_shard),
            "bytes_exchanged": sum(row["bytes_sent"] for row in per_shard),
            "shadow_drops": sum(row["shadow_drops"] for row in per_shard),
            "boundary_drops": sum(row["boundary_drops"] for row in per_shard),
            "boundary_drops_by_id": dict(sorted(drops_by_id.items())),
            "stub_sites": sum(row["stub_sites"] for row in per_shard),
            "stub_hosts": sum(row["stub_hosts"] for row in per_shard),
            "per_shard": per_shard,
        }

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "ShardedFabric":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ShardedFleet:
    """Fleet surface over a :class:`ShardedFabric`.

    Every shard holds a full fleet replica executing the identical wave
    plan; this facade fans each operation out and merges the reports —
    reachability sums the disjoint per-shard (owned source -> any host)
    pair sets back into the familiar all-pairs numbers.
    """

    def __init__(self, sharded: ShardedFabric, **fleet_kwargs) -> None:
        self.sharded = sharded
        wave_counts = sharded.backend.broadcast("fleet_init", **fleet_kwargs)
        assert len(set(wave_counts)) == 1, "replicas diverged on wave planning"
        self.num_waves = wave_counts[0]
        self.reports: "list[dict]" = []

    @property
    def complete(self) -> bool:
        return bool(self.reports) and self.reports[-1]["complete"]

    def migrate_next_wave(self, verify: bool = True) -> dict:
        rows = self.sharded.backend.broadcast("migrate_wave", verify)
        merged = dict(rows[0])
        merged["migrated"] = sorted(
            name for row in rows for name in row["migrated"]
        )
        if verify:
            merged["reachability"] = _merge_reachability(
                [row["reachability"] for row in rows]
            )
        self.reports.append(merged)
        return merged

    def migrate_all(self, verify: bool = True, strict: bool = False) -> "list[dict]":
        while not self.complete:
            report = self.migrate_next_wave(verify=verify)
            if strict and verify and report["reachability"]["lost"]:
                raise ShardSyncError(
                    f"wave {report['index']} broke the fabric: "
                    f"{report['reachability']['lost'][:5]}"
                )
        return self.reports

    def verify_reachability(
        self, host_names: "list[str] | None" = None
    ) -> dict:
        return _merge_reachability(
            self.sharded.backend.broadcast("reach_sweep", None, host_names)
        )

    def await_reconvergence(
        self,
        event: str = "fault",
        window_s: float = 0.25,
        deadline_s: float = 10.0,
        host_names: "list[str] | None" = None,
    ):
        """Sharded :meth:`repro.core.manager.HarmlessFleet
        .await_reconvergence`: repeated collective sweeps until the
        *merged* reachability is clean or *deadline_s* simulated time
        has passed.

        The convergence loop lives here, not in the workers: each
        worker only sees its owned sources, so a per-worker loop would
        let a locally clean shard exit its sweeps early while peers
        keep sweeping — diverging the collective-call counts and
        deadlocking the barrier.  One broadcast per sweep keeps every
        shard in lockstep; loss is judged on the global merge.
        """
        from repro.core.manager import ResilienceReport

        if window_s <= 0:
            raise ValueError("sweep window must be positive")

        def clock() -> float:
            return max(
                row["now"]
                for row in self.sharded.backend.broadcast("sim_stats")
            )

        started_at = clock()
        now = started_at
        sweeps = 0
        probes_lost = 0
        pairs = 0
        converged_at = None
        while now - started_at < deadline_s - 1e-12:
            merged = _merge_reachability(
                self.sharded.backend.broadcast(
                    "reach_sweep", window_s, host_names
                )
            )
            sweeps += 1
            pairs = merged["pairs"]
            now = clock()
            if merged["ok"]:
                converged_at = now
                break
            probes_lost += len(merged["lost"])
        return ResilienceReport(
            event=event,
            started_at=started_at,
            converged_at=converged_at,
            sweeps=sweeps,
            probes_lost=probes_lost,
            pairs_per_sweep=pairs,
        )


def _merge_reachability(rows: "list[dict]") -> dict:
    merged = {
        "pairs": sum(row["pairs"] for row in rows),
        "answered": sum(row["answered"] for row in rows),
        "lost": sorted(
            tuple(pair) for row in rows for pair in row["lost"]
        ),
    }
    merged["ok"] = not merged["lost"]
    return merged
