"""Tests for fabric partitioning and the sharded execution harness."""

import pytest

from repro.fabric import (
    ShardedFabric,
    campus_fabric,
    leaf_spine_fabric,
    partition_fabric,
    ring_fabric,
)
from repro.net import EthernetFrame, MACAddress
from repro.netsim import Link, Node, Simulator
from repro.netsim.sharded import (
    ShardSimulator,
    ThreadMesh,
    run_collective,
    sever_link,
)


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


class TestPartition:
    def test_leaf_spine_cuts_only_the_spine_chain(self):
        fabric = leaf_spine_fabric(
            edges=8, spines=4, hosts_per_edge=1, sim=Simulator()
        )
        partition = partition_fabric(fabric, 2)
        # Edge-to-spine bundles must never be cut — only the single
        # spine2<->spine3 chain link crosses the shard boundary.
        assert len(partition.cuts) == 1
        cut = partition.cuts[0]
        assert {cut.site_a, cut.site_b} == {"spine2", "spine3"}
        # Each spine travels with the edges homed onto it.
        assignment = partition.assignment
        assert assignment["spine1"] == assignment["edge1"] == assignment["edge5"]
        assert assignment["spine4"] == assignment["edge4"] == assignment["edge8"]

    def test_ring_splits_into_contiguous_arcs(self):
        fabric = ring_fabric(switches=8, hosts_per_switch=1, sim=Simulator())
        partition = partition_fabric(fabric, 4)
        assert len(partition.cuts) == 4
        for shard in range(4):
            owned = partition.owned_sites(shard)
            assert owned == [f"ring{2 * shard + 1}", f"ring{2 * shard + 2}"]

    def test_campus_keeps_subtrees_whole(self):
        fabric = campus_fabric(
            distribution=4, access_per_distribution=2,
            hosts_per_access=1, sim=Simulator(),
        )
        partition = partition_fabric(fabric, 2)
        assignment = partition.assignment
        for dist in range(1, 5):
            shard = assignment[f"dist{dist}"]
            for access in range(1, 3):
                assert assignment[f"acc{dist}-{access}"] == shard
        # Cuts are dist-to-core only.
        for cut in partition.cuts:
            assert "core" in (cut.site_a, cut.site_b)

    def test_every_site_is_assigned_exactly_once(self):
        fabric = campus_fabric(sim=Simulator())
        partition = partition_fabric(fabric, 2)
        assert set(partition.assignment) == set(fabric.sites)
        flattened = [name for cluster in partition.clusters for name in cluster]
        assert sorted(flattened) == sorted(fabric.sites)

    def test_more_shards_than_clusters_rejected(self):
        fabric = leaf_spine_fabric(edges=4, spines=2, sim=Simulator())
        with pytest.raises(ValueError, match="cluster"):
            partition_fabric(fabric, 5)

    def test_zero_propagation_cut_rejected(self):
        fabric = ring_fabric(
            switches=4, hosts_per_switch=1, sim=Simulator(),
            trunk_bandwidth_bps=None,
        )
        for link in fabric.trunk_links:
            link.propagation_delay_s = 0.0
        with pytest.raises(ValueError, match="propagation"):
            partition_fabric(fabric, 2)

    def test_single_shard_owns_everything(self):
        fabric = ring_fabric(switches=4, sim=Simulator())
        partition = partition_fabric(fabric, 1)
        assert partition.cuts == []
        assert set(partition.owned_sites(0)) == set(fabric.sites)


# ---------------------------------------------------------------------------
# The sync engine
# ---------------------------------------------------------------------------


class _Recorder(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.got = []

    def receive(self, port, frame):
        self.got.append((self.sim.now, frame))

    def receive_burst(self, port, arrivals):
        for _, frame in arrivals:
            self.got.append((self.sim.now, frame))


def _two_shard_pair(lookahead=1e-6):
    """Two shards, each holding a replica of A<->B; shard 0 owns A."""
    mesh = ThreadMesh(2, timeout_s=10)
    sims = [
        ShardSimulator(shard=i, nshards=2, lookahead_s=lookahead,
                       transport=mesh.endpoint(i))
        for i in range(2)
    ]
    replicas = []
    for sim in sims:
        a, b = _Recorder(sim, "A"), _Recorder(sim, "B")
        link = Link(a.add_port(), b.add_port(),
                    bandwidth_bps=1e9, propagation_delay_s=lookahead)
        replicas.append((a, b, link))
    sever_link(replicas[0][2], sims[0], 0, peer_shard=1,
               owned_port=replicas[0][2].port_a)
    sever_link(replicas[1][2], sims[1], 0, peer_shard=0,
               owned_port=replicas[1][2].port_b)
    return sims, replicas


def _frame(payload=b"y" * 80):
    return EthernetFrame(
        dst=MACAddress(2), src=MACAddress(1), ethertype=0x0800, payload=payload
    )


class TestShardSync:
    def test_boundary_frame_timing_matches_local_link(self):
        sims, replicas = _two_shard_pair()
        frame = _frame()
        sims[0].schedule_at(1e-3, lambda: replicas[0][2].port_a.send(frame))
        run_collective(sims, until=0.01)

        ref = Simulator()
        a, b = _Recorder(ref, "A"), _Recorder(ref, "B")
        Link(a.add_port(), b.add_port(), bandwidth_bps=1e9,
             propagation_delay_s=1e-6)
        ref.schedule_at(1e-3, lambda: a.ports[1].send(frame))
        ref.run(until=0.01)

        assert [t for t, _ in replicas[1][1].got] == [t for t, _ in b.got]
        assert sims[0].frames_exported == 1
        assert sims[1].frames_imported == 1

    def test_boundary_burst_preserves_per_frame_arrivals(self):
        sims, replicas = _two_shard_pair()
        frame = _frame()
        burst = [frame] * 16
        sims[0].schedule_at(
            1e-3, lambda: replicas[0][2].port_a.send_burst(burst)
        )
        run_collective(sims, until=0.01)
        receiver = replicas[1][1]
        assert len(receiver.got) == 16
        # tail-drop stats live on the owning side's link object
        stats = replicas[0][2].stats(replicas[0][2].port_a)
        assert stats.frames == 16
        assert stats.queue_hwm == 16

    def test_clocks_converge_after_every_collective_run(self):
        sims, replicas = _two_shard_pair()
        sims[0].schedule_at(1e-3, lambda: None)  # shard 1 stays idle
        run_collective(sims, until=None)
        assert sims[0].now == sims[1].now
        run_collective(sims, until=sims[0].now + 0.5)
        assert sims[0].now == sims[1].now

    def test_foreign_transmit_counts_shadow_drop(self):
        sims, replicas = _two_shard_pair()
        frame = _frame()
        # Shard 0 does not own B; its replica of B must not export.
        sims[0].schedule_at(1e-3, lambda: replicas[0][2].port_b.send(frame))
        run_collective(sims, until=0.01)
        assert sims[0].shadow_drops == 1
        assert replicas[1][0].got == []

    def test_max_events_cap_is_collective_and_clean(self):
        """A capped collective run stops at the global count — no abort,
        every shard returns, and the clocks still equalise."""
        sims, replicas = _two_shard_pair()
        for k in range(50):
            sims[0].schedule_at(1e-3 + k * 1e-5, lambda: None)
        counts = run_collective(sims, until=1.0, max_events=5)
        assert sum(counts) == 5
        assert sims[0].pending_events == 45
        assert sims[0].now == sims[1].now
        # The cap is global: the idle shard contributes its zero count
        # to the same sum every round, so both break at one barrier.
        counts = run_collective(sims, until=1.0, max_events=10)
        assert sum(counts) == 10
        assert sims[0].pending_events == 35

    def test_shard_simulator_needs_lookahead_and_transport(self):
        with pytest.raises(ValueError, match="lookahead"):
            ShardSimulator(shard=0, nshards=2, lookahead_s=None,
                           transport=object())
        with pytest.raises(ValueError, match="transport"):
            ShardSimulator(shard=0, nshards=2, lookahead_s=1e-6)


# ---------------------------------------------------------------------------
# Harness end-to-end
# ---------------------------------------------------------------------------


def _small_leaf_spine(sim):
    return leaf_spine_fabric(edges=4, spines=2, hosts_per_edge=1, sim=sim)


class TestShardedFabric:
    def test_thread_backend_migrates_and_sweeps(self):
        with ShardedFabric(_small_leaf_spine, shards=2,
                           backend="thread") as sharded:
            fleet = sharded.fleet(wave_size=2)
            reports = fleet.migrate_all(verify=True, strict=True)
            assert fleet.complete
            migrated = sorted(
                name for report in reports for name in report["migrated"]
            )
            assert migrated == sorted(sharded.reference.sites)
            sweep = fleet.verify_reachability()
            assert sweep["ok"]
            # 4 hosts -> 12 ordered pairs, partitioned across shards.
            assert sweep["pairs"] == 12
            stats = sharded.stats()
            assert stats["shadow_drops"] == 0
            assert stats["sync_rounds"] > 0

    def test_fork_backend_migrates_and_sweeps(self):
        with ShardedFabric(_small_leaf_spine, shards=2,
                           backend="fork") as sharded:
            fleet = sharded.fleet(wave_size=3)
            fleet.migrate_all(verify=False)
            sweep = fleet.verify_reachability()
            assert sweep["ok"]
            assert sweep["pairs"] == 12
            digest = sharded.digest()
            assert set(digest["sites"]) == set(sharded.reference.sites)

    def test_digest_covers_every_site_exactly_once(self):
        with ShardedFabric(_small_leaf_spine, shards=2,
                           backend="thread") as sharded:
            owned = [
                set(sharded.partition.owned_sites(shard))
                for shard in range(2)
            ]
            assert owned[0] & owned[1] == set()
            assert owned[0] | owned[1] == set(sharded.reference.sites)
            digest = sharded.digest()
            assert set(digest["sites"]) == set(sharded.reference.sites)

    def test_worker_failure_propagates_not_hangs(self):
        with ShardedFabric(_small_leaf_spine, shards=2,
                           backend="thread", timeout_s=30) as sharded:
            with pytest.raises(AttributeError):
                sharded.backend.broadcast("no_such_method")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ShardedFabric(_small_leaf_spine, shards=1, backend="mpi")


def _static_fdb_leaf_spine(sim):
    """Two-pod leaf-spine whose host MACs are pinned in the edge FDBs.

    Static entries keep same-switch unicast from flooding: a flood
    would cross the spine cut and add landed/import events, making the
    global event count shard-dependent.  With the pins, the two-phase
    station workload below is fully pod-local on every shard count.
    """
    fabric = leaf_spine_fabric(
        edges=8, spines=4, hosts_per_edge=1, gen_ports_per_edge=1, sim=sim
    )
    for site in fabric.sites.values():
        for host, port in zip(site.hosts, site.host_ports):
            site.switch.fdb.add_static(1, host.mac, port)
    return fabric


_PHASE1_T = 1e-3
_PHASE2_T = 0.2  # the gap dwarfs every sync window: a globally quiet point


def _start_two_phase_traffic(sharded):
    """Same-switch unicast bursts at t1 and t2 from two far-apart pods."""
    queued = 0
    for site_name in ("edge1", "edge4"):
        port = sharded.attach_station(site_name, f"gen-{site_name}")
        host = sharded.reference.sites[site_name].hosts[0]
        frame = EthernetFrame(
            dst=host.mac,
            src=MACAddress(0xAA0000 + port),
            ethertype=0x0800,
            payload=b"x" * 100,
        )
        queued += sharded.start_station(
            site_name,
            0,
            [(_PHASE1_T, [frame] * 8), (_PHASE2_T, [frame] * 8)],
        )
    return queued


class TestCollectiveMaxEvents:
    def test_capped_run_stops_at_same_global_count_at_any_shard_count(self):
        """run(max_events=C) lands on exactly C events at shards 1/2/4.

        C is the phase-1 event count measured uncapped; since phase 1
        drains before the quiet gap, the collective cap check fires at
        the same barrier on every shard layout, before any phase-2
        event runs.
        """
        with ShardedFabric(
            _static_fdb_leaf_spine, shards=1, backend="thread"
        ) as sharded:
            assert _start_two_phase_traffic(sharded) == 32
            cap = sharded.run(until=(_PHASE1_T + _PHASE2_T) / 2)
        assert cap > 0

        for shards in (1, 2, 4):
            with ShardedFabric(
                _static_fdb_leaf_spine, shards=shards, backend="thread"
            ) as sharded:
                _start_two_phase_traffic(sharded)
                processed = sharded.run(until=1.0, max_events=cap)
                stats = sharded.stats()
                assert processed == cap, f"shards={shards}"
                assert stats["events_processed"] == cap
                # Stopped in the gap: phase 2 still queued everywhere,
                # and the workload never touched a cut link.
                assert stats["now"] < _PHASE2_T
                assert stats["pending_events"] > 0
                assert stats["frames_exported"] == 0
                assert stats["shadow_drops"] == 0


class TestFleetOwnedSites:
    def test_owned_sites_limits_migrations_and_sweep_sources(self):
        from repro.core.manager import HarmlessFleet

        fabric = leaf_spine_fabric(
            edges=2, spines=1, hosts_per_edge=1, sim=Simulator()
        )
        fleet = HarmlessFleet(fabric, wave_size=1, owned_sites={"edge1"})
        report = fleet.migrate_next_wave(verify=False)
        assert report.sites == ["edge1"]
        assert list(fleet.deployments) == ["edge1"]
        # Wave 2 plans edge2, which this replica does not own.
        report = fleet.migrate_next_wave(verify=False)
        assert report.sites == ["edge2"]
        assert list(fleet.deployments) == ["edge1"]
        sweep = fleet.verify_reachability()
        # Only edge1's host probes: 1 source x 1 other host.
        assert sweep.pairs == 1
