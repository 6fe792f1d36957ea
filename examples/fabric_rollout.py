"""Network-wide HARMLESS rollout: migrate a whole fabric, wave by wave.

Builds a leaf-spine campus fabric (4 legacy edge switches x 2 hosts
behind 1 spine), plans a HARMLESS-waves migration over it, then
*executes* the plan mid-simulation: each wave migrates two switches
behind HARMLESS servers while the rest keep bridging, and an all-pairs
ping sweep after every wave proves the hybrid network never lost
connectivity.  At the end every frame between pods crosses three
software datapaths and the controller sees a 5-switch OpenFlow network
it believes is native SDN hardware.

Run:  python examples/fabric_rollout.py [--shards N]

With ``--shards N`` the same rollout runs on the sharded engine: the
fabric is partitioned at pod boundaries and executed as N parallel
per-shard event loops in forked worker processes, synchronised with
conservative lookahead (`repro.fabric.partition`).  The wave reports
and the reachability sweeps are identical to the single-process run —
sharding is pure implementation.
"""

import argparse

from repro.core import HarmlessFleet
from repro.fabric import leaf_spine_fabric


def main_sharded(shards: int) -> None:
    from repro.fabric import ShardedFabric

    def build(sim):
        return leaf_spine_fabric(edges=4, spines=2, hosts_per_edge=2, sim=sim)

    with ShardedFabric(build, shards=shards, backend="fork") as sharded:
        print(sharded.reference.describe())
        print()
        print(sharded.partition.describe())

        fleet = sharded.fleet(wave_size=2)
        print()
        baseline = fleet.verify_reachability()
        print(
            f"before any migration: reachability "
            f"{'OK' if baseline['ok'] else 'LOST'} "
            f"({baseline['answered']}/{baseline['pairs']} pairs)"
        )

        while not fleet.complete:
            report = fleet.migrate_next_wave(verify=True)
            reach = report["reachability"]
            print(
                f"wave {report['index']}: migrated {report['migrated']} "
                f"-> {report['sdn_ports_after']} SDN ports; reachability "
                f"{'OK' if reach['ok'] else 'LOST'} "
                f"({reach['answered']}/{reach['pairs']} pairs)"
            )

        stats = sharded.stats()
        print(
            f"\n{stats['shards']} shards ({stats['backend']} workers): "
            f"{stats['events_processed']} events, "
            f"{stats['sync_rounds']} sync rounds, "
            f"{stats['frames_exported']} boundary frames, "
            f"{stats['shadow_drops']} shadow drops"
        )


def main() -> None:
    # --- the legacy estate: 4 edge switches + 1 spine, 8 hosts ---------
    fabric = leaf_spine_fabric(edges=4, spines=1, hosts_per_edge=2)
    print(fabric.describe())

    # --- plan the rollout: waves of 2, edge tier first -----------------
    fleet = HarmlessFleet(fabric, wave_size=2)
    print()
    print(fleet.plan.describe())

    # --- baseline: the pure-legacy fabric is connected -----------------
    print()
    baseline = fleet.verify_reachability()
    print(f"before any migration: {baseline.describe()}")
    sample_host = fabric.hosts[0]
    legacy_rtt = sample_host.rtts()[-1] if sample_host.rtts() else None

    # --- execute: migrate wave by wave, verifying after each -----------
    while not fleet.complete:
        report = fleet.migrate_next_wave(verify=True)
        print(report.describe())
    print()
    print(fleet.describe())

    # --- read-back validation + datapath statistics --------------------
    problems = fleet.verify_deployments()
    print(f"\nper-site config read-back: {'OK' if not problems else problems}")

    print("\nmigrated datapaths (SS_2 microflow cache per hop):")
    for name, deployment in fleet.deployments.items():
        cache = deployment.s4.ss2.stats()["cache"]
        ss1 = deployment.s4.ss1.stats()["specialization"]
        hit_rate = "no data" if cache["hit_rate"] is None else f"{cache['hit_rate']:.0%}"
        print(
            f"  {name:<8s} dpid={deployment.datapath.dpid:#6x}  "
            f"cache hits {cache['hits']:>5} ({hit_rate})  "
            f"SS_1 compiled frames {ss1['specialized_frames']}"
        )

    if legacy_rtt is not None and sample_host.rtts():
        print(
            f"\n{sample_host.name} cross-pod RTT: {legacy_rtt * 1e6:.0f}us legacy"
            f" -> {sample_host.rtts()[-1] * 1e6:.0f}us via 3 migrated hops"
        )
    total_packet_ins = sum(
        getattr(app, "packet_ins_handled", 0) for app in fleet.controller.apps
    )
    print(f"controller packet-ins over the whole rollout: {total_packet_ins}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="run the rollout on N parallel shard workers",
    )
    cli = parser.parse_args()
    if cli.shards is not None:
        main_sharded(cli.shards)
    else:
        main()
