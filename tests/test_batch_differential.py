"""Randomized differential proof for the burst-mode datapath.

`SoftSwitch.process_batch` is only allowed to exist because it is
semantics-free: a burst must produce byte-identical emitted frames in
identical order — and identical packet-ins, flow/table/group counters
and cache statistics — to the same frames pushed one at a time through
`receive()`/`inject()`.  The suite drives two identically-provisioned
switches through ≥1000 randomly generated bursts, with control-plane
churn (FlowMod add/delete/modify with timeouts, GroupMod) and simulated
time advancing between bursts so multi-table walks, group selection and
entry expiry (both the sweeper and the lazy replay validation) are all
covered, under both a zero-cost model (batched egress) and the eswitch
cost model (deferred per-frame emission).  Random rules sometimes output
to a port the switch does not have, so the unknown-port drop is covered
on cache hits and misses alike.

Set ``DIFFERENTIAL_SCALE=<n>`` to multiply the randomized case counts
(the nightly extended job runs at 5×).
"""

import os
import random

from repro.net import EthernetFrame, IPv4Address, MACAddress
from repro.net.build import tcp_frame, udp_frame
from repro.net.tcp import TcpSegment
from repro.netsim import Simulator
from repro.netsim.link import wire
from repro.netsim.node import Node
from repro.openflow import (
    ApplyActions,
    Bucket,
    FlowMod,
    GotoTable,
    GroupAction,
    GroupMod,
    Match,
    OutputAction,
    SetFieldAction,
    WriteActions,
)
from repro.openflow import consts as c
from repro.openflow.messages import PacketIn, parse_message
from repro.softswitch import DatapathCostModel, ESWITCH_COST_MODEL, SoftSwitch
from repro.traffic import BurstSource

ZERO_COST = DatapathCostModel.zero()

MACS = [MACAddress(0x020000000001 + i) for i in range(4)]
IPS = [IPv4Address(f"10.0.{i // 4}.{i % 4 + 1}") for i in range(8)]
PORTS = [53, 80, 443, 8080]
#: An output port no rig wires: the switch must drop and count it.
UNWIRED_PORT = 7


class Sink(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, port, frame):
        self.received.append((self.sim.now, frame.to_bytes()))


def random_frame(rng: random.Random) -> EthernetFrame:
    roll = rng.random()
    if roll < 0.1:  # non-IP: every L3/L4 flow-key slot is None
        return EthernetFrame(
            dst=rng.choice(MACS), src=rng.choice(MACS), ethertype=0x0806,
            payload=b"\x00" * 28,
        )
    src_mac, dst_mac = rng.choice(MACS), rng.choice(MACS)
    src_ip, dst_ip = rng.choice(IPS), rng.choice(IPS)
    vlan_id = rng.choice((None, None, 100, 101))
    if roll < 0.6:
        return udp_frame(
            src_mac, dst_mac, src_ip, dst_ip,
            rng.choice(PORTS), rng.choice(PORTS), b"x", vlan_id=vlan_id,
        )
    return tcp_frame(
        src_mac, dst_mac, src_ip, dst_ip,
        TcpSegment(rng.choice(PORTS), rng.choice(PORTS)), vlan_id=vlan_id,
    )


def random_match(rng: random.Random) -> Match:
    fields: dict = {}
    if rng.random() < 0.5:
        fields["in_port"] = rng.randint(1, 3)
    if rng.random() < 0.4:
        fields["eth_type"] = 0x0800
    if rng.random() < 0.3:
        fields["eth_dst"] = int(rng.choice(MACS))
    if rng.random() < 0.4:
        value = int(rng.choice(IPS))
        if rng.random() < 0.5:  # masked -> staged subtable tier
            bits = rng.choice((8, 16, 24))
            mask = (0xFFFFFFFF << (32 - bits)) & 0xFFFFFFFF
            fields["ipv4_dst"] = (value & mask, mask)
        else:
            fields["ipv4_dst"] = value
    if rng.random() < 0.3:
        name = rng.choice(("udp_dst", "udp_src", "tcp_dst", "tcp_src"))
        fields[name] = rng.choice(PORTS)
    return Match(**fields)


def random_instructions(rng: random.Random, table_id: int):
    roll = rng.random()
    if roll < 0.15:
        return []  # explicit drop
    actions = [OutputAction(port=rng.randint(1, 3))]
    if rng.random() < 0.08:  # the rigs wire ports 1-3: dropped on output
        actions = [OutputAction(port=UNWIRED_PORT)]
    if rng.random() < 0.2:
        actions.insert(
            0, SetFieldAction(field="eth_dst", value=int(rng.choice(MACS)))
        )
    if rng.random() < 0.15:
        actions = [GroupAction(group_id=1)]
    if rng.random() < 0.07:
        actions = [OutputAction(port=c.OFPP_CONTROLLER)]  # packet-in path
    instructions = [ApplyActions(actions=tuple(actions))]
    if table_id < 2 and rng.random() < 0.3:
        instructions.append(GotoTable(table_id=rng.randint(table_id + 1, 2)))
    return instructions


def random_churn_message(rng: random.Random):
    """FlowMod add (sometimes mortal) / delete / modify, or a GroupMod."""
    roll = rng.random()
    if roll < 0.55:
        table_id = rng.randint(0, 2)
        return FlowMod(
            table_id=table_id,
            command=c.OFPFC_ADD,
            match=random_match(rng),
            priority=rng.randint(0, 30),
            idle_timeout=rng.choice((0, 0, 0, 1)),
            hard_timeout=rng.choice((0, 0, 1, 2)),
            instructions=random_instructions(rng, table_id),
        )
    if roll < 0.75:
        return FlowMod(
            table_id=rng.randint(0, 2),
            command=rng.choice((c.OFPFC_DELETE, c.OFPFC_DELETE_STRICT)),
            match=random_match(rng),
            priority=rng.randint(0, 30),
        )
    if roll < 0.92:
        table_id = rng.randint(0, 2)
        return FlowMod(
            table_id=table_id,
            command=rng.choice((c.OFPFC_MODIFY, c.OFPFC_MODIFY_STRICT)),
            match=random_match(rng),
            priority=rng.randint(0, 30),
            instructions=random_instructions(rng, table_id),
        )
    return GroupMod(
        command=c.OFPGC_MODIFY,
        group_type=c.OFPGT_SELECT,
        group_id=1,
        buckets=[
            Bucket(actions=[OutputAction(port=rng.randint(1, 3))], weight=1),
            Bucket(
                actions=[OutputAction(port=rng.randint(1, 3))],
                weight=rng.randint(1, 3),
            ),
        ],
    )


def provision(switch):
    """Multi-table pipeline: goto chains, a select group, write-actions,
    a mortal flow, a packet-in rule — every replay shape the cache holds."""
    messages = [
        GroupMod(
            command=c.OFPGC_ADD,
            group_type=c.OFPGT_SELECT,
            group_id=1,
            buckets=[
                Bucket(actions=[OutputAction(port=2)], weight=1),
                Bucket(actions=[OutputAction(port=3)], weight=2),
            ],
        ),
        FlowMod(
            table_id=0,
            priority=10,
            match=Match(in_port=1),
            instructions=[GotoTable(table_id=1)],
        ),
        FlowMod(
            table_id=0,
            priority=5,
            match=Match(eth_type=0x0800, ipv4_dst=("10.0.1.0", "255.255.255.0")),
            instructions=[ApplyActions(actions=(OutputAction(port=3),))],
        ),
        FlowMod(  # expires mid-run: exercises sweeper + lazy validation
            table_id=0,
            priority=7,
            match=Match(eth_type=0x0800, udp_dst=8080),
            hard_timeout=2,
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        ),
        FlowMod(
            table_id=1,
            priority=20,
            match=Match(eth_type=0x0800, udp_dst=53),
            instructions=[
                ApplyActions(
                    actions=(
                        SetFieldAction(field="eth_dst", value=int(MACS[3])),
                        GroupAction(group_id=1),
                    )
                )
            ],
        ),
        FlowMod(
            table_id=1,
            priority=15,
            match=Match(eth_type=0x0800, tcp_dst=443),
            instructions=[
                ApplyActions(actions=(OutputAction(port=c.OFPP_CONTROLLER),))
            ],
        ),
        FlowMod(
            table_id=1,
            priority=1,
            match=Match(),
            instructions=[
                WriteActions(actions=(OutputAction(port=2),)),
                GotoTable(table_id=2),
            ],
        ),
        FlowMod(table_id=2, priority=0, match=Match(), instructions=[]),
    ]
    for message in messages:
        assert switch.handle_message(message.to_bytes()) == []


def build_rig(cost_model, num_ports=3):
    """One switch with sinks on every port and a packet-in capture."""
    sim = Simulator()
    switch = SoftSwitch(sim, "ss", datapath_id=1, cost_model=cost_model)
    sinks = []
    for index in range(num_ports):
        sink = Sink(sim, f"sink{index}")
        wire(
            switch,
            sink,
            bandwidth_bps=None,
            propagation_delay_s=0.0,
            queue_frames=100_000,
        )
        sinks.append(sink)
    packet_ins: list[bytes] = []
    switch.to_controller = packet_ins.append
    provision(switch)
    return sim, switch, sinks, packet_ins


def assert_identical(batch_rig, seq_rig):
    sim_a, batch, sinks_a, pins_a = batch_rig
    sim_b, seq, sinks_b, pins_b = seq_rig
    for index, (sink_a, sink_b) in enumerate(zip(sinks_a, sinks_b)):
        assert sink_a.received == sink_b.received, f"sink {index} diverged"
    assert pins_a == pins_b
    assert batch.packets_forwarded == seq.packets_forwarded
    assert batch.packets_dropped == seq.packets_dropped
    assert batch.packets_to_controller == seq.packets_to_controller
    assert batch.dump_pipeline() == seq.dump_pipeline()  # per-entry counters
    for table_a, table_b in zip(batch.tables, seq.tables):
        assert table_a.lookups == table_b.lookups
        assert table_a.matches == table_b.matches
    group_a, group_b = batch.groups.get(1), seq.groups.get(1)
    assert group_a.packet_count == group_b.packet_count
    assert group_a.bucket_packet_counts == group_b.bucket_packet_counts
    assert batch.flow_cache.hits == seq.flow_cache.hits
    assert batch.flow_cache.misses == seq.flow_cache.misses
    assert len(batch.flow_cache) == len(seq.flow_cache)


def run_differential(seed, rounds, bursts_per_round, cost_model):
    """Returns how many bursts were compared."""
    try:
        return _run_differential(seed, rounds, bursts_per_round, cost_model)
    except AssertionError:
        print(
            f"\nDIFFERENTIAL FAILURE: seed=0x{seed:X} rounds={rounds} "
            f"bursts_per_round={bursts_per_round}"
        )
        raise


def _run_differential(seed, rounds, bursts_per_round, cost_model):
    rng = random.Random(seed)
    bursts_done = 0
    for _ in range(rounds):
        batch_rig = build_rig(cost_model)
        seq_rig = build_rig(cost_model)
        sim_a, batch, _, _ = batch_rig
        sim_b, seq, _, _ = seq_rig
        pool = [random_frame(rng) for _ in range(24)]
        clock = 0.0
        for _ in range(bursts_per_round):
            clock += rng.random() * 0.12  # lets timeouts land mid-run
            sim_a.run(until=clock)
            sim_b.run(until=clock)
            if rng.random() < 0.25:
                message = random_churn_message(rng).to_bytes()
                assert batch.handle_message(message) == seq.handle_message(message)
            size = rng.choice((1, 2, 3, 4, 6, 8, 8, 12))
            frames = [pool[rng.randrange(len(pool))] for _ in range(size)]
            in_port = 1 if rng.random() < 0.7 else rng.randint(2, 3)
            batch.process_batch(in_port, list(frames))
            for frame in frames:
                seq.inject(frame, in_port)
            bursts_done += 1
        sim_a.run()
        sim_b.run()
        assert batch.batch_frames > 0  # the batch path actually ran
        assert_identical(batch_rig, seq_rig)
    return bursts_done


#: Case-count multiplier; the nightly extended job sets this to 5.
SCALE = max(1, int(os.environ.get("DIFFERENTIAL_SCALE", "1")))


class TestBatchDifferential:
    def test_zero_cost_batched_egress(self):
        """≥600 bursts with immediate (coalesced) egress."""
        assert run_differential(0xB4757, rounds=6, bursts_per_round=100 * SCALE,
                                cost_model=ZERO_COST) == 600 * SCALE

    def test_eswitch_cost_deferred_emission(self):
        """≥400 bursts where every emission defers past the CPU charge."""
        assert run_differential(0xE5717C4, rounds=4, bursts_per_round=100 * SCALE,
                                cost_model=ESWITCH_COST_MODEL) == 400 * SCALE

    def test_synchronous_reactive_controller_mid_burst(self):
        """A zero-latency controller wired straight back into
        handle_message installs flows *between frames of one burst*
        (packet-in for frame i reprograms the pipeline before frame
        i+1).  The batch path must deliver packet-ins at the same
        per-frame points as sequential processing, so the reactive
        installs — and the cache invalidations they trigger mid-burst —
        land identically."""
        rigs = []
        stat_logs = []
        for _ in range(2):
            rig = build_rig(ZERO_COST)
            _, switch, _, packet_ins = rig
            # What a stats-polling controller would observe at each
            # packet-in: forwarding totals must match sequential exactly.
            stats_seen: list[tuple] = []
            stat_logs.append(stats_seen)

            def reactive(raw, switch=switch, log=packet_ins, seen=stats_seen):
                log.append(raw)
                message = parse_message(raw)
                if not isinstance(message, PacketIn):
                    return
                seen.append(
                    (
                        switch.packets_forwarded,
                        switch.packets_to_controller,
                        tuple(
                            switch.ports[n].tx_frames for n in sorted(switch.ports)
                        ),
                    )
                )
                frame = EthernetFrame.from_bytes(message.data)
                # Learn the source: next frames bypass the controller.
                switch.handle_message(
                    FlowMod(
                        table_id=1,
                        priority=30,
                        match=Match(
                            eth_type=0x0800, tcp_dst=443, eth_src=int(frame.src)
                        ),
                        instructions=[
                            ApplyActions(actions=(OutputAction(port=2),))
                        ],
                    ).to_bytes()
                )

            switch.to_controller = reactive
            rigs.append(rig)
        batch_rig, seq_rig = rigs
        rng = random.Random(0x5EAC7)
        # Mostly tcp/443 (the packet-in rule), several sources, so the
        # same flow repeats within a burst around its learning moment.
        pool = [
            tcp_frame(
                rng.choice(MACS), rng.choice(MACS),
                rng.choice(IPS), rng.choice(IPS),
                TcpSegment(rng.choice(PORTS), 443),
            )
            for _ in range(10)
        ] + [random_frame(rng) for _ in range(4)]
        for _ in range(120):
            frames = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(2, 10))]
            batch_rig[1].process_batch(1, list(frames))
            for frame in frames:
                seq_rig[1].inject(frame, 1)
        batch_rig[0].run()
        seq_rig[0].run()
        assert batch_rig[3]  # the controller actually saw packet-ins
        assert len(batch_rig[1].tables[1]) >= 6  # ...and learned ≥3 sources
        assert stat_logs[0] == stat_logs[1]  # per-packet-in stats parity
        assert_identical(batch_rig, seq_rig)

    def test_burst_of_one_delegates_to_single_frame_path(self):
        rig_a = build_rig(ZERO_COST)
        rig_b = build_rig(ZERO_COST)
        frame = udp_frame(MACS[0], MACS[1], IPS[0], IPS[1], 1000, 53, b"x")
        rig_a[1].process_batch(1, [frame])
        rig_b[1].inject(frame, 1)
        rig_a[0].run()
        rig_b[0].run()
        assert_identical(rig_a, rig_b)
        assert rig_a[1].batch_bursts == 0  # singleton took the plain path

    def test_empty_batch_is_a_no_op(self):
        sim, switch, _, _ = build_rig(ZERO_COST)
        switch.process_batch(1, [])
        sim.run()
        assert switch.packets_forwarded == 0
        assert switch.batch_bursts == 0

    def test_linear_config_batches_identically(self):
        """fast path fully disabled: batch loop must still match."""
        rng = random.Random(0x11E4)
        rigs = []
        for _ in range(2):
            sim = Simulator()
            switch = SoftSwitch(
                sim, "ss", datapath_id=1, cost_model=ZERO_COST,
                enable_fast_path=False,
            )
            sinks = []
            for index in range(3):
                sink = Sink(sim, f"sink{index}")
                wire(switch, sink, bandwidth_bps=None, propagation_delay_s=0.0,
                     queue_frames=100_000)
                sinks.append(sink)
            packet_ins: list[bytes] = []
            switch.to_controller = packet_ins.append
            provision(switch)
            rigs.append((sim, switch, sinks, packet_ins))
        pool = [random_frame(rng) for _ in range(12)]
        for _ in range(60):
            frames = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(2, 8))]
            rigs[0][1].process_batch(1, list(frames))
            for frame in frames:
                rigs[1][1].inject(frame, 1)
        rigs[0][0].run()
        rigs[1][0].run()
        (sim_a, batch, sinks_a, pins_a), (sim_b, seq, sinks_b, pins_b) = rigs
        for sink_a, sink_b in zip(sinks_a, sinks_b):
            assert sink_a.received == sink_b.received
        assert pins_a == pins_b
        assert batch.packets_forwarded == seq.packets_forwarded
        assert batch.dump_pipeline() == seq.dump_pipeline()


def test_cost_model_swap_updates_charge_shortcut():
    """Reassigning cost_model on a live switch must drop/adopt the
    zero-cost charge shortcut (the flag is setter-maintained)."""
    sim, switch, _, _ = build_rig(ZERO_COST)
    frame = udp_frame(MACS[0], MACS[1], IPS[0], IPS[1], 1000, 80, b"x")
    switch.inject(frame, 1)
    assert switch.busy_until == 0.0  # zero model: processing is free
    switch.cost_model = ESWITCH_COST_MODEL
    assert switch.cost_model is ESWITCH_COST_MODEL
    switch.inject(frame, 1)
    assert switch.busy_until > 0.0  # eswitch model charges again
    switch.cost_model = DatapathCostModel.zero()
    busy = switch.busy_until
    switch.inject(frame, 1)
    assert switch.busy_until == busy  # back to free


class TestBurstThroughLinks:
    """The full stack: BurstSource -> link burst -> receive_burst."""

    def build(self, batched: bool):
        sim = Simulator()
        switch = SoftSwitch(sim, "ss", datapath_id=1, cost_model=ZERO_COST)
        source = BurstSource(sim, "gen")
        wire(
            source, switch,
            bandwidth_bps=None, propagation_delay_s=0.0, queue_frames=100_000,
        )
        sinks = []
        for index in range(3):
            sink = Sink(sim, f"sink{index}")
            wire(switch, sink, bandwidth_bps=None, propagation_delay_s=0.0,
                 queue_frames=100_000)
            sinks.append(sink)
        packet_ins: list[bytes] = []
        switch.to_controller = packet_ins.append
        provision(switch)
        return sim, switch, source, sinks, packet_ins

    def test_burst_source_matches_per_frame_sends(self):
        rng = random.Random(0x50C4)
        pool = [random_frame(rng) for _ in range(16)]
        bursts = [
            (round(0.01 * i, 6),
             [pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, 10))])
            for i in range(50)
        ]
        sim_a, batch, source, sinks_a, pins_a = self.build(batched=True)
        source.start(bursts)
        sim_a.run_until_idle()

        sim_b, seq, source_b, sinks_b, pins_b = self.build(batched=False)
        port = source_b.port0
        for start, frames in bursts:
            sim_b.schedule_at(
                start,
                lambda fs=frames, p=port: [p.send(f) for f in fs],
            )
        sim_b.run_until_idle()

        total = sum(len(frames) for _, frames in bursts)
        assert source.sent == total
        assert batch.batch_frames > 0
        for sink_a, sink_b in zip(sinks_a, sinks_b):
            assert sink_a.received == sink_b.received
        assert pins_a == pins_b
        assert batch.packets_forwarded == seq.packets_forwarded
        assert batch.dump_pipeline() == seq.dump_pipeline()
