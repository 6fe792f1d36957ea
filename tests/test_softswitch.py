"""Tests for the software OpenFlow datapath."""

import pytest

from repro.net import EthernetFrame, IPv4Address, MACAddress
from repro.net.build import udp_frame
from repro.netsim import Simulator
from repro.netsim.link import wire
from repro.openflow import (
    ApplyActions,
    Bucket,
    FlowMod,
    FlowStatsRequest,
    GotoTable,
    GroupAction,
    GroupMod,
    Hello,
    Match,
    OFPP_CONTROLLER,
    OFPP_FLOOD,
    OutputAction,
    PacketOut,
    PopVlanAction,
    PortStatsRequest,
    PushVlanAction,
    SetFieldAction,
    parse_message,
)
from repro.openflow import consts as c
from repro.openflow.messages import EchoRequest, FeaturesRequest, PacketIn
from repro.softswitch import DatapathCostModel, SoftSwitch
from repro.netsim.node import Node

MAC_A = MACAddress("02:00:00:00:00:01")
MAC_B = MACAddress("02:00:00:00:00:02")
IP_A = IPv4Address("10.0.0.1")
IP_B = IPv4Address("10.0.0.2")


class Sink(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, port, frame):
        self.received.append((self.sim.now, frame))


def build_switch(num_sinks=3, cost_model=None):
    """A switch with *num_sinks* single-port neighbours on ports 1..n."""
    sim = Simulator()
    switch = SoftSwitch(
        sim,
        "ss",
        datapath_id=0x1,
        cost_model=cost_model or DatapathCostModel.zero(),
    )
    sinks = []
    for index in range(num_sinks):
        sink = Sink(sim, f"sink{index + 1}")
        wire(switch, sink, bandwidth_bps=None, propagation_delay_s=0.0)
        sinks.append(sink)
    return sim, switch, sinks


def install(switch, **kwargs):
    responses = switch.handle_message(FlowMod(**kwargs).to_bytes())
    assert responses == [], [parse_message(r) for r in responses]


def frame_ab(vlan_id=None, payload=b"x" * 64):
    return udp_frame(MAC_A, MAC_B, IP_A, IP_B, 1000, 2000, payload, vlan_id=vlan_id)


class TestHandshake:
    def test_hello_and_features(self):
        _, switch, _ = build_switch()
        (hello_reply,) = switch.handle_message(Hello(xid=1).to_bytes())
        assert isinstance(parse_message(hello_reply), Hello)
        (features,) = switch.handle_message(FeaturesRequest(xid=2).to_bytes())
        parsed = parse_message(features)
        assert parsed.datapath_id == 0x1
        assert parsed.n_tables == 4

    def test_echo(self):
        _, switch, _ = build_switch()
        (reply,) = switch.handle_message(EchoRequest(xid=3, payload=b"hi").to_bytes())
        assert parse_message(reply).payload == b"hi"


class TestMatching:
    def test_output_action(self):
        sim, switch, sinks = build_switch()
        install(
            switch,
            match=Match(in_port=1),
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert len(sinks[1].received) == 1
        assert sinks[0].received == []

    def test_table_miss_drops(self):
        sim, switch, sinks = build_switch()
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert all(sink.received == [] for sink in sinks)
        assert switch.packets_dropped == 1

    def test_priority_order(self):
        sim, switch, sinks = build_switch()
        install(
            switch,
            match=Match(),
            priority=1,
            instructions=[ApplyActions(actions=(OutputAction(port=1),))],
        )
        install(
            switch,
            match=Match(eth_type=0x0800),
            priority=100,
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), in_port=3)
        sim.run()
        assert len(sinks[1].received) == 1
        assert sinks[0].received == []

    def test_flood(self):
        sim, switch, sinks = build_switch()
        install(
            switch,
            match=Match(),
            instructions=[ApplyActions(actions=(OutputAction(port=OFPP_FLOOD),))],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert sinks[0].received == []  # not reflected
        assert len(sinks[1].received) == 1
        assert len(sinks[2].received) == 1

    def test_output_to_unknown_port_drops(self):
        sim, switch, _ = build_switch()
        install(
            switch,
            match=Match(),
            instructions=[ApplyActions(actions=(OutputAction(port=99),))],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert switch.packets_dropped == 1


class TestVlanActions:
    def test_push_set_output(self):
        """The translator's patch->trunk rule shape."""
        sim, switch, sinks = build_switch()
        install(
            switch,
            match=Match(in_port=1),
            instructions=[
                ApplyActions(
                    actions=(
                        PushVlanAction(),
                        SetFieldAction.vlan_vid(102),
                        OutputAction(port=2),
                    )
                )
            ],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        (_, received) = sinks[1].received[0]
        assert received.vlan_id == 102

    def test_pop_output(self):
        """The translator's trunk->patch rule shape."""
        sim, switch, sinks = build_switch()
        install(
            switch,
            match=Match.vlan(101),
            instructions=[
                ApplyActions(actions=(PopVlanAction(), OutputAction(port=3)))
            ],
        )
        switch.inject(frame_ab(vlan_id=101), in_port=1)
        sim.run()
        (_, received) = sinks[2].received[0]
        assert received.vlan is None

    def test_vlan_match_isolation(self):
        sim, switch, sinks = build_switch()
        install(
            switch,
            match=Match.vlan(101),
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(vlan_id=102), in_port=1)
        sim.run()
        assert sinks[1].received == []
        assert switch.packets_dropped == 1


class TestMultiTable:
    def test_goto_table(self):
        sim, switch, sinks = build_switch()
        install(
            switch,
            table_id=0,
            match=Match(in_port=1),
            instructions=[GotoTable(table_id=1)],
        )
        install(
            switch,
            table_id=1,
            match=Match(eth_type=0x0800),
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert len(sinks[1].received) == 1

    def test_miss_in_second_table_drops(self):
        sim, switch, sinks = build_switch()
        install(
            switch,
            table_id=0,
            match=Match(),
            instructions=[GotoTable(table_id=2)],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert switch.packets_dropped == 1

    def test_write_actions_execute_at_end(self):
        from repro.openflow import WriteActions

        sim, switch, sinks = build_switch()
        install(
            switch,
            table_id=0,
            match=Match(),
            instructions=[
                WriteActions(actions=(OutputAction(port=2),)),
                GotoTable(table_id=1),
            ],
        )
        install(
            switch,
            table_id=1,
            match=Match(),
            instructions=[],  # no goto: pipeline ends, action set runs
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert len(sinks[1].received) == 1

    def test_clear_actions_empties_set(self):
        from repro.openflow import ClearActions, WriteActions

        sim, switch, sinks = build_switch()
        install(
            switch,
            table_id=0,
            match=Match(),
            instructions=[
                WriteActions(actions=(OutputAction(port=2),)),
                GotoTable(table_id=1),
            ],
        )
        install(
            switch,
            table_id=1,
            match=Match(),
            instructions=[ClearActions()],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert sinks[1].received == []


class TestGroups:
    def add_select_group(self, switch, group_id=1, ports=(1, 2), weights=None):
        weights = weights or [1] * len(ports)
        buckets = [
            Bucket(actions=[OutputAction(port=port)], weight=weight)
            for port, weight in zip(ports, weights)
        ]
        responses = switch.handle_message(
            GroupMod(
                command=c.OFPGC_ADD,
                group_type=c.OFPGT_SELECT,
                group_id=group_id,
                buckets=buckets,
            ).to_bytes()
        )
        assert responses == []

    def test_select_group_deterministic_per_flow(self):
        sim, switch, sinks = build_switch()
        self.add_select_group(switch, ports=(2, 3))
        install(
            switch,
            match=Match(),
            instructions=[ApplyActions(actions=(GroupAction(group_id=1),))],
        )
        for _ in range(5):
            switch.inject(frame_ab(), in_port=1)
        sim.run()
        # Same flow key -> same bucket every time.
        counts = (len(sinks[1].received), len(sinks[2].received))
        assert sorted(counts) == [0, 5]

    def test_select_group_spreads_flows(self):
        sim, switch, sinks = build_switch()
        self.add_select_group(switch, ports=(2, 3))
        install(
            switch,
            match=Match(),
            instructions=[ApplyActions(actions=(GroupAction(group_id=1),))],
        )
        for index in range(64):
            frame = udp_frame(
                MAC_A, MAC_B, IPv4Address(int(IP_A) + index), IP_B, 1000, 2000, b"y"
            )
            switch.inject(frame, in_port=1)
        sim.run()
        assert len(sinks[1].received) > 5
        assert len(sinks[2].received) > 5

    def test_all_group_copies(self):
        sim, switch, sinks = build_switch()
        buckets = [
            Bucket(actions=[OutputAction(port=2)]),
            Bucket(actions=[OutputAction(port=3)]),
        ]
        switch.handle_message(
            GroupMod(
                command=c.OFPGC_ADD,
                group_type=c.OFPGT_ALL,
                group_id=9,
                buckets=buckets,
            ).to_bytes()
        )
        install(
            switch,
            match=Match(),
            instructions=[ApplyActions(actions=(GroupAction(group_id=9),))],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert len(sinks[1].received) == 1
        assert len(sinks[2].received) == 1

    def test_missing_group_drops(self):
        sim, switch, _ = build_switch()
        install(
            switch,
            match=Match(),
            instructions=[ApplyActions(actions=(GroupAction(group_id=404),))],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert switch.packets_dropped == 1

    def test_duplicate_group_add_errors(self):
        _, switch, _ = build_switch()
        self.add_select_group(switch, group_id=5)
        message = GroupMod(
            command=c.OFPGC_ADD, group_type=c.OFPGT_SELECT, group_id=5, buckets=[]
        )
        responses = switch.handle_message(message.to_bytes())
        assert len(responses) == 1


class TestControllerInteraction:
    def test_packet_in_on_output_to_controller(self):
        sim, switch, _ = build_switch()
        inbox = []
        switch.to_controller = inbox.append
        install(
            switch,
            match=Match(),
            instructions=[
                ApplyActions(actions=(OutputAction(port=OFPP_CONTROLLER),))
            ],
        )
        original = frame_ab()
        switch.inject(original, in_port=2)
        sim.run()
        assert len(inbox) == 1
        packet_in = parse_message(inbox[0])
        assert isinstance(packet_in, PacketIn)
        assert packet_in.in_port == 2
        assert EthernetFrame.from_bytes(packet_in.data) == original

    def test_packet_out_executes_actions(self):
        sim, switch, sinks = build_switch()
        message = PacketOut(
            actions=[OutputAction(port=3)], data=frame_ab().to_bytes()
        )
        switch.handle_message(message.to_bytes())
        sim.run()
        assert len(sinks[2].received) == 1

    def test_flow_stats(self):
        sim, switch, _ = build_switch()
        install(
            switch,
            match=Match(in_port=1),
            priority=7,
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        (reply_raw,) = switch.handle_message(FlowStatsRequest(xid=5).to_bytes())
        reply = parse_message(reply_raw)
        assert len(reply.entries) == 1
        assert reply.entries[0].packet_count == 1
        assert reply.entries[0].priority == 7

    def test_port_stats(self):
        sim, switch, sinks = build_switch()
        install(
            switch,
            match=Match(),
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        (reply_raw,) = switch.handle_message(PortStatsRequest(xid=6).to_bytes())
        reply = parse_message(reply_raw)
        by_port = {entry.port_no: entry for entry in reply.entries}
        assert by_port[2].tx_packets == 1


class TestFlowLifecycle:
    def test_delete_flows(self):
        sim, switch, sinks = build_switch()
        install(
            switch,
            match=Match(in_port=1),
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.handle_message(
            FlowMod(command=c.OFPFC_DELETE, match=Match()).to_bytes()
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert sinks[1].received == []

    def test_strict_delete_needs_exact_match(self):
        sim, switch, sinks = build_switch()
        install(
            switch,
            match=Match(in_port=1),
            priority=10,
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.handle_message(
            FlowMod(
                command=c.OFPFC_DELETE_STRICT, match=Match(in_port=1), priority=11
            ).to_bytes()
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert len(sinks[1].received) == 1  # priority mismatch -> survived

    def test_modify_rewrites_instructions(self):
        sim, switch, sinks = build_switch()
        install(
            switch,
            match=Match(in_port=1),
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.handle_message(
            FlowMod(
                command=c.OFPFC_MODIFY,
                match=Match(in_port=1),
                instructions=[ApplyActions(actions=(OutputAction(port=3),))],
            ).to_bytes()
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert sinks[1].received == []
        assert len(sinks[2].received) == 1

    def test_idle_timeout_expires(self):
        sim, switch, sinks = build_switch()
        install(
            switch,
            match=Match(in_port=1),
            idle_timeout=2,
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run(until=0.1)
        assert len(sinks[1].received) == 1
        sim.schedule(5.0, lambda: switch.inject(frame_ab(), in_port=1))
        sim.run(until=6.0)
        assert len(sinks[1].received) == 1  # flow aged out, second inject dropped

    def test_flow_removed_notification(self):
        sim, switch, _ = build_switch()
        inbox = []
        switch.to_controller = inbox.append
        install(
            switch,
            match=Match(in_port=1),
            hard_timeout=1,
            flags=1,  # OFPFF_SEND_FLOW_REM
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        sim.run(until=3.0)
        removed = [
            parse_message(raw)
            for raw in inbox
            if parse_message(raw).msg_type == c.OFPT_FLOW_REMOVED
        ]
        assert len(removed) == 1
        assert removed[0].reason == c.OFPRR_HARD_TIMEOUT

    def test_add_to_bad_table_errors(self):
        _, switch, _ = build_switch()
        responses = switch.handle_message(FlowMod(table_id=99).to_bytes())
        assert len(responses) == 1

    @pytest.mark.parametrize("command", [c.OFPFC_ADD, c.OFPFC_MODIFY])
    @pytest.mark.parametrize("target", [0, 1, 4])  # backward, same table, past the end
    def test_goto_that_does_not_move_forward_errors(self, command, target):
        _, switch, _ = build_switch()
        install(switch, table_id=1, match=Match(), instructions=[])
        responses = switch.handle_message(
            FlowMod(
                table_id=1, command=command, match=Match(),
                instructions=[GotoTable(table_id=target)],
            ).to_bytes()
        )
        (error,) = [parse_message(raw) for raw in responses]
        assert (error.error_type, error.code) == (3, 2)  # bad instruction: table id
        assert [entry.instructions for entry in switch.tables[1]] == [[]]

    def test_identical_match_priority_replaces(self):
        sim, switch, sinks = build_switch()
        for port in (2, 3):
            install(
                switch,
                match=Match(in_port=1),
                priority=5,
                instructions=[ApplyActions(actions=(OutputAction(port=port),))],
            )
        assert len(switch.tables[0]) == 1
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert len(sinks[2].received) == 1


class TestCostModel:
    def test_processing_delay_applied(self):
        model = DatapathCostModel(
            base_ns=1000.0, lookup_ns=0, action_ns=0, vlan_op_ns=0, group_ns=0, patch_ns=0
        )
        sim, switch, sinks = build_switch(cost_model=model)
        install(
            switch,
            match=Match(),
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        (arrival, _) = sinks[1].received[0]
        assert arrival == pytest.approx(1e-6)

    def test_busy_core_serialises(self):
        model = DatapathCostModel(
            base_ns=1000.0, lookup_ns=0, action_ns=0, vlan_op_ns=0, group_ns=0, patch_ns=0
        )
        sim, switch, sinks = build_switch(cost_model=model)
        install(
            switch,
            match=Match(),
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), in_port=1)
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        arrivals = [t for t, _ in sinks[1].received]
        assert arrivals[0] == pytest.approx(1e-6)
        assert arrivals[1] == pytest.approx(2e-6)

    def test_peak_pps(self):
        from repro.softswitch import ESWITCH_COST_MODEL

        pps = ESWITCH_COST_MODEL.peak_pps(lookups=1, actions=1)
        assert 10e6 < pps < 20e6  # ESwitch-calibrated ballpark
