"""The software switch datapath: pipeline execution + control channel.

Pipeline semantics follow OpenFlow 1.3 §5: per-table lookup, apply-
actions executed immediately, write-actions accumulated into the action
set, goto-table to continue, and action-set execution (pops, pushes,
sets, then the one output/group) when the pipeline ends.  Table miss
drops unless a table-miss flow (priority 0, match-all) says otherwise —
exactly the behaviour a controller program sees on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.net.ethernet import EthernetFrame
from repro.netsim.node import Node, Port
from repro.netsim.simulator import Simulator
from repro.openflow import consts as c
from repro.openflow.actions import (
    Action,
    GroupAction,
    OutputAction,
    PopVlanAction,
    PushVlanAction,
    SetFieldAction,
)
from repro.openflow.instructions import (
    ApplyActions,
    ClearActions,
    GotoTable,
    WriteActions,
)
from repro.openflow.match import Match
from repro.openflow.messages import (
    EchoReply,
    EchoRequest,
    ErrorMsg,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowRemoved,
    FlowStatsEntry,
    FlowStatsReply,
    FlowStatsRequest,
    GroupMod,
    Hello,
    OpenFlowMessage,
    PacketIn,
    PacketOut,
    PortStatsEntry,
    PortStatsReply,
    PortStatsRequest,
    parse_message,
)
from repro.openflow.packetview import PacketView
from repro.softswitch.compiler import CompiledProgram, compile_datapath
from repro.softswitch.costmodel import DatapathCostModel, ESWITCH_COST_MODEL
from repro.softswitch.fastpath import CachedPath, DatapathFlowCache
from repro.softswitch.flowtable import FlowEntry, FlowTable
from repro.softswitch.groups import SELECT_HASH_FIELDS, GroupTable

#: How often expired flows are swept (also checked lazily on lookup).
EXPIRY_SWEEP_INTERVAL_S = 1.0

#: Churn hysteresis for the specialized tier 0.  A FlowMod/GroupMod
#: marks the compiled program stale and the switch falls back to the
#: interpreted fast path; a recompile is attempted on the next packet
#: only once this many mods have accumulated...
RECOMPILE_AFTER_MODS = 64
#: ...or once the control plane has been quiet for this long (simulated
#: seconds), whichever happens first.  Both are per-switch attributes
#: (``recompile_after_mods`` / ``recompile_quiescent_s``) so tests and
#: benches can tighten or disable the hysteresis.
RECOMPILE_QUIESCENT_S = 0.05

#: Bound on the miss-suppression negative cache (see
#: ``miss_suppression_s``).  Cleared wholesale when full: the cache is
#: derived state and a cleared signature merely costs one extra
#: packet-in — memory stays bounded even under a randomised MAC storm.
MISS_CACHE_LIMIT = 4096


@dataclass(slots=True)
class PipelineStats:
    """What one packet's pipeline walk cost (for the cost model)."""

    lookups: int = 0
    actions: int = 0
    vlan_ops: int = 0
    group_selections: int = 0


class SoftSwitch(Node):
    """An OpenFlow 1.3 software switch.

    The controller talks to it through ``handle_message`` (serialised
    request bytes in, response list out) plus the ``to_controller``
    callback for asynchronous messages (packet-in, flow-removed) — the
    :mod:`repro.controller` channel wires both ends together with a
    configurable latency.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        datapath_id: int,
        num_tables: int = 4,
        cost_model: DatapathCostModel = ESWITCH_COST_MODEL,
        enable_fast_path: bool = True,
        enable_specialization: "bool | None" = None,
    ) -> None:
        super().__init__(sim, name)
        self.datapath_id = datapath_id
        self.tables = [FlowTable(table_id) for table_id in range(num_tables)]
        self.groups = GroupTable()
        #: Two-tier fast path: microflow cache over the bucketed
        #: classifier.  Disabled (None cache + seed linear scans) only
        #: for differential tests and the fastpath benchmark baseline.
        self.fast_path = enable_fast_path
        self.flow_cache: "Optional[DatapathFlowCache]" = (
            DatapathFlowCache() if enable_fast_path else None
        )
        #: Tier 0: the ESwitch-style specialized program compiled from
        #: the installed pipeline (see repro.softswitch.compiler).
        #: Defaults to following the fast-path switch so "interpreted
        #: seed" configurations stay fully interpreted.
        self.specialize = (
            enable_fast_path if enable_specialization is None else enable_specialization
        )
        self._program: "Optional[CompiledProgram]" = None
        self._pending_mods = 0
        self._last_mod_at = 0.0
        self.recompile_after_mods = RECOMPILE_AFTER_MODS
        self.recompile_quiescent_s = RECOMPILE_QUIESCENT_S
        self.program_compiles = 0
        self.program_compile_failures = 0
        self.program_invalidations = 0
        #: Frames served by the compiled tier 0 / by the interpreted
        #: fallback while specialization was enabled.
        self.specialized_frames = 0
        self.fallback_frames = 0
        #: Why the last compile fell back (first failing rule) or was
        #: rejected outright; None when the pipeline compiles clean.
        #: Written by :func:`repro.softswitch.compiler.compile_datapath`.
        self.compile_ineligible_reason: "Optional[str]" = None
        self.cost_model = cost_model
        # The construction-time model assignment is not a mutation; a
        # fresh switch should not recompile until a FlowMod lands.
        self._pending_mods = 0
        #: Fields hashed for select-group bucket choice.  The OpenFlow
        #: spec leaves the selection algorithm to the implementation;
        #: like OVS's selection_method this is switch configuration.
        self.select_hash_fields: tuple[str, ...] = SELECT_HASH_FIELDS
        self.to_controller: "Optional[Callable[[bytes], None]]" = None
        #: Optional flood meter mirroring legacy storm control on the
        #: migrated dataplane (a :class:`repro.legacy.stormcontrol
        #: .StormControl`, consulted per ingress port before an
        #: ``OFPP_FLOOD``/``OFPP_ALL`` expansion).  None — the default —
        #: leaves every tier bit-identical to a guard-free switch.
        #: Flood and controller outputs compile to per-entry FALLBACK
        #: decisions that route through :meth:`_interpret_one`, so the
        #: interpreter hook below covers the compiled tier too.
        self.flood_guard = None
        self.floods_suppressed = 0
        #: Miss-suppression window (simulated seconds): a packet-in
        #: whose (in_port, src, dst, vlan) signature was already sent
        #: within the window is dropped at the datapath instead of
        #: costing the controller another round trip.  0.0 — the
        #: default — disables the negative cache entirely.
        self.miss_suppression_s = 0.0
        self.packet_ins_suppressed = 0
        self._miss_seen: "dict[tuple, float]" = {}
        self.packets_forwarded = 0
        self.packets_dropped = 0
        self.packets_to_controller = 0
        #: Burst-path grouping statistics: frames arriving in bursts,
        #: bursts processed, and unique flow keys seen across bursts
        #: (``batch_frames / batch_unique_keys`` is the per-burst
        #: amortisation factor the BATCH bench reports).  Which key the
        #: serving tier distinguishes: the interpreted path counts full
        #: 14-slot flow keys, the compiled tier 0 counts its *shrunk*
        #: keys (only the slots the installed pipeline reads), so the
        #: statistic describes the grouping the active tier actually
        #: exploited.
        self.batch_bursts = 0
        self.batch_frames = 0
        self.batch_unique_keys = 0
        self.busy_until = 0.0
        self._xid = 0
        self._sweep_scheduled = False
        self._tx_buffer: list[tuple[int, EthernetFrame]] = []
        self._async_buffer: list[OpenFlowMessage] = []

    @property
    def cost_model(self) -> DatapathCostModel:
        return self._cost_model

    @cost_model.setter
    def cost_model(self, model: DatapathCostModel) -> None:
        self._cost_model = model
        # Compiled programs bake per-plan cost constants; swapping the
        # model on a live switch must force a recompile.
        self._mark_program_stale()
        #: True when every cost coefficient is zero (wall-clock benches):
        #: lets the charge path skip the per-packet cost_s() call while
        #: keeping busy_until bookkeeping bit-identical.  The exact-type
        #: check keeps subclasses with overridden cost_s() off the
        #: shortcut, and the setter keeps the flag honest when a bench
        #: swaps models on a live switch.
        self._cost_is_zero = type(model) is DatapathCostModel and not (
            model.base_ns
            or model.lookup_ns
            or model.action_ns
            or model.vlan_op_ns
            or model.group_ns
            or model.patch_ns
        )

    # ------------------------------------------------- datapath specialization

    def _mark_program_stale(self) -> None:
        """A control-plane mutation landed: fall back to the interpreter.

        The compiled program references the live classifier structures,
        so it must be discarded before the next packet.  Recompiling is
        deferred (churn hysteresis): the mod counter and timestamp feed
        :meth:`_active_program`'s trigger test.
        """
        self._pending_mods += 1
        self._last_mod_at = self.sim.now
        if self._program is not None:
            self._program = None
            self.program_invalidations += 1

    def reset_pipeline(self) -> None:
        """Power-cycle the forwarding state (switch crash/restart).

        Flow tables and groups are rebuilt empty — even the table-miss
        entry is gone until a controller reinstalls it, so every packet
        drops on miss, exactly like a rebooted switch before its
        handshake completes.  Both fast-path tiers are invalidated: the
        microflow cache is flushed and any compiled program discarded,
        since both memoise walks of tables that no longer exist.
        Forwarding counters survive (they model an external observer,
        not switch RAM).
        """
        self.tables = [FlowTable(table_id) for table_id in range(len(self.tables))]
        self.groups = GroupTable()
        if self.flow_cache is not None:
            self.flow_cache.invalidate()
        self._miss_seen.clear()
        self._mark_program_stale()

    @property
    def program(self) -> "Optional[CompiledProgram]":
        """The currently-active specialized program, if any (read-only)."""
        return self._program

    def _active_program(self) -> "Optional[CompiledProgram]":
        """The current compiled program, recompiling when hysteresis allows.

        Stale programs are never returned — ``_mark_program_stale``
        drops them synchronously — so the only question here is whether
        the accumulated mods justify paying for a recompile: either
        ``recompile_after_mods`` mods have piled up, or the control
        plane has been quiet for ``recompile_quiescent_s``.  A pipeline
        the compiler rejects leaves the switch interpreted (and charges
        nothing further) until the next mutation.
        """
        program = self._program
        if program is not None:
            return program
        if not self._pending_mods:
            return None
        if (
            self._pending_mods < self.recompile_after_mods
            and self.sim.now - self._last_mod_at < self.recompile_quiescent_s
        ):
            return None
        self._pending_mods = 0
        program = compile_datapath(self)
        if program is None:
            self.program_compile_failures += 1
        else:
            self.program_compiles += 1
            self._program = program
        return program

    def stats(self) -> dict:
        """Datapath counters: forwarding, specialization, microflow cache."""
        return {
            "packets_forwarded": self.packets_forwarded,
            "packets_dropped": self.packets_dropped,
            "packets_to_controller": self.packets_to_controller,
            "floods_suppressed": self.floods_suppressed,
            "packet_ins_suppressed": self.packet_ins_suppressed,
            "specialization": {
                "enabled": self.specialize,
                "active": self._program is not None,
                "compiles": self.program_compiles,
                "compile_failures": self.program_compile_failures,
                "invalidations": self.program_invalidations,
                "pending_mods": self._pending_mods,
                "specialized_frames": self.specialized_frames,
                "fallback_frames": self.fallback_frames,
                "ineligible_reason": self.compile_ineligible_reason,
            },
            "cache": self.flow_cache.stats() if self.flow_cache is not None else None,
        }

    # ---------------------------------------------------------- data plane

    def receive(self, port: Port, frame: EthernetFrame) -> None:
        self._walk_and_emit(frame, port.number)

    def receive_burst(
        self, port: Port, arrivals: "list[tuple[float, EthernetFrame]]"
    ) -> None:
        """A coalesced link burst lands here; route it to the batch path."""
        if len(arrivals) == 1:
            self._walk_and_emit(arrivals[0][1], port.number)
        else:
            self.process_batch(port.number, [frame for _, frame in arrivals])

    def inject(self, frame: EthernetFrame, in_port: int) -> None:
        """Run a frame through the pipeline as if it arrived on *in_port*."""
        self._walk_and_emit(frame, in_port)

    def process_batch(
        self, in_port: int, frames: "list[EthernetFrame]"
    ) -> None:
        """Run a burst through the pipeline, amortising per-frame overhead.

        Semantically this is exactly ``for f in frames: inject(f,
        in_port)`` executed at one simulated instant — bit-identical
        emitted frames, order, packet-ins and counters (proven by the
        randomized differential suite).  Every frame takes the same
        interpreted walk as a single frame (:meth:`_run_pipeline`); what
        the batch adds happens only at the edges:

        * each distinct frame *object* is decoded once per burst
          (generators emit per-flow template frames, so a 32-frame
          burst from 4 flows costs 4 decodes, not 32);
        * outputs whose cost-model charge is already covered are
          emitted as one egress burst per port
          (:meth:`Port.send_burst` → one link event per burst) instead
          of one simulator event per frame.

        Frames whose processing cost pushes completion past ``now``
        fall back to per-frame deferred emission, exactly like the
        single-frame path, so the cost model stays authoritative.
        Packet-ins are never batched: they reach ``to_controller`` at
        the same per-frame points as sequential processing, so even a
        synchronously wired controller that reprograms the pipeline
        mid-burst sees identical behaviour.
        """
        if not frames:
            return
        if len(frames) == 1:
            self._walk_and_emit(frames[0], in_port)
            return
        if self.specialize:
            program = self._active_program()
            if program is not None:
                program.run_burst(in_port, frames)
                return
            self.fallback_frames += len(frames)
        now = self.sim.now
        #: id(frame) -> its decoded view (frames are not mutated by the
        #: pipeline — actions transform copies — so the memo is safe for
        #: the burst's lifetime)
        views: "dict[int, PacketView]" = {}
        #: egress frames grouped per port as cleared frames land
        per_port: "dict[int, list[EthernetFrame]]" = {}
        outputs: "list[tuple[int, EthernetFrame]]" = []
        async_messages: "list[OpenFlowMessage]" = []
        run_pipeline, charge = self._run_pipeline, self._charge
        saved_tx, saved_async = self._tx_buffer, self._async_buffer
        try:
            for frame in frames:
                view = views.get(id(frame))
                if view is None:
                    view = views[id(frame)] = PacketView(frame, in_port)
                stats = PipelineStats()
                self._tx_buffer, self._async_buffer = outputs, async_messages
                run_pipeline(view, stats)
                finish = charge(stats)
                if not outputs and not async_messages:
                    continue
                if finish > now:
                    # Deferred emission keeps per-frame timing; the
                    # buffers now belong to the scheduled closure.
                    self.sim.schedule_at(
                        finish, lambda o=outputs, a=async_messages: self._emit(o, a)
                    )
                    outputs, async_messages = [], []
                    continue
                for port_number, out_frame in outputs:
                    chain = per_port.get(port_number)
                    if chain is None:
                        per_port[port_number] = [out_frame]
                    else:
                        chain.append(out_frame)
                outputs.clear()
                if async_messages:
                    # Delivered at the same point the sequential path
                    # would deliver them, so a synchronously wired
                    # controller reacting to frame i still reprograms the
                    # pipeline before frame i+1 — and, because the egress
                    # accumulated so far is flushed first, sees the same
                    # forwarding and port statistics sequential
                    # processing would show it.
                    self._send_bursts(per_port)
                    self._emit([], async_messages)
                    async_messages.clear()
        finally:
            self._tx_buffer, self._async_buffer = saved_tx, saved_async
        self.batch_bursts += 1
        self.batch_frames += len(frames)
        self.batch_unique_keys += len({view.flow_key() for view in views.values()})
        self._send_bursts(per_port)

    def _send_bursts(self, per_port: "dict[int, list[EthernetFrame]]") -> None:
        """Emit a burst's coalesced egress, one ``send_burst`` per port."""
        for port_number, port_frames in per_port.items():
            self.packets_forwarded += len(port_frames)
            self.port(port_number).send_burst(port_frames)
        per_port.clear()

    def _walk_and_emit(self, frame: EthernetFrame, in_port: int) -> None:
        """Serve one frame: compiled tier 0 when active, else the interpreter."""
        if self.specialize:
            program = self._active_program()
            if program is not None:
                program.run_one(frame, in_port)
                return
        self._interpret_one(frame, in_port)

    def _interpret_one(self, frame: EthernetFrame, in_port: int) -> None:
        """Run one frame through the interpreter, then emit its buffered
        outputs after the CPU cost.

        Outputs are buffered during the walk so the cost-model delay
        (which depends on what the pipeline did) lands *before* the
        frame leaves — that is how the processing cost becomes visible
        as forwarding latency.  The compiled tier hands its FALLBACK
        decisions (packet-in, flood, action-set semantics...) here too,
        and this method does all of their counting; ``fallback_frames``
        counts only while specialization is enabled.
        """
        if self.specialize:
            self.fallback_frames += 1
        stats = PipelineStats()
        outputs, async_messages = self._buffered(
            self._run_pipeline, PacketView(frame, in_port), stats
        )
        self._flush(outputs, async_messages, stats)

    def _buffered(
        self, runner, *args
    ) -> "tuple[list[tuple[int, EthernetFrame]], list[OpenFlowMessage]]":
        """Run *runner* against fresh emission buffers; return what it buffered.

        The previous buffers are saved and restored, so a packet-out
        handled while a pipeline walk is in flight (reentrant controller
        callbacks) can never drop the walk's buffered outputs.
        """
        saved_tx, saved_async = self._tx_buffer, self._async_buffer
        self._tx_buffer, self._async_buffer = [], []
        try:
            runner(*args)
            return self._tx_buffer, self._async_buffer
        finally:
            self._tx_buffer, self._async_buffer = saved_tx, saved_async

    def _flush(
        self,
        outputs: "list[tuple[int, EthernetFrame]]",
        async_messages: "list[OpenFlowMessage]",
        stats: PipelineStats,
    ) -> None:
        finish = self._charge(stats)
        if not outputs and not async_messages:
            return
        if finish <= self.sim.now:
            self._emit(outputs, async_messages)
        else:
            self.sim.schedule_at(
                finish, lambda: self._emit(outputs, async_messages)
            )

    def _emit(
        self,
        outputs: "list[tuple[int, EthernetFrame]]",
        async_messages: "list[OpenFlowMessage]",
    ) -> None:
        """One frame's buffered emissions, frame-at-a-time on the wire."""
        for port_number, out_frame in outputs:
            self.packets_forwarded += 1
            self.port(port_number).send(out_frame)
        for message in async_messages:
            if self.to_controller is not None:
                self.to_controller(message.to_bytes())

    def _charge(self, stats: PipelineStats) -> float:
        """Account CPU time for a pipeline walk (serialises the core).

        Returns the simulated time at which processing completes.
        """
        if self._cost_is_zero:
            start = self.sim.now
            if self.busy_until > start:
                start = self.busy_until
            self.busy_until = start
            return start
        cost = self.cost_model.cost_s(
            lookups=stats.lookups,
            actions=stats.actions,
            vlan_ops=stats.vlan_ops,
            group_selections=stats.group_selections,
        )
        start = max(self.sim.now, self.busy_until)
        self.busy_until = start + cost
        return self.busy_until

    def _run_pipeline(self, view: PacketView, stats: PipelineStats) -> None:
        """One interpreted walk: replay the memoised walk on a microflow
        cache hit, else search the classifier (which memoises the walk).

        A hit is only served while every matched entry is live: a mortal
        entry can lapse between expiry sweeps, and its stale walk is
        dropped here before the classifier re-decides.
        """
        now = self.sim.now
        cache = self.flow_cache
        if cache is not None:
            key = view.flow_key()
            cached = cache.get(key)
            if cached is not None:
                for _, entry in cached.steps:
                    if entry.is_expired(now):
                        cache.discard(key)
                        break
                else:
                    cache.hits += 1
                    self._replay(cached, view, stats, now)
                    return
            cache.misses += 1
        self._slow_path(view, stats, now)

    def _replay(
        self, cached: CachedPath, view: PacketView, stats: PipelineStats, now: float
    ) -> None:
        """Re-execute a memoised walk.

        Only the per-table classifier search is skipped: counters,
        action execution, group selection and packet-in all run exactly
        as on the slow path, so behaviour is bit-identical.
        """
        current, in_port = view.frame, view.in_port
        action_set: dict[str, Action] = {}
        for table_id, entry in cached.steps:
            table = self.tables[table_id]
            table.lookups += 1
            table.matches += 1
            stats.lookups += 1
            current = self._execute_entry(entry, current, in_port, stats, action_set, now)[0]
        if cached.miss_table is not None:
            self.tables[cached.miss_table].lookups += 1
            stats.lookups += 1
            self.packets_dropped += 1
            return
        if action_set:
            ordered = self._order_action_set(action_set)
            self._apply_actions(ordered, current, in_port, stats)

    def _slow_path(self, view: PacketView, stats: PipelineStats, now: float) -> None:
        key = view.flow_key()  # the *ingress* key — what the cache indexes
        in_port = view.in_port
        table_id = 0
        action_set: dict[str, Action] = {}
        current = view.frame
        steps: "list[tuple[int, FlowEntry]]" = []
        #: (table id, flow key the lookup used there) — the dependency
        #: record a later FlowMod ADD is tested against.
        visits: "list[tuple[int, tuple[int | None, ...]]]" = []
        miss_table: "int | None" = None
        cache = self.flow_cache
        while table_id < len(self.tables):
            if view.frame is not current:
                view = PacketView(current, in_port)
            table = self.tables[table_id]
            if cache is not None:
                visits.append((table_id, view.flow_key()))
            entry = (
                table.lookup(view, now)
                if self.fast_path
                else table.linear_lookup(view, now)
            )
            stats.lookups += 1
            if entry is None:
                self.packets_dropped += 1
                miss_table = table_id
                break
            steps.append((table_id, entry))
            current, next_table = self._execute_entry(
                entry, current, in_port, stats, action_set, now
            )
            if next_table is None:
                break
            if next_table <= table_id:
                raise ValueError(
                    f"{self.name}: goto-table must increase ({table_id} -> {next_table})"
                )
            table_id = next_table
        if cache is not None:
            cache.store(
                key,
                CachedPath(
                    steps=tuple(steps),
                    miss_table=miss_table,
                    visits=tuple(visits),
                    group_ids=self._group_refs(steps),
                ),
            )
        if action_set and miss_table is None:
            ordered = self._order_action_set(action_set)
            self._apply_actions(ordered, current, in_port, stats)
        # No action set and no outputs along the way: packet is dropped
        # implicitly (already accounted where applicable).

    @staticmethod
    def _group_refs(steps: "list[tuple[int, FlowEntry]]") -> tuple[int, ...]:
        """Groups referenced by the matched entries' instructions.

        Direct references only: replay executes group actions against
        the live group table, so bucket contents (including nested
        group chains) are always read fresh — the dependency exists to
        drop memoised walks whose behaviour a GroupMod redirects.
        """
        refs = []
        for _, entry in steps:
            for instruction in entry.instructions:
                for action in getattr(instruction, "actions", ()):
                    if isinstance(action, GroupAction):
                        refs.append(action.group_id)
        return tuple(refs)

    def _execute_entry(
        self,
        entry: FlowEntry,
        current: EthernetFrame,
        in_port: int,
        stats: PipelineStats,
        action_set: "dict[str, Action]",
        now: float,
    ) -> "tuple[EthernetFrame, int | None]":
        """Run one matched entry's instructions; shared by both paths."""
        entry.touch(now, current.wire_length)
        next_table: "int | None" = None
        for instruction in entry.instructions:
            if isinstance(instruction, ApplyActions):
                current = self._apply_actions(instruction.actions, current, in_port, stats)
            elif isinstance(instruction, WriteActions):
                for action in instruction.actions:
                    action_set[self._action_set_key(action)] = action
            elif isinstance(instruction, ClearActions):
                action_set.clear()
            elif isinstance(instruction, GotoTable):
                next_table = instruction.table_id
        return current, next_table

    @staticmethod
    def _action_set_key(action: Action) -> str:
        # One action of each kind in the set; output/group share a slot
        # (group takes precedence per spec).
        if isinstance(action, (OutputAction, GroupAction)):
            return "output"
        return type(action).__name__

    @staticmethod
    def _order_action_set(action_set: dict[str, Action]) -> list[Action]:
        """Spec order: pop, push, set-field, then output/group last."""
        precedence = {
            "PopVlanAction": 0,
            "PushVlanAction": 1,
            "SetFieldAction": 2,
            "output": 3,
        }
        return [
            action
            for _, action in sorted(
                action_set.items(), key=lambda item: precedence.get(item[0], 2)
            )
        ]

    def _apply_actions(
        self,
        actions: "Sequence[Action]",
        frame: EthernetFrame,
        in_port: int,
        stats: PipelineStats,
    ) -> EthernetFrame:
        """Execute *actions* in order, returning the transformed frame."""
        current = frame
        for action in actions:
            stats.actions += 1
            if isinstance(action, OutputAction):
                self._output(current, action, in_port)
            elif isinstance(action, GroupAction):
                self._run_group(current, action.group_id, in_port, stats)
            elif isinstance(action, (PushVlanAction, PopVlanAction)):
                stats.vlan_ops += 1
                current = action.apply(current)
            else:
                current = action.apply(current)
        return current

    def _output(self, frame: EthernetFrame, action: OutputAction, in_port: int) -> None:
        port_no = action.port
        if port_no == c.OFPP_CONTROLLER:
            self._send_packet_in(
                frame, in_port, reason=c.OFPR_ACTION, max_len=action.max_len
            )
            return
        if port_no in (c.OFPP_FLOOD, c.OFPP_ALL):
            guard = self.flood_guard
            if guard is not None and not guard.allow(in_port, self.sim.now):
                self.floods_suppressed += 1
                return
            for number in sorted(self.ports):
                if number != in_port:
                    self._tx_buffer.append((number, frame))
            return
        if port_no == c.OFPP_IN_PORT:
            self._tx_buffer.append((in_port, frame))
            return
        if port_no in self.ports:
            self._tx_buffer.append((port_no, frame))
        else:
            self.packets_dropped += 1

    def _run_group(
        self, frame: EthernetFrame, group_id: int, in_port: int, stats: PipelineStats
    ) -> None:
        entry = self.groups.get(group_id)
        if entry is None:
            self.packets_dropped += 1
            return
        entry.packet_count += 1
        if entry.group_type == c.OFPGT_ALL:
            for index, bucket in enumerate(entry.buckets):
                entry.bucket_packet_counts[index] += 1
                self._apply_actions(bucket.actions, frame.copy(), in_port, stats)
            return
        view = PacketView(frame, in_port)
        stats.group_selections += 1
        if entry.group_type == c.OFPGT_SELECT:
            index = entry.select_bucket(view, hash_fields=self.select_hash_fields)
        else:  # indirect
            index = 0 if entry.buckets else None
        if index is None:
            self.packets_dropped += 1
            return
        entry.bucket_packet_counts[index] += 1
        self._apply_actions(entry.buckets[index].actions, frame, in_port, stats)

    # -------------------------------------------------------- controller IO

    def _next_xid(self) -> int:
        self._xid += 1
        return self._xid

    def _send_async(self, message: OpenFlowMessage) -> None:
        if self.to_controller is not None:
            self.to_controller(message.to_bytes())

    def _send_packet_in(
        self,
        frame: EthernetFrame,
        in_port: int,
        reason: int,
        max_len: int = c.OFPCML_NO_BUFFER,
    ) -> None:
        window = self.miss_suppression_s
        if window > 0.0:
            # Negative cache: one packet-in per miss signature per
            # window.  A miss *storm* (same offending flow hammering
            # the table-miss entry) costs the controller one message
            # per window instead of one per frame; distinct signatures
            # — i.e. steady-state reactive behaviour — pass untouched.
            signature = (in_port, frame.src, frame.dst, frame.vlan_id)
            now = self.sim.now
            last = self._miss_seen.get(signature)
            if last is not None and now - last < window:
                self.packet_ins_suppressed += 1
                return
            if len(self._miss_seen) >= MISS_CACHE_LIMIT:
                self._miss_seen.clear()
            self._miss_seen[signature] = now
        self.packets_to_controller += 1
        data = frame.to_bytes()
        if max_len != c.OFPCML_NO_BUFFER:
            data = data[:max_len]
        self._async_buffer.append(
            PacketIn(
                xid=self._next_xid(),
                reason=reason,
                match=Match(in_port=in_port),
                data=data,
            )
        )

    def handle_message(self, raw: bytes) -> list[bytes]:
        """Process one controller->switch message; returns reply bytes."""
        message = parse_message(raw)
        if isinstance(message, Hello):
            return [Hello(xid=message.xid).to_bytes()]
        if isinstance(message, EchoRequest):
            return [EchoReply(xid=message.xid, payload=message.payload).to_bytes()]
        if isinstance(message, FeaturesRequest):
            return [
                FeaturesReply(
                    xid=message.xid,
                    datapath_id=self.datapath_id,
                    n_buffers=0,
                    n_tables=len(self.tables),
                ).to_bytes()
            ]
        if isinstance(message, FlowMod):
            error = self._handle_flow_mod(message)
            return [error.to_bytes()] if error else []
        if isinstance(message, GroupMod):
            error = self._handle_group_mod(message)
            return [error.to_bytes()] if error else []
        if isinstance(message, PacketOut):
            self._handle_packet_out(message)
            return []
        if isinstance(message, FlowStatsRequest):
            return [self._flow_stats(message).to_bytes()]
        if isinstance(message, PortStatsRequest):
            return [self._port_stats(message).to_bytes()]
        from repro.openflow.messages import BarrierReply, BarrierRequest

        if isinstance(message, BarrierRequest):
            return [BarrierReply(xid=message.xid).to_bytes()]
        return [
            ErrorMsg(
                xid=message.xid, error_type=1, code=0, data=raw[:64]
            ).to_bytes()
        ]

    def _handle_flow_mod(self, message: FlowMod) -> "ErrorMsg | None":
        if message.table_id >= len(self.tables):
            return ErrorMsg(xid=message.xid, error_type=5, code=2)  # bad table
        for instruction in message.instructions:
            # A goto must move forward to an existing table (OpenFlow 1.3
            # §5.1): refuse the FlowMod rather than fail later on the
            # first packet whose walk reaches it.
            if isinstance(instruction, GotoTable) and not (
                message.table_id < instruction.table_id < len(self.tables)
            ):
                return ErrorMsg(xid=message.xid, error_type=3, code=2)  # bad table id
        table = self.tables[message.table_id]
        cache = self.flow_cache
        now = self.sim.now
        # Every state-changing FlowMod below invalidates the microflow
        # cache *dependency-scoped*: only memoised walks the change can
        # actually redirect are dropped, so churn against unrelated
        # tables or masks keeps the cache warm (as do no-ops: deletes
        # that remove nothing, rejected commands).
        if message.command == c.OFPFC_ADD:
            if message.idle_timeout or message.hard_timeout:
                self._ensure_sweeper()
            table.install(
                FlowEntry(
                    match=message.match,
                    priority=message.priority,
                    instructions=list(message.instructions),
                    cookie=message.cookie,
                    idle_timeout=float(message.idle_timeout),
                    hard_timeout=float(message.hard_timeout),
                    send_flow_removed=bool(message.flags & 1),
                ),
                now,
            )
            if cache is not None:
                cache.invalidate_for_add(
                    message.table_id, message.match, message.priority
                )
            self._mark_program_stale()
            return None
        if message.command in (c.OFPFC_DELETE, c.OFPFC_DELETE_STRICT):
            removed = table.delete(
                message.match,
                priority=message.priority,
                strict=message.command == c.OFPFC_DELETE_STRICT,
                cookie=message.cookie,
                cookie_mask=message.cookie_mask,
            )
            if removed:
                if cache is not None:
                    cache.invalidate_entries(removed)
                self._mark_program_stale()
            for entry in removed:
                if entry.send_flow_removed:
                    self._send_async(
                        FlowRemoved(
                            xid=self._next_xid(),
                            match=entry.match,
                            cookie=entry.cookie,
                            priority=entry.priority,
                            reason=c.OFPRR_DELETE,
                            table_id=table.table_id,
                            packet_count=entry.packet_count,
                            byte_count=entry.byte_count,
                        )
                    )
            return None
        if message.command in (c.OFPFC_MODIFY, c.OFPFC_MODIFY_STRICT):
            modified = []
            for entry in table:
                same_priority = (
                    entry.priority == message.priority
                    or message.command == c.OFPFC_MODIFY
                )
                if same_priority and entry.match == message.match:
                    entry.instructions = list(message.instructions)
                    if message.cookie:
                        entry.cookie = message.cookie
                    modified.append(entry)
            if modified:
                if cache is not None:
                    cache.invalidate_entries(modified)
                self._mark_program_stale()
            return None
        return ErrorMsg(xid=message.xid, error_type=4, code=0)  # bad command

    def _handle_group_mod(self, message: GroupMod) -> "ErrorMsg | None":
        try:
            if message.command == c.OFPGC_ADD:
                self.groups.add(message.group_id, message.group_type, message.buckets)
            elif message.command == c.OFPGC_MODIFY:
                self.groups.modify(
                    message.group_id, message.group_type, message.buckets
                )
            elif message.command == c.OFPGC_DELETE:
                self.groups.delete(message.group_id)
            else:
                return ErrorMsg(xid=message.xid, error_type=6, code=0)
        except (ValueError, KeyError):
            return ErrorMsg(xid=message.xid, error_type=6, code=1)
        # Bucket changes redirect memoised walks whose matched entries
        # reference this group; walks using other groups (or none) stay.
        if self.flow_cache is not None:
            self.flow_cache.invalidate_group(message.group_id)
        self._mark_program_stale()
        return None

    def _handle_packet_out(self, message: PacketOut) -> None:
        frame = EthernetFrame.from_bytes(message.data)
        in_port = (
            message.in_port
            if message.in_port not in (c.OFPP_CONTROLLER, c.OFPP_ANY)
            else 0
        )
        stats = PipelineStats()
        outputs, async_messages = self._buffered(
            self._apply_actions, message.actions, frame, in_port, stats
        )
        self._flush(outputs, async_messages, stats)

    def _flow_stats(self, message: FlowStatsRequest) -> FlowStatsReply:
        entries = []
        for table in self.tables:
            if message.table_id != 0xFF and table.table_id != message.table_id:
                continue
            for entry in table:
                if not entry.match.is_subset_of(message.match):
                    continue
                entries.append(
                    FlowStatsEntry(
                        table_id=table.table_id,
                        priority=entry.priority,
                        packet_count=entry.packet_count,
                        byte_count=entry.byte_count,
                        match=entry.match,
                    )
                )
        return FlowStatsReply(xid=message.xid, entries=entries)

    def _port_stats(self, message: PortStatsRequest) -> PortStatsReply:
        entries = []
        for number in sorted(self.ports):
            if message.port_no not in (c.OFPP_ANY, number):
                continue
            port = self.ports[number]
            entries.append(
                PortStatsEntry(
                    port_no=number,
                    rx_packets=port.rx_frames,
                    tx_packets=port.tx_frames,
                    rx_bytes=port.rx_bytes,
                    tx_bytes=port.tx_bytes,
                    tx_dropped=port.tx_dropped,
                )
            )
        return PortStatsReply(xid=message.xid, entries=entries)

    # ----------------------------------------------------------- timeouts

    def _ensure_sweeper(self) -> None:
        if self._sweep_scheduled:
            return
        self._sweep_scheduled = True
        self.sim.schedule(EXPIRY_SWEEP_INTERVAL_S, self._sweep)

    def _sweep(self) -> None:
        now = self.sim.now
        any_mortal_flows = False
        for table in self.tables:
            expired = table.expire(now)
            if expired:
                if self.flow_cache is not None:
                    self.flow_cache.invalidate_entries(expired)
                self._mark_program_stale()
            for entry in expired:
                if entry.send_flow_removed:
                    reason = (
                        c.OFPRR_HARD_TIMEOUT
                        if entry.hard_timeout
                        and now - entry.installed_at >= entry.hard_timeout
                        else c.OFPRR_IDLE_TIMEOUT
                    )
                    self._send_async(
                        FlowRemoved(
                            xid=self._next_xid(),
                            match=entry.match,
                            cookie=entry.cookie,
                            priority=entry.priority,
                            reason=reason,
                            table_id=table.table_id,
                            packet_count=entry.packet_count,
                            byte_count=entry.byte_count,
                        )
                    )
            if any(flow.idle_timeout or flow.hard_timeout for flow in table):
                any_mortal_flows = True
        if any_mortal_flows:
            self.sim.schedule(EXPIRY_SWEEP_INTERVAL_S, self._sweep)
        else:
            self._sweep_scheduled = False

    # ------------------------------------------------------------- helpers

    def dump_pipeline(self) -> str:
        """All tables + groups, readable (used by FIG1 bench)."""
        sections = [f"=== {self.name} (dpid={self.datapath_id:#x}) ==="]
        for table in self.tables:
            if len(table):
                sections.append(table.dump())
        if len(self.groups):
            sections.append(self.groups.dump())
        return "\n".join(sections)
