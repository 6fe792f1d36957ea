"""Per-layer span tracing, installed from outside the library at runtime.

The benchmark never edits ``src/``.  For a traced run it replaces the
public entry points of each layer (class methods, properties and a few
module functions) with thin wrappers that record one span per call in
memory: name, start, end, parent span, burst-round id and a unit count
(frames carried by a link burst, FlowMods among controller sends).  :meth:`Tracer.restore` puts every
original object back, so the untraced runs execute the unmodified
program.

A layer's *self time* is the time its spans cover minus the part their
child spans cover; code that no wrapper marks (the simulator's delivery
closures, for instance) is charged to the nearest enclosing span.  The
layer of a span is the part of its name before the first dot, which is
the library module it belongs to (``net``, ``netsim``, ``legacy``,
``softswitch``, ``control``, ``snmp``, ``mgmt``, ``core``, ``sharded``).
"""

from __future__ import annotations

import functools
import statistics
import time
from array import array
from dataclasses import dataclass, field

#: Spans whose per-call durations are kept for a median (all others
#: only aggregate).
DURATION_SPANS = frozenset({"control.handle_message"})


@dataclass
class SpanStats:
    """Aggregate of every span with one name over a set of rounds."""

    calls: int = 0
    units: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: "list[float]" = field(default_factory=list)

    def merge(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.units += other.units
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.durations.extend(other.durations)

    def median_s(self) -> "float | None":
        return statistics.median(self.durations) if self.durations else None


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self._names: "list[str]" = []
        self._name_ids: "dict[str, int]" = {}
        self._name_col = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._round = array("i")
        self._units = array("i")
        self._stack: "list[int]" = []
        self.round_id = 0
        #: Spans before this index belong to another process (set just
        #: before a fork, so a forked worker summarises only its own).
        self.fork_mark = 0
        self._patches: "list[tuple[object, str, object, bool]]" = []

    # ------------------------------------------------------------ recording

    def name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return ident

    def open(self, name_id: int, units: int = 1) -> int:
        index = len(self._start)
        self._name_col.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._round.append(self.round_id)
        self._units.append(units)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    def mark_fork(self) -> None:
        self.fork_mark = len(self._start)

    # ------------------------------------------------------------ patching

    def wrap(self, owner, attr: str, span, units=None) -> None:
        """Wrap ``owner.attr`` (function, classmethod or property) so
        each call records a span.

        *span* is a span name, or a callable taking the call's
        positional arguments and returning one (e.g. to tell SS_1 from
        SS_2 by the switch name).  *units* optionally maps the
        arguments to the unit count recorded with the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, property):
            replacement = property(self._wrapper(original.fget, span, units))
        elif isinstance(original, classmethod):
            replacement = classmethod(self._wrapper(original.__func__, span, units))
        else:
            replacement = self._wrapper(original, span, units)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, True))

    def wrap_family(self, base: type, attr: str, span, units=None) -> None:
        """Wrap *attr* on *base* and on every subclass that overrides it."""
        pending, seen = [base], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            if attr in cls.__dict__:
                self.wrap(cls, attr, span, units)
            pending.extend(cls.__subclasses__())

    def add(self, owner: type, attr: str, value) -> None:
        """Attach a benchmark-only attribute; removed by :meth:`restore`."""
        if attr in owner.__dict__:
            raise ValueError(f"{owner.__name__}.{attr} already exists")
        setattr(owner, attr, value)
        self._patches.append((owner, attr, None, False))

    def patched(self) -> "list[tuple[object, str, object, bool]]":
        return list(self._patches)

    def restore(self) -> None:
        """Put back every wrapped original and drop every added attribute."""
        while self._patches:
            owner, attr, original, existed = self._patches.pop()
            if existed:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrapper(self, fn, span, units):
        tracer = self
        if callable(span):
            cache: "dict[str, int]" = {}

            def resolve(args):
                name = span(args)
                ident = cache.get(name)
                if ident is None:
                    ident = cache[name] = tracer.name_id(name)
                return ident
        else:
            fixed = self.name_id(span)

            def resolve(args):
                return fixed

        if units is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = tracer.open(resolve(args))
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(index)
        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = tracer.open(resolve(args), units(args))
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(index)

        return wrapper

    # ------------------------------------------------------------ analysis

    def summary(self, measured: bool) -> "dict[str, SpanStats]":
        """Per-name aggregates over the setup round (round 0) or over
        the measured rounds (round >= 1), for spans this process
        recorded since :attr:`fork_mark`.
        """
        first = self.fork_mark
        count = len(self._start)
        start, end, parent = self._start, self._end, self._parent
        child_s = [0.0] * (count - first)
        for index in range(first, count):
            owner = parent[index]
            if owner >= first:
                child_s[owner - first] += end[index] - start[index]
        out: "dict[str, SpanStats]" = {}
        names, name_col, rounds, units = self._names, self._name_col, self._round, self._units
        for index in range(first, count):
            round_id = rounds[index]
            if not (round_id > 0 if measured else round_id == 0):
                continue
            name = names[name_col[index]]
            stats = out.get(name)
            if stats is None:
                stats = out[name] = SpanStats()
            duration = end[index] - start[index]
            stats.calls += 1
            stats.units += units[index]
            stats.total_s += duration
            stats.self_s += duration - child_s[index - first]
            if name in DURATION_SPANS:
                stats.durations.append(duration)
        return out

    @property
    def spans(self) -> int:
        return len(self._start)


def merge_summaries(parts: "list[dict[str, SpanStats]]") -> "dict[str, SpanStats]":
    merged: "dict[str, SpanStats]" = {}
    for part in parts:
        for name, stats in part.items():
            merged.setdefault(name, SpanStats()).merge(stats)
    return merged


def layer_self_s(summary: "dict[str, SpanStats]") -> "dict[str, float]":
    """Self time per layer (span-name prefix)."""
    layers: "dict[str, float]" = {}
    for name, stats in summary.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + stats.self_s
    return layers


def install_layer_spans(tracer: Tracer, probe) -> None:
    """Wrap the public entry points of every layer the benchmark crosses.

    *probe* (``worker -> dict``) is exposed to forked shard workers as
    ``bench_probe`` so the benchmark can read their public counters.
    """
    from repro.apps.learning_switch import LearningSwitchApp
    from repro.controller import core as controller_core
    from repro.controller.core import Controller, Datapath
    from repro.core.manager import HarmlessFleet, HarmlessManager
    from repro.fabric.partition import ShardWorker
    from repro.legacy.switch import LegacySwitch
    from repro.mgmt.base import NetworkDriver
    from repro.net.ethernet import EthernetFrame
    from repro.netsim.host import Host
    from repro.netsim.link import Link
    from repro.netsim.simulator import Simulator
    from repro.openflow.messages import FlowMod
    from repro.snmp.agent import SnmpAgent
    from repro.softswitch.datapath import SoftSwitch

    # net: frame objects and codecs.
    tracer.wrap(EthernetFrame, "__init__", "net.frame_init")
    for attr in ("push_vlan", "pop_vlan", "set_vlan"):
        tracer.wrap(EthernetFrame, attr, "net.vlan")
    tracer.wrap(EthernetFrame, "to_bytes", "net.codec")
    tracer.wrap(EthernetFrame, "from_bytes", "net.codec")
    tracer.wrap(EthernetFrame, "wire_length", "net.wire_length")

    # netsim: event loop, links, host stacks.
    tracer.wrap_family(Simulator, "run", "netsim.sim")
    tracer.wrap(Link, "transmit", "netsim.link")
    tracer.wrap(Link, "transmit_burst", "netsim.link", units=lambda args: len(args[2]))
    tracer.wrap(Host, "receive", "netsim.host")

    # legacy: the 802.1Q bridging hop.
    tracer.wrap(LegacySwitch, "receive", "legacy.receive")
    tracer.wrap(LegacySwitch, "receive_burst", "legacy.receive_burst")

    # softswitch: SS_1 (translator) and SS_2 (controller-facing) datapaths.
    def datapath_span(args) -> str:
        return "softswitch.ss1" if args[0].name.endswith("-ss1") else "softswitch.ss2"

    for attr in ("receive", "receive_burst", "process_batch", "inject"):
        tracer.wrap(SoftSwitch, attr, datapath_span)

    # control: OpenFlow channel, both ends, and the controller app.
    tracer.wrap(SoftSwitch, "handle_message", "control.handle_message")
    # Units of a controller send: 1 for a FlowMod, 0 otherwise.
    is_flow_mod = lambda args: int(isinstance(args[1], FlowMod))  # noqa: E731
    tracer.wrap(Datapath, "send", "control.send", units=is_flow_mod)
    tracer.wrap(Datapath, "send_with_reply", "control.send", units=is_flow_mod)
    tracer.wrap(controller_core, "parse_message", "control.parse")
    tracer.wrap(Controller, "connect", "control.connect")
    tracer.wrap(LearningSwitchApp, "on_packet_in", "control.app")

    # snmp / mgmt / core: device bring-up and the rollout workflow.
    tracer.wrap(SnmpAgent, "handle", "snmp.handle")
    for attr in (
        "get_facts", "get_interfaces", "get_vlans", "render_config",
        "parse_config", "load_merge_candidate", "commit_config", "rollback",
        "apply_ops",
    ):
        tracer.wrap_family(NetworkDriver, attr, "mgmt.driver")
    tracer.wrap(HarmlessManager, "migrate", "core.migrate")
    tracer.wrap(HarmlessManager, "verify_deployment", "core.verify")
    tracer.wrap(HarmlessFleet, "verify_reachability", "core.sweep")

    # sharded: the collective run of a shard worker (sync + its events).
    tracer.wrap(ShardWorker, "run", "sharded.run")
    # Forked shard workers hold their own copy of the tracer; these
    # hooks let the benchmark set their round id and read their spans
    # and counters.
    tracer.add(ShardWorker, "bench_set_round", _worker_set_round(tracer))
    tracer.add(ShardWorker, "bench_summary", _worker_summary(tracer))
    tracer.add(ShardWorker, "bench_probe", probe)


def _worker_set_round(tracer: Tracer):
    def bench_set_round(worker, round_id: int) -> None:
        tracer.round_id = round_id

    return bench_set_round


def _worker_summary(tracer: Tracer):
    def bench_summary(worker) -> "dict[str, dict[str, SpanStats]]":
        return {"setup": tracer.summary(False), "measured": tracer.summary(True)}

    return bench_summary
