"""Conservative-lookahead sharded simulation.

One :class:`repro.netsim.simulator.Simulator` is single-threaded, so a
fabric's aggregate packet rate is capped by one core.  This module
splits a simulation into *shards* — independent event loops that only
interact across a known set of *boundary links* with positive
propagation delay — and runs them in parallel with the classic
conservative (lookahead-window) synchronisation of parallel discrete
event simulation:

* **Lookahead** ``L`` is the minimum propagation delay over all
  boundary links.  A frame transmitted at local time ``t`` cannot
  arrive at a peer shard before ``t + L``.
* **Skip-ahead rounds (v2).**  Each barrier piggy-backs every shard's
  true next-event time (own queue head, or the earliest arrival among
  the records it is flushing right now).  A shard then runs up to the
  asymmetric horizon ``min(peers_next, own_flushed_next) + L`` — the
  earliest instant a *peer* could still cause an event here — instead
  of a fixed ``global_next + L`` window.  Its own backlog does not
  bound the horizon: it is drained in ``2L`` chunks that end early the
  moment a chunk exports a boundary record (a response to an export at
  ``x`` cannot arrive before ``x + 2L``, so the chunk end never
  overtakes it).  Idle gaps — reconvergence waits, inter-burst
  spacing, fault-plan quiet periods — therefore collapse into O(1)
  rounds; ``rounds_skipped`` counts the lookahead-multiple barriers
  the v1 loop would have paid.
* **Coalesced boundary exchange (v2).**  All records destined for one
  peer in one round travel as a single message — one length-prefixed
  pickle per (peer, round) on the pipe transport, with a ``None``
  fast token for empty rounds — so trunk-heavy mixes pay one pickle
  per barrier, not per record, and idle barriers ship a few bytes.
  ``bytes_sent`` / ``bytes_received`` on the pipe endpoints make the
  exchange volume measurable.
* **Boundary exchange.**  Frames crossing a severed link are serialised
  on the owning shard with the *exact* arithmetic of
  :meth:`repro.netsim.link.Link.transmit` /
  :meth:`~repro.netsim.link.Link.transmit_burst` (tail drop,
  ``queue_hwm``, per-frame arrival timestamps), shipped as
  ``(arrival, frame)`` records at the next window barrier, and
  re-injected on the receiving shard as ordinary ``Port.deliver`` /
  ``Port.deliver_burst`` events — timestamps are preserved bit-for-bit.

The barrier exchange also carries each shard's clock and cumulative
processed-event count, so every collective ``run()`` call leaves all
shard clocks at the same value and a ``max_events`` cap is enforced
against the *global* count: all shards see the same sum at the same
barrier and break in step (no abort cascade needed).

Two transports implement the same mesh interface: an in-process
:class:`ThreadMesh` (used by the thread backend and the tests —
records cross by reference, no serialisation) and per-peer
``multiprocessing`` pipes (:func:`make_pipe_mesh` +
:class:`PipeEndpoint`, used by the fork backend in
:mod:`repro.fabric.partition` for real multi-core parallelism, where
records are pickled).

What parallelises: everything whose events stay inside one shard —
datapath batch processing, legacy bridging, controller channels, host
stacks.  What doesn't: traffic crossing a cut link pays its share of
the per-round pickle, and the round barrier itself is a full
synchronisation — so shard boundaries should cut *few, fat* burst
flows (the PR 3 burst pipeline makes inter-pod traffic exactly that).
"""

from __future__ import annotations

import pickle
import queue as _queue_mod
import threading
from typing import TYPE_CHECKING

from repro.netsim.simulator import Simulator

if TYPE_CHECKING:
    from repro.net.ethernet import EthernetFrame
    from repro.netsim.link import Link
    from repro.netsim.node import Port

_INF = float("inf")

#: Boundary record kinds: single-frame transmits re-inject through
#: ``Port.deliver``, coalesced bursts through ``Port.deliver_burst`` —
#: preserving the entry point keeps receive-side batching identical.
KIND_FRAME = 0
KIND_BURST = 1

#: How long a shard waits on a peer before declaring the mesh dead.
#: Generous: a peer may legitimately spend this long inside one window.
DEFAULT_SYNC_TIMEOUT_S = 600.0

#: Sentinel a failing shard broadcasts so peers blocked in recv() fail
#: fast instead of timing out.
_ABORT = "__shard-abort__"


class ShardSyncError(RuntimeError):
    """A collective run lost synchronisation (peer failure or timeout)."""


class PeerAborted(ShardSyncError):
    """A peer shard signalled failure mid-collective."""


# ---------------------------------------------------------------------------
# Mesh transports
# ---------------------------------------------------------------------------


class ThreadMesh:
    """All-to-all in-process mesh: one queue per directed shard pair.

    Payloads cross by reference — safe because boundary records are
    treated as immutable once flushed (frames are immutable on the
    wire), and it keeps the thread backend free of serialisation cost.
    """

    def __init__(self, nshards: int, timeout_s: float = DEFAULT_SYNC_TIMEOUT_S) -> None:
        if nshards < 2:
            raise ValueError("a mesh needs at least two shards")
        self.nshards = nshards
        self.timeout_s = timeout_s
        self._queues = {
            (src, dst): _queue_mod.SimpleQueue()
            for src in range(nshards)
            for dst in range(nshards)
            if src != dst
        }

    def endpoint(self, shard: int) -> "_ThreadEndpoint":
        return _ThreadEndpoint(self, shard)


class _ThreadEndpoint:
    """One shard's view of a :class:`ThreadMesh`."""

    def __init__(self, mesh: ThreadMesh, shard: int) -> None:
        self._mesh = mesh
        self.shard = shard

    def send(self, peer: int, payload) -> None:
        self._mesh._queues[(self.shard, peer)].put(payload)

    def recv(self, peer: int):
        try:
            payload = self._mesh._queues[(peer, self.shard)].get(
                timeout=self._mesh.timeout_s
            )
        except _queue_mod.Empty:
            raise ShardSyncError(
                f"shard {self.shard}: no message from peer {peer} within "
                f"{self._mesh.timeout_s:.0f}s"
            ) from None
        if isinstance(payload, str) and payload == _ABORT:
            raise PeerAborted(f"shard {self.shard}: peer {peer} aborted")
        return payload

    def abort(self) -> None:
        for peer in range(self._mesh.nshards):
            if peer != self.shard:
                self._mesh._queues[(self.shard, peer)].put(_ABORT)


class PipeEndpoint:
    """Mesh endpoint over ``multiprocessing`` connections (fork backend).

    *connections* maps peer shard -> a duplex ``Connection`` whose far
    end lives in the peer's process (see :func:`make_pipe_mesh`).

    Each payload crosses as one explicit :func:`pickle.dumps` blob
    (highest protocol) through ``send_bytes`` / ``recv_bytes`` — the
    ``Connection`` framing length-prefixes it — so a whole (peer,
    round) batch is a single pickle and the endpoint can meter the
    exchange: ``bytes_sent`` / ``bytes_received`` count the serialised
    payload volume for :meth:`ShardSimulator.sync_stats`.  Pickling a
    burst preserves intra-record frame identity (the pickle memo), so
    repeated per-flow template frames stay one object per burst and
    the receiving datapath still decodes each template once.
    """

    def __init__(
        self, shard: int, connections: dict, timeout_s: float = DEFAULT_SYNC_TIMEOUT_S
    ) -> None:
        self.shard = shard
        self._connections = connections
        self._timeout_s = timeout_s
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, peer: int, payload) -> None:
        blob = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        self.bytes_sent += len(blob)
        self._connections[peer].send_bytes(blob)

    def recv(self, peer: int):
        connection = self._connections[peer]
        if not connection.poll(self._timeout_s):
            raise ShardSyncError(
                f"shard {self.shard}: no message from peer {peer} within "
                f"{self._timeout_s:.0f}s"
            )
        try:
            blob = connection.recv_bytes()
        except EOFError:
            raise ShardSyncError(
                f"shard {self.shard}: peer {peer} closed its pipe"
            ) from None
        self.bytes_received += len(blob)
        payload = pickle.loads(blob)
        if isinstance(payload, str) and payload == _ABORT:
            raise PeerAborted(f"shard {self.shard}: peer {peer} aborted")
        return payload

    def abort(self) -> None:
        blob = pickle.dumps(_ABORT, pickle.HIGHEST_PROTOCOL)
        for connection in self._connections.values():
            try:
                connection.send_bytes(blob)
            except (OSError, ValueError):
                pass  # peer already gone; nothing left to warn


def make_pipe_mesh(nshards: int) -> "list[dict]":
    """Duplex pipes for every shard pair, created *before* forking.

    Returns one ``{peer: Connection}`` map per shard; each worker keeps
    its own map after fork and the parent closes every connection it
    holds (see the fork backend) so peer death surfaces as EOF.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    meshes: "list[dict]" = [dict() for _ in range(nshards)]
    for a in range(nshards):
        for b in range(a + 1, nshards):
            end_a, end_b = context.Pipe(duplex=True)
            meshes[a][b] = end_a
            meshes[b][a] = end_b
    return meshes


# ---------------------------------------------------------------------------
# The per-shard simulator
# ---------------------------------------------------------------------------


class ShardSimulator(Simulator):
    """A :class:`Simulator` whose ``run()`` is a collective operation.

    Every shard of a sharded simulation must call ``run()`` with the
    same arguments at the same point of the protocol — the call blocks
    on the window exchange until all peers arrive.  Because this *is*
    the fabric's simulator, everything built on top (fleets, hosts,
    stations) synchronises automatically: any internal
    ``sim.run(until=now + x)`` becomes a collective windowed run.

    With ``nshards == 1`` it degenerates to a plain simulator.
    """

    def __init__(
        self,
        shard: int = 0,
        nshards: int = 1,
        lookahead_s: "float | None" = None,
        transport=None,
    ) -> None:
        super().__init__()
        if nshards < 1 or not 0 <= shard < nshards:
            raise ValueError(f"bad shard index {shard}/{nshards}")
        if nshards > 1:
            if lookahead_s is None or lookahead_s <= 0:
                raise ValueError(
                    "sharded simulation needs positive lookahead (min cut-link "
                    "propagation delay)"
                )
            if transport is None:
                raise ValueError("sharded simulation needs a mesh transport")
        self.shard = shard
        self.nshards = nshards
        self.lookahead_s = lookahead_s
        self.transport = transport
        self._peers = tuple(peer for peer in range(nshards) if peer != shard)
        self._outbound: "dict[int, list]" = {peer: [] for peer in self._peers}
        self._ingress: "dict[int, Port]" = {}
        #: Boundaries whose receiving end is failed: later-injected
        #: records (frames transmitted before the failure, crossing at
        #: a subsequent barrier) are discarded instead of delivered.
        self._ingress_down: "set[int]" = set()
        #: boundary_id -> {id(event): (event, frames)} — pending
        #: imported deliveries, so a fault can drop what is mid-crossing.
        self._ingress_pending: "dict[int, dict[int, tuple[object, int]]]" = {}
        #: Imported frames discarded because their boundary was down.
        self.boundary_drops = 0
        #: Same drops attributed to the cut trunk that lost them, so a
        #: sharded fault run can name the boundary a frame died on.
        self.boundary_drops_by_id: "dict[int, int]" = {}
        self.sync_rounds = 0
        #: Barriers the v1 fixed-window loop would have paid that the
        #: skip-ahead horizon crossed in one round.
        self.rounds_skipped = 0
        self.frames_exported = 0
        self.frames_imported = 0
        #: Boundary records (frame/burst units, = pickled list entries)
        #: handed to the transport; with ``sync_rounds`` this gives the
        #: records-per-pickle coalescing ratio.
        self.records_exported = 0
        #: Frames a *foreign* replica region tried to transmit across a
        #: boundary — always 0 in a correct replica (foreign regions
        #: receive no traffic); counted, not raised, so a violation
        #: surfaces in stats()/tests instead of deadlocking the mesh.
        self.shadow_drops = 0

    # ----------------------------------------------- boundary plumbing

    def register_ingress(self, boundary_id: int, port: "Port") -> None:
        """Declare *port* (owned by this shard) as the landing point of
        boundary *boundary_id* — where peer records are re-injected."""
        self._ingress[boundary_id] = port

    def export(self, peer: int, boundary_id: int, kind: int, arrivals: list) -> None:
        """Buffer boundary records for *peer*; flushed at the next
        window barrier (called by :class:`BoundaryLink`)."""
        self._outbound[peer].append((boundary_id, kind, arrivals))
        self.frames_exported += len(arrivals)
        self.records_exported += 1

    def _inject(self, records: list) -> None:
        """Schedule a peer's flushed records as local delivery events.

        Mirrors exactly what the severed :class:`~repro.netsim.link
        .Link` would have scheduled locally: one ``deliver`` at the
        frame's arrival, or one ``deliver_burst`` at the burst drain
        with per-frame timestamps intact.  Record order is preserved,
        so same-link FIFO survives the crossing.
        """
        for boundary_id, kind, arrivals in records:
            if boundary_id in self._ingress_down:
                # Transmitted before the failure, crossed after it: the
                # replica's local link would have cancelled these.
                self._count_boundary_drops(boundary_id, len(arrivals))
                continue
            port = self._ingress[boundary_id]
            self.frames_imported += len(arrivals)
            if kind == KIND_FRAME:
                arrival, frame = arrivals[0]
                self._schedule_import(
                    boundary_id, arrival, 1, lambda p=port, f=frame: p.deliver(f)
                )
            else:
                self._schedule_import(
                    boundary_id,
                    arrivals[-1][0],
                    len(arrivals),
                    lambda p=port, a=arrivals: p.deliver_burst(a),
                )

    def _schedule_import(
        self, boundary_id: int, time: float, frames: int, callback
    ) -> None:
        """Schedule one imported delivery, tracked per boundary so
        :meth:`drop_ingress` can cancel what is still in flight."""
        pending = self._ingress_pending.setdefault(boundary_id, {})

        def deliver() -> None:
            pending.pop(key, None)
            callback()

        event = self.schedule_at(time, deliver)
        key = id(event)
        pending[key] = (event, frames)

    def drop_ingress(self, boundary_id: int) -> None:
        """Fail the receiving end of a boundary: cancel pending imported
        deliveries and discard records injected while down.  Mirrors
        :meth:`repro.netsim.link.Link.set_down` cancelling in-flight
        frames on an unsevered link (see :class:`BoundaryLink`)."""
        self._ingress_down.add(boundary_id)
        for event, frames in self._ingress_pending.pop(boundary_id, {}).values():
            event.cancel()
            self._count_boundary_drops(boundary_id, frames)

    def restore_ingress(self, boundary_id: int) -> None:
        self._ingress_down.discard(boundary_id)

    def _count_boundary_drops(self, boundary_id: int, frames: int) -> None:
        self.boundary_drops += frames
        self.boundary_drops_by_id[boundary_id] = (
            self.boundary_drops_by_id.get(boundary_id, 0) + frames
        )

    # ------------------------------------------------- collective run

    def run(
        self,
        until: "float | None" = None,
        max_events: "int | None" = None,
        inclusive: bool = True,
    ) -> int:
        if self.nshards == 1:
            return super().run(until=until, max_events=max_events, inclusive=inclusive)
        return self._collective_run(until, max_events)

    def _collective_run(self, until: "float | None", max_events: "int | None") -> int:
        window = self.lookahead_s
        processed = 0
        final_clock = None
        failed = True
        try:
            while True:
                # Flush boundary records and advertise the earliest
                # event this shard can still cause: its own queue head,
                # or the earliest delivery among the records it is
                # flushing right now (which peers haven't scheduled yet).
                flush, self._outbound = self._outbound, {p: [] for p in self._peers}
                flushed_min = _INF
                for records in flush.values():
                    for _, kind, arrivals in records:
                        event_time = (
                            arrivals[0][0] if kind == KIND_FRAME else arrivals[-1][0]
                        )
                        if event_time < flushed_min:
                            flushed_min = event_time
                local_next = self.peek_next_time()
                advertised = flushed_min
                if local_next is not None and local_next < advertised:
                    advertised = local_next

                # One message per (peer, round): the record batch (None
                # as the empty-round fast token), the advertisement, the
                # clock, and the cumulative processed count that makes
                # max_events a global property.
                for peer in self._peers:
                    self.transport.send(
                        peer, (flush[peer] or None, advertised, self._now, processed)
                    )
                peers_min = _INF
                global_clock = self._now
                global_processed = processed
                for peer in self._peers:
                    records, peer_next, peer_clock, peer_processed = (
                        self.transport.recv(peer)
                    )
                    if records:
                        self._inject(records)
                    if peer_next < peers_min:
                        peers_min = peer_next
                    if peer_clock > global_clock:
                        global_clock = peer_clock
                    global_processed += peer_processed
                self.sync_rounds += 1
                global_next = min(advertised, peers_min)

                # All exit decisions below use only values every shard
                # computed identically this round (global sums/minima),
                # so the whole collective breaks at the same barrier.
                if max_events is not None and global_processed >= max_events:
                    # Best-effort clock equalisation: park at the global
                    # maximum only where no pending event predates it.
                    head = self.peek_next_time()
                    if head is None or head >= global_clock:
                        final_clock = global_clock
                    break
                if global_next == _INF:
                    # Globally idle.  Park every clock at the same spot.
                    final_clock = until if until is not None else global_clock
                    break
                if until is not None and global_next > until:
                    final_clock = until
                    break

                # Skip-ahead horizon: the earliest instant a *peer*
                # could still cause an event here is (its advertised
                # next event) + lookahead; records flushed *this*
                # round can draw responses from flushed_min + L on.
                # The shard's own backlog does not bound the horizon —
                # it is drained in 2L chunks below.
                hard_stop = min(peers_min, flushed_min) + window
                budget = (
                    None if max_events is None else max_events - global_processed
                )
                entry = self._now
                while True:
                    base = self.peek_next_time()
                    if base is None or base >= hard_stop:
                        break
                    if until is not None and base > until:
                        break
                    # A response to a record exported at x >= base
                    # arrives at x + 2L >= chunk end, so ending the
                    # chunk on first export keeps the clock behind
                    # anything a peer can throw back.
                    chunk = base + 2.0 * window
                    if chunk > hard_stop:
                        chunk = hard_stop
                    if until is not None and chunk > until:
                        # Terminal stretch: remaining events are <=
                        # until; exports land >= base + L and are
                        # reconciled at the next barrier.
                        count = super().run(until=until, max_events=budget)
                    else:
                        count = super().run(
                            until=chunk, max_events=budget, inclusive=False
                        )
                    processed += count
                    if budget is not None:
                        budget -= count
                        if budget <= 0:
                            break
                    if any(self._outbound.values()):
                        break
                    if until is not None and self._now >= until:
                        break
                # Windows a fixed-step engine would have barriered
                # through this round, minus the one barrier v2 paid.
                if window > 0 and self._now > entry + window:
                    self.rounds_skipped += max(
                        0, int((self._now - entry) / window) - 1
                    )
            failed = False
        finally:
            if failed:
                # Wake peers blocked on this shard before propagating.
                self.transport.abort()
        if final_clock is not None and self._now < final_clock:
            self.advance_to(final_clock)
        return processed

    def sync_stats(self) -> dict:
        return {
            "shard": self.shard,
            "now": self._now,
            "events_processed": self._events_processed,
            "pending_events": self.pending_events,
            "sync_rounds": self.sync_rounds,
            "rounds_skipped": self.rounds_skipped,
            "frames_exported": self.frames_exported,
            "frames_imported": self.frames_imported,
            "records_exported": self.records_exported,
            # 0 on by-reference transports (ThreadMesh) which never
            # serialise; the pipe endpoints meter their pickles.
            "bytes_sent": getattr(self.transport, "bytes_sent", 0),
            "bytes_received": getattr(self.transport, "bytes_received", 0),
            "shadow_drops": self.shadow_drops,
            "boundary_drops": self.boundary_drops,
            "boundary_drops_by_id": dict(self.boundary_drops_by_id),
        }


# ---------------------------------------------------------------------------
# Boundary links
# ---------------------------------------------------------------------------


class BoundaryLink:
    """Stand-in wired into one port of a severed cut link.

    Each shard holds an identical replica of the full fabric; cut links
    are severed by re-pointing both end ports here while keeping the
    original :class:`~repro.netsim.link.Link` object for its direction
    state and timing math:

    * the **owned** endpoint (``exporting=True``) serialises outgoing
      frames through ``Link._enqueue_frame`` / ``_enqueue_burst`` — so
      tail-drop, ``queue_hwm``, busy-time chaining and per-frame
      arrival floats are bit-identical to an unsevered link — schedules
      the local queue-drain decrement, and exports the accepted
      ``(arrival, frame)`` records to the peer shard instead of
      delivering locally;
    * the **foreign** endpoint (``exporting=False``) swallows traffic:
      a correct replica's foreign region transmits nothing, and
      ``ShardSimulator.shadow_drops`` counts any frame proving
      otherwise.

    Attribute reads fall through to the underlying link, so topology
    code (``port.peer``, ``link.stats``) keeps working on severed ports.
    """

    def __init__(
        self,
        link: "Link",
        sim: ShardSimulator,
        boundary_id: int,
        peer_shard: int,
        exporting: bool,
    ) -> None:
        self._link = link
        self._sim = sim
        self._boundary_id = boundary_id
        self._peer_shard = peer_shard
        self._exporting = exporting

    def __getattr__(self, name: str):
        return getattr(self._link, name)

    def transmit(self, from_port: "Port", frame: "EthernetFrame") -> bool:
        if not self._exporting:
            self._sim.shadow_drops += 1
            return False
        link = self._link
        arrival = link._enqueue_frame(from_port, frame)
        if arrival is None:
            return False
        direction = link._directions[id(from_port)]

        def landed() -> None:
            direction.in_flight.pop(id(event), None)
            direction.queued -= 1

        event = self._sim.schedule_at(arrival, landed)
        direction.in_flight[id(event)] = (event, 1)
        self._sim.export(
            self._peer_shard, self._boundary_id, KIND_FRAME, [(arrival, frame)]
        )
        return True

    def transmit_burst(self, from_port: "Port", frames: "list[EthernetFrame]") -> int:
        if not self._exporting:
            self._sim.shadow_drops += len(frames)
            return 0
        link = self._link
        accepted = link._enqueue_burst(from_port, frames)
        if not accepted:
            return 0
        direction = link._directions[id(from_port)]

        def landed() -> None:
            direction.in_flight.pop(id(event), None)
            direction.queued -= len(accepted)

        event = self._sim.schedule_at(accepted[-1][0], landed)
        direction.in_flight[id(event)] = (event, len(accepted))
        self._sim.export(self._peer_shard, self._boundary_id, KIND_BURST, accepted)
        return len(accepted)

    def set_down(self) -> None:
        """Fail the severed link on this replica.

        The underlying :class:`~repro.netsim.link.Link` drops its
        queued/in-flight accounting (bit-identical stats to the
        unsevered link), and the owned endpoint additionally cancels
        imported deliveries still pending locally plus any records a
        peer flushes while the link is down — those frames were
        transmitted before the failure and would have been cancelled
        mid-wire by an unsevered link.  Every replica must apply the
        same fault at the same time (SPMD, like all topology mutations),
        and the hold time must be at least the sync lookahead so the
        restore lands in a window after the last stale record.
        """
        self._link.set_down()
        if self._exporting:
            self._sim.drop_ingress(self._boundary_id)

    def set_up(self) -> None:
        self._link.set_up()
        if self._exporting:
            self._sim.restore_ingress(self._boundary_id)

    def __repr__(self) -> str:
        role = "export" if self._exporting else "shadow"
        return f"BoundaryLink({self._link.name}, {role})"


def sever_link(
    link: "Link",
    sim: ShardSimulator,
    boundary_id: int,
    peer_shard: int,
    owned_port: "Port | None",
) -> None:
    """Replace both endpoints of *link* with boundary proxies.

    *owned_port* is the endpoint this shard owns (its transmits are
    exported to *peer_shard*; peer records land on it); pass ``None``
    when neither endpoint is owned (a cut between two other shards —
    both ends become shadow proxies).
    """
    for port in (link.port_a, link.port_b):
        exporting = port is owned_port
        port.link = BoundaryLink(
            link, sim, boundary_id, peer_shard if exporting else -1, exporting
        )
    if owned_port is not None:
        sim.register_ingress(boundary_id, owned_port)


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------


def run_collective(
    sims: "list[ShardSimulator]",
    until: "float | None" = None,
    max_events: "int | None" = None,
) -> "list[int]":
    """Drive every shard's collective ``run()`` on its own thread.

    Returns per-shard processed counts; re-raises the first shard
    failure (peers unblock via the abort cascade, so joins terminate).
    """
    results: "list[int | None]" = [None] * len(sims)
    errors: "list[BaseException | None]" = [None] * len(sims)

    def drive(index: int, sim: ShardSimulator) -> None:
        try:
            results[index] = sim.run(until=until, max_events=max_events)
        except BaseException as exc:  # noqa: BLE001 - propagated below
            errors[index] = exc

    threads = [
        threading.Thread(
            target=drive, args=(index, sim), name=f"shard-{index}", daemon=True
        )
        for index, sim in enumerate(sims)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for error in errors:
        if error is not None and not isinstance(error, PeerAborted):
            raise error
    for error in errors:
        if error is not None:
            raise error
    return [count for count in results if count is not None] or [0]


__all__ = [
    "BoundaryLink",
    "DEFAULT_SYNC_TIMEOUT_S",
    "KIND_BURST",
    "KIND_FRAME",
    "PeerAborted",
    "PipeEndpoint",
    "ShardSimulator",
    "ShardSyncError",
    "ThreadMesh",
    "make_pipe_mesh",
    "run_collective",
    "sever_link",
]
