"""ESwitch-style datapath specialization: compile the pipeline to code.

The ESwitch result this reproduction is calibrated against [Molnar et
al., SIGCOMM 2016] comes from *specializing* the datapath to the
currently installed flow tables instead of interpreting a
general-purpose pipeline.  This module is that idea applied to the
Python datapath: it inspects a switch's installed tables and generates
— via textual codegen + ``exec`` — one specialized function pair
(single frame + burst) per switch, which the datapath runs as **tier 0**
above the microflow cache:

* **miniflow shrinking** — the flow-key extractor is inlined and
  restricted to the union of slots any installed match reads across
  *all* tables of the pipeline (plus the select-group hash fields when
  select groups are installed), so a three-field pipeline never pays a
  14-field decode;
* **unrolled classification** — one probe per exact field-set and per
  staged subtable of table 0, emitted as straight-line code with the
  bucket dicts, masks and max-priority bounds baked in as compile-time
  constants.  Probe order is **profile-guided**: both tiers bump a
  shared per-probe hit counter, and each recompile orders the probe
  blocks by observed hit frequency (ESwitch's trick), falling back to
  descending max priority for unproven probes.  Order is a pure perf
  choice — every probe is guarded by the max-priority bound and the
  winner is the global sort-key minimum, so any order classifies
  identically;
* **baked decisions** — the table-0 winner is expanded into a
  *decision*: multi-table ``GotoTable`` chains are walked once per
  distinct flow key (later-table lookups run against the rehydrated
  shrunk key, valid because the key covers every matched slot),
  select-group buckets are hashed once per key with the interpreter's
  exact weighted-hash, all/indirect buckets are flattened into the
  step list, and the per-packet cost-model charge is precomputed as a
  constant.  The dominant single-table single-output shape keeps its
  zero-dispatch fast plan.

**Timeouts.**  Pipelines with idle/hard timeouts compile to a *mortal*
program: every decision carries the mortal entries it walked through,
and both caches (key cache and frame memo) revalidate those entries'
expiry before replaying — the same lazy check the interpreter's one
walk (``SoftSwitch._run_pipeline``) makes on every microflow-cache hit
one tier down.  Expiry is monotonic
(an expired entry can never revive, and installs mark the program
stale), so a decision is valid exactly until one of its own entries
expires.

**Per-entry fallback.**  Rules the generated code cannot reproduce
bit-identically — packet-ins (controller output), flood/ALL/IN_PORT
outputs, write-actions/clear-actions, frame transforms before a goto,
nested groups inside buckets, select-group hashing after a transform,
non-increasing gotos — no longer reject the whole pipeline.  They
compile to a FALLBACK decision that routes just those frames through
the interpreted path (``SoftSwitch._interpret_one``), which performs
all of its own counting; mixed pipelines (the learning-switch
table-miss rule under proactive policy rules) therefore still run the
hot rules compiled.  Whole-program compilation now fails only for a
subclassed cost model (per-packet cost hooks must stay on the
interpreted path); the first rule that forces a fallback is recorded
as ``switch.compile_ineligible_reason`` and surfaced by
``SoftSwitch.stats()``.

**Churn hysteresis.**  Recompilation is *not* per-mutation: a
FlowMod/GroupMod/expiry/cost-model swap marks the program stale
synchronously (the next frame falls back to the interpreted path),
and the datapath recompiles only after ``recompile_after_mods`` (64)
accumulated mods or a ``recompile_quiescent_s`` (50 ms) quiet
interval — both knobs on ``SoftSwitch``.  Under sustained churn the
switch therefore runs interpreted at ~1.0x rather than thrashing the
compiler; ``SoftSwitch.stats()["specialization"]`` reports compiles,
invalidations and the specialized/fallback frame split.

On the burst path the compiled program processes
``process_batch``-shaped bursts directly: one shrunk-key extraction
and one decision per distinct frame *object* per burst, with outputs
re-coalesced per egress port.  A FALLBACK frame mid-burst first
flushes the coalesced egress and syncs the busy clock (mirroring the
interpreted batch path's flush-before-async ordering, so a synchronous
controller observes every prior frame), and if the interpreted walk
mutates the pipeline — a reactive controller answering the packet-in —
the rest of the burst drains through the interpreter too, because the
program the burst was running is stale.
"""

from __future__ import annotations

from random import Random
from typing import TYPE_CHECKING, Optional

from repro.openflow import consts as c
from repro.openflow.actions import (
    GroupAction,
    OutputAction,
    PopVlanAction,
    PushVlanAction,
    SetFieldAction,
)
from repro.openflow.instructions import ApplyActions, GotoTable
from repro.openflow.packetview import (
    EXTRACTOR_GLOBALS,
    FIELD_INDEX,
    expand_key,
    partial_decode_source,
)
from repro.softswitch.costmodel import DatapathCostModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.softswitch.datapath import SoftSwitch
    from repro.softswitch.flowtable import FlowEntry

#: Bound on a program's persistent shrunk-key -> decision cache.
#: Cleared wholesale when full: the cache is derived state, one slow
#: classify per key rebuilds it.
KEY_CACHE_LIMIT = 8192

#: Bound on the persistent frame-object memo (see `_EXECUTOR_SOURCE`).
FRAME_MEMO_LIMIT = 4096

#: Plan kinds (first element of every plan tuple).
PLAN_OUT = 0  # single concrete-port output
PLAN_MISS = 1  # table miss: count the lookup, drop
PLAN_NOOP = 2  # matched entry with no emitting instructions
PLAN_SEQ = 3  # straight-line action sequence (vlan ops, set-field, outputs)
PLAN_CHAIN = 4  # multi-table walk and/or group execution, baked per key
PLAN_FALLBACK = 5  # route the frame through the interpreted path

#: Step opcodes inside CHAIN plans (first element of each step).
STEP_OUT = 0  # output to a concrete port (drop if the port is gone)
STEP_XFORM = 1  # frame transform: push/pop VLAN, set-field
STEP_GROUP_ALL = 2  # all-group: every bucket's steps, per-bucket counters
STEP_GROUP_ONE = 3  # select/indirect group: one pre-resolved bucket
STEP_GROUP_DEAD = 4  # reference to a group that does not exist: drop

_RESERVED_PORTS = frozenset(
    (c.OFPP_CONTROLLER, c.OFPP_FLOOD, c.OFPP_ALL, c.OFPP_IN_PORT)
)
_RESERVED_PORT_REASON = {
    c.OFPP_CONTROLLER: "controller output (packet-in)",
    c.OFPP_FLOOD: "flood output",
    c.OFPP_ALL: "all-ports output",
    c.OFPP_IN_PORT: "in-port output",
}

_TRANSFORM_ACTIONS = (PushVlanAction, PopVlanAction, SetFieldAction)


class CompiledProgram:
    """One switch's specialized datapath (tier 0 of the fast path)."""

    __slots__ = (
        "run_one", "run_burst", "classify", "source", "used_slots",
        "key_cache", "plans", "mortal", "fallback_reason", "probe_order",
    )

    def __init__(self, run_one, run_burst, classify, source, used_slots,
                 key_cache, plans, mortal, fallback_reason, probe_order):
        self.run_one = run_one
        self.run_burst = run_burst
        #: The generated classifier (frame, in_port, now) -> (plan, key);
        #: exposed for probe-order invariance tests.
        self.classify = classify
        #: The generated module source (debugging / tests).
        self.source = source
        #: Flow-key slots the shrunk extractor decodes.
        self.used_slots = used_slots
        #: shrunk key -> decision; shared by both entry points.
        self.key_cache = key_cache
        #: id(entry) -> key-independent plan, populated lazily.
        self.plans = plans
        #: True when any installed entry carries a timeout — decisions
        #: then revalidate their entries' expiry before every replay.
        self.mortal = mortal
        #: Why the first falling-back rule cannot be compiled (None when
        #: the whole pipeline compiles clean).
        self.fallback_reason = fallback_reason
        #: The probe ordering this program was compiled with.
        self.probe_order = probe_order


# ---------------------------------------------------------------------------
# Entry analysis and decision building (plain Python, not codegen: runs
# once per distinct flow key on a key-cache miss, never per frame)
# ---------------------------------------------------------------------------


def _shape_of(entry: "FlowEntry"):
    """-> (flat apply-actions, goto target, fallback reason or None).

    Flattens the instruction list the way ``_execute_entry`` runs it:
    apply-actions execute in encounter order, the last goto wins and
    only takes effect after the whole list.  Any instruction or action
    the compiled executor cannot reproduce yields a reason instead.
    """
    actions: list = []
    next_table: "int | None" = None
    for instruction in entry.instructions:
        kind = type(instruction)
        if kind is ApplyActions:
            actions.extend(instruction.actions)
        elif kind is GotoTable:
            next_table = instruction.table_id
        else:
            return None, None, f"{type(instruction).__name__} needs the action set"
    for action in actions:
        kind = type(action)
        if kind is OutputAction:
            if action.port in _RESERVED_PORTS:
                return None, None, _RESERVED_PORT_REASON[action.port]
        elif kind is not GroupAction and kind not in _TRANSFORM_ACTIONS:
            return None, None, f"unsupported action {type(action).__name__}"
    return actions, next_table, None


def entry_fallback_reason(entry: "FlowEntry", table_id: int) -> Optional[str]:
    """Why *entry* compiles to a FALLBACK decision, or None.

    Intrinsic (key-independent) reasons only — a select-group bucket
    whose actions the executor cannot run is discovered per key during
    the chain walk instead.
    """
    actions, next_table, reason = _shape_of(entry)
    if reason is not None:
        return reason
    if next_table is not None:
        if next_table <= table_id:
            return "goto-table does not increase (interpreter raises)"
        if any(type(a) in _TRANSFORM_ACTIONS for a in actions):
            return "frame transform before goto-table"
    return None


_FALLBACK_PLAN = (PLAN_FALLBACK, None, None, 0.0, ())


def _mortals_of(entry: "FlowEntry") -> tuple:
    return (entry,) if (entry.idle_timeout or entry.hard_timeout) else ()


def _fast_plan(entry: "FlowEntry", actions: list, model: DatapathCostModel):
    """Key-independent plan for a terminal, group-free entry.

    The plan's cost constant is produced by the same ``cost_s`` call
    the interpreted path makes per packet (1 lookup, the entry's action
    and VLAN-op counts), so charging is float-identical.
    """
    steps = []
    vlan_ops = 0
    for action in actions:
        kind = type(action)
        if kind is OutputAction:
            steps.append((True, action.port))
        else:
            if kind is not SetFieldAction:
                vlan_ops += 1
            steps.append((False, action))
    cost = model.cost_s(lookups=1, actions=len(actions), vlan_ops=vlan_ops)
    mortals = _mortals_of(entry)
    if not steps:
        return (PLAN_NOOP, entry, None, cost, mortals)
    if len(steps) == 1 and steps[0][0]:
        return (PLAN_OUT, entry, steps[0][1], cost, mortals)
    return (PLAN_SEQ, entry, tuple(steps), cost, mortals)


def _compile_bucket(bucket) -> "tuple | None":
    """Bucket actions -> (steps, action count, vlan ops), or None.

    Bucket transforms apply to a bucket-local frame and are discarded
    afterwards (``_run_group`` ignores ``_apply_actions``'s return), so
    bucket steps never feed the outer step list's frame state.
    """
    steps = []
    vlan_ops = 0
    for action in bucket.actions:
        kind = type(action)
        if kind is OutputAction:
            if action.port in _RESERVED_PORTS:
                return None
            steps.append((STEP_OUT, action.port))
        elif kind in _TRANSFORM_ACTIONS:
            if kind is not SetFieldAction:
                vlan_ops += 1
            steps.append((STEP_XFORM, action))
        else:  # nested groups (and anything newer) stay interpreted
            return None
    return tuple(steps), len(bucket.actions), vlan_ops


def _build_decision(entry, shrunk_key, now, tables, groups, hash_fields,
                    model, used_slots, plans):
    """Decision for the table-0 winner *entry* under *shrunk_key*.

    Key-independent decisions (terminal group-free entries, intrinsic
    fallbacks) are memoised per entry in *plans*; chain and group
    decisions depend on the key (later-table lookups, select-bucket
    hashing) and are cached only in the program's key cache.
    """
    actions, next_table, reason = _shape_of(entry)
    if reason is not None:
        plans[id(entry)] = _FALLBACK_PLAN
        return _FALLBACK_PLAN
    if next_table is None and not any(type(a) is GroupAction for a in actions):
        plan = _fast_plan(entry, actions, model)
        plans[id(entry)] = plan
        return plan

    # Chain walk: rehydrate the shrunk key once; it covers every slot
    # any match in any table reads, so later-table lookups classify
    # exactly like the interpreter's full-key lookups.
    full_key = expand_key(used_slots, shrunk_key)
    touches = []
    steps: list = []
    mortals: list = []
    miss_table = None
    n_actions = 0
    vlan_ops = 0
    group_selections = 0
    transformed = False
    table_id = 0
    while True:
        touches.append((tables[table_id], entry))
        mortals.extend(_mortals_of(entry))
        for action in actions:
            kind = type(action)
            n_actions += 1
            if kind is OutputAction:
                steps.append((STEP_OUT, action.port))
            elif kind in _TRANSFORM_ACTIONS:
                if kind is not SetFieldAction:
                    vlan_ops += 1
                steps.append((STEP_XFORM, action))
                transformed = True
            else:  # GroupAction
                group = groups.get(action.group_id)
                if group is None:
                    steps.append((STEP_GROUP_DEAD, None))
                    continue
                if group.group_type == c.OFPGT_ALL:
                    buckets = []
                    for index, bucket in enumerate(group.buckets):
                        compiled = _compile_bucket(bucket)
                        if compiled is None:
                            return _FALLBACK_PLAN
                        bucket_steps, bucket_actions, bucket_vlans = compiled
                        n_actions += bucket_actions
                        vlan_ops += bucket_vlans
                        buckets.append((index, bucket_steps))
                    steps.append((STEP_GROUP_ALL, (group, tuple(buckets))))
                    continue
                group_selections += 1
                if group.group_type == c.OFPGT_SELECT:
                    if transformed:
                        # The interpreter hashes the transformed frame;
                        # our key describes the original one.
                        return _FALLBACK_PLAN
                    index = group.select_bucket_for_key(full_key, hash_fields)
                else:  # indirect
                    index = 0 if group.buckets else None
                if index is None:
                    steps.append((STEP_GROUP_ONE, (group, None, ())))
                    continue
                compiled = _compile_bucket(group.buckets[index])
                if compiled is None:
                    return _FALLBACK_PLAN
                bucket_steps, bucket_actions, bucket_vlans = compiled
                n_actions += bucket_actions
                vlan_ops += bucket_vlans
                steps.append((STEP_GROUP_ONE, (group, index, bucket_steps)))
        if next_table is None or next_table >= len(tables):
            break  # end of pipeline: walk complete (goto past the last
            # table ends the loop without a miss, like the interpreter)
        if next_table <= table_id or transformed:
            # Non-increasing goto raises in the interpreter; a transform
            # before a goto invalidates the baked key.  Both interpret.
            return _FALLBACK_PLAN
        table_id = next_table
        entry = tables[table_id]._classify(full_key, now)
        if entry is None:
            miss_table = tables[table_id]
            break
        actions, next_table, reason = _shape_of(entry)
        if reason is not None:
            return _FALLBACK_PLAN
    lookups = len(touches) + (1 if miss_table is not None else 0)
    cost = model.cost_s(
        lookups=lookups,
        actions=n_actions,
        vlan_ops=vlan_ops,
        group_selections=group_selections,
    )
    return (
        PLAN_CHAIN,
        tuple(touches),
        (tuple(steps), miss_table),
        cost,
        tuple(mortals),
    )


# ---------------------------------------------------------------------------
# Codegen
# ---------------------------------------------------------------------------


def _tuple_literal(parts: "list[str]") -> str:
    if not parts:
        return "()"
    if len(parts) == 1:
        return f"({parts[0]},)"
    return "(" + ", ".join(parts) + ")"


def _probe_block(
    lines: list[str],
    guard_priority: int,
    probe_index: int,
    value_expr: str,
    none_guards: "list[str]",
    mortal: bool,
) -> None:
    """One guarded min-compare probe.

    The guard only skips probes that provably cannot beat the current
    best (their max priority is below the best's priority); the winner
    is the global minimum of the arbitration sort key, a total order —
    which is why the blocks can be emitted in any order (profile-guided
    reordering is behaviour-preserving by construction).
    """
    lines.append(f"    if e is None or ek0 >= {-guard_priority}:")
    indent = "        "
    if none_guards:
        lines.append(indent + "if " + " and ".join(none_guards) + ":")
        indent += "    "
    lines.append(f"{indent}ch = P{probe_index}_get({value_expr})")
    lines.append(f"{indent}if ch:")
    if mortal:
        lines.append(f"{indent}    n = None")
        lines.append(f"{indent}    for cand in ch:")
        lines.append(f"{indent}        if not cand.is_expired(now):")
        lines.append(f"{indent}            n = cand")
        lines.append(f"{indent}            break")
        lines.append(f"{indent}    if n is not None:")
        indent += "    "
    else:
        lines.append(f"{indent}    n = ch[0]")
    lines.append(f"{indent}    nk = n.sort_key")
    lines.append(f"{indent}    if e is None or nk < ek:")
    lines.append(f"{indent}        e = n")
    lines.append(f"{indent}        ek = nk")
    lines.append(f"{indent}        ek0 = nk[0]")
    lines.append(f"{indent}        w = {probe_index}")


def compile_datapath(
    switch: "SoftSwitch", probe_order: "str | int" = "profile"
) -> Optional[CompiledProgram]:
    """Specialize *switch*'s installed pipeline, or None if ineligible.

    *probe_order* selects how table-0 probe blocks are ordered:
    ``"profile"`` (default) by observed hit counts, ``"priority"`` by
    descending max priority alone, or an int seed for a deterministic
    shuffle (test hook — order is behaviour-preserving, see
    :func:`_probe_block`).
    """
    model = switch.cost_model
    if type(model) is not DatapathCostModel:
        switch.compile_ineligible_reason = (
            "cost model is subclassed: per-packet cost hooks must run interpreted"
        )
        return None  # subclassed cost hooks must stay on the per-packet path
    tables = switch.tables
    if not tables:
        switch.compile_ineligible_reason = "switch has no tables"
        return None

    # One O(n) scan: mortality, and the first rule that will fall back.
    mortal = False
    fallback_reason = None
    for table in tables:
        for entry in table:
            if entry.idle_timeout or entry.hard_timeout:
                mortal = True
            if fallback_reason is None:
                reason = entry_fallback_reason(entry, table.table_id)
                if reason is not None:
                    fallback_reason = (
                        f"table {table.table_id} priority {entry.priority} "
                        f"[{entry.match}]: {reason}"
                    )
    switch.compile_ineligible_reason = fallback_reason

    used = set()
    for table in tables:
        used.update(table.used_slots())
    if switch.groups.has_select_groups():
        # Select-bucket choices are baked per key, so the key must
        # carry every hash-field slot the choice reads.
        used.update(FIELD_INDEX[name] for name in switch.select_hash_fields)
    used_slots = tuple(sorted(used))

    #: id(entry) -> key-independent plan, built lazily as the
    #: classifier selects entries.
    plans: dict[int, tuple] = {}
    miss_plan = (PLAN_MISS, None, None, model.cost_s(lookups=1, actions=0), ())
    key_cache: dict = {}
    frame_memo: dict = {}

    def _build(entry, shrunk_key, now, _tables=tables, _groups=switch.groups,
               _hash=switch.select_hash_fields, _model=model,
               _slots=used_slots, _plans=plans):
        return _build_decision(entry, shrunk_key, now, _tables, _groups,
                               _hash, _model, _slots, _plans)

    namespace: dict = dict(EXTRACTOR_GLOBALS)
    namespace.update(
        SIM=switch.sim,
        S=switch,
        T0=tables[0],
        PORTS=switch.ports,
        PORT=switch.port,
        EMIT=switch._emit,
        FALL=switch._interpret_one,
        SCHED=switch.sim.schedule_at,
        KC=key_cache,
        KC_get=key_cache.get,
        KC_LIMIT=KEY_CACHE_LIMIT,
        PLANS=plans,
        PLANS_get=plans.get,
        BUILD=_build,
        MISS=miss_plan,
        PMEMO=frame_memo,
        PMEMO_get=frame_memo.get,
        PMEMO_LIMIT=FRAME_MEMO_LIMIT,
    )

    # ---------------------------------------------------------- classify
    lines = ["def _classify(frame, in_port, now):"]
    lines.extend(partial_decode_source(used_slots, indent="    "))
    key_expr = _tuple_literal([f"v{slot}" for slot in used_slots])
    lines.append(f"    key = {key_expr}")
    lines.append("    plan = KC_get(key)")
    if mortal:
        lines.append("    if plan is not None:")
        lines.append("        for dead in plan[4]:")
        lines.append("            if dead.is_expired(now):")
        lines.append("                del KC[key]")
        lines.append("                plan = None")
        lines.append("                break")
        lines.append("        if plan is not None:")
        lines.append("            return plan, key")
    else:
        lines.append("    if plan is not None:")
        lines.append("        return plan, key")
    lines.append("    e = None")
    lines.append("    ek = None")
    lines.append("    ek0 = 1")
    lines.append("    w = 0")

    table0 = tables[0]
    probes: list[tuple] = []
    for probe_slots, buckets, max_priority, hit_cell in table0.exact_probe_groups():
        probes.append((hit_cell[0], max_priority, "exact", probe_slots,
                       buckets, hit_cell))
    for subtable in table0.subtables_in_order():
        probes.append((subtable.hit_cell[0], subtable.max_priority, "masked",
                       subtable.mask_set, subtable.buckets, subtable.hit_cell))
    if probe_order == "profile":
        # Stable sort: hottest probes first, max priority (the seed
        # heuristic) breaking ties for unproven probes.
        probes.sort(key=lambda item: -item[1])
        probes.sort(key=lambda item: -item[0])
    elif probe_order == "priority":
        probes.sort(key=lambda item: -item[1])
    else:
        Random(probe_order).shuffle(probes)
    hit_cells = []
    for index, (_, max_priority, tier, shape, buckets, hit_cell) in enumerate(probes):
        namespace[f"P{index}_get"] = buckets.get
        hit_cells.append(hit_cell)
        if tier == "exact":
            value_expr = _tuple_literal([f"v{slot}" for slot in shape])
            none_guards: list[str] = []
        else:
            value_expr = _tuple_literal(
                [f"v{slot} & {mask:#x}" for slot, mask in shape]
            )
            none_guards = [f"v{slot} is not None" for slot, _ in shape]
        _probe_block(lines, max_priority, index, value_expr, none_guards, mortal)
    namespace["HC"] = tuple(hit_cells)

    lines.append("    if e is None:")
    lines.append("        plan = MISS")
    lines.append("    else:")
    if probes:
        lines.append("        HC[w][0] += 1")
    lines.append("        plan = PLANS_get(id(e))")
    lines.append("        if plan is None:")
    lines.append("            plan = BUILD(e, key, now)")
    lines.append("    if len(KC) >= KC_LIMIT:")
    lines.append("        KC.clear()")
    lines.append("    KC[key] = plan")
    lines.append("    return plan, key")
    lines.append("")

    # Frame-memo mutation guards: a memoised decision is only replayed
    # while every frame attribute the shrunk key (or the wire length)
    # depends on is unchanged.  Payload identity and tag count are
    # always guarded (they feed L3/L4 fields and wire_length); the
    # other guards shrink with the used-slot set, like the extractor.
    # Mortal programs additionally revalidate the decision's entries.
    guards = ["m[3] is frame.payload", "m[4] == len(frame.tags)"]
    extras: list[tuple[str, str]] = []  # (store expr, guard template)
    slot_set = set(used_slots)
    if 0 in slot_set:
        extras.append(("in_port", "m[{i}] == in_port"))
    if 1 in slot_set:
        extras.append(("frame.dst", "m[{i}] is frame.dst"))
    if 2 in slot_set:
        extras.append(("frame.src", "m[{i}] is frame.src"))
    if 3 in slot_set or slot_set & set(range(6, 14)):
        extras.append(("frame.ethertype", "m[{i}] == frame.ethertype"))
    if slot_set & {4, 5}:
        extras.append(("frame.vlan", "m[{i}] is frame.vlan"))
    for index, (_, template) in enumerate(extras):
        guards.append(template.format(i=5 + index))
    if mortal:
        guards.append("_live(m[0], now)")
    store_parts = ["dec", "key", "frame", "frame.payload", "len(frame.tags)"]
    store_parts.extend(expr for expr, _ in extras)
    executor = _EXECUTOR_SOURCE.replace("__GUARDS__", " and ".join(guards))
    executor = executor.replace("__MEMO_ENTRY__", "(" + ", ".join(store_parts) + ")")
    lines.append(executor)

    source = "\n".join(lines)
    exec(compile(source, f"<specialized datapath {switch.name}>", "exec"), namespace)
    return CompiledProgram(
        run_one=namespace["run_one"],
        run_burst=namespace["run_burst"],
        classify=namespace["_classify"],
        source=source,
        used_slots=used_slots,
        key_cache=key_cache,
        plans=plans,
        mortal=mortal,
        fallback_reason=fallback_reason,
        probe_order=probe_order,
    )


#: The execution half of every generated module.  Static — only the
#: classifier and extractor vary per switch — but it lives inside the
#: generated module so the hot loop binds its constants (switch, table,
#: ports, scheduler) as default arguments, the fastest lookups Python
#: offers.  Charging mirrors ``SoftSwitch._charge`` exactly: start at
#: max(now, busy_until), advance by the decision's precomputed cost,
#: emit immediately when the finish time has not moved past ``now`` and
#: defer through the simulator otherwise.
_EXECUTOR_SOURCE = '''
def _live(dec, now):
    """False once any mortal entry a decision walked through expired."""
    for entry in dec[4]:
        if entry.is_expired(now):
            return False
    return True


def _chain_steps(steps, frame, PORTS=PORTS):
    """Execute a CHAIN plan's step list; returns (outputs, drops).

    Mirrors the interpreter exactly: outputs collect in action order
    (bucket outputs inline where their group action ran), transforms
    produce fresh frames (originals are never mutated), group counters
    bump where ``_run_group`` bumps them, and bucket transforms stay
    bucket-local.
    """
    outs = []
    dropped = 0
    current = frame
    for op, arg in steps:
        if op == 0:
            if arg in PORTS:
                outs.append((arg, current))
            else:
                dropped += 1
        elif op == 1:
            current = arg.apply(current)
        elif op == 3:
            group, index, bucket_steps = arg
            group.packet_count += 1
            if index is None:
                dropped += 1
                continue
            group.bucket_packet_counts[index] += 1
            bucket_frame = current
            for bucket_op, bucket_arg in bucket_steps:
                if bucket_op == 0:
                    if bucket_arg in PORTS:
                        outs.append((bucket_arg, bucket_frame))
                    else:
                        dropped += 1
                else:
                    bucket_frame = bucket_arg.apply(bucket_frame)
        elif op == 2:
            group, buckets = arg
            group.packet_count += 1
            counts = group.bucket_packet_counts
            for index, bucket_steps in buckets:
                counts[index] += 1
                bucket_frame = current
                for bucket_op, bucket_arg in bucket_steps:
                    if bucket_op == 0:
                        if bucket_arg in PORTS:
                            outs.append((bucket_arg, bucket_frame))
                        else:
                            dropped += 1
                    else:
                        bucket_frame = bucket_arg.apply(bucket_frame)
        else:  # op == 4: dead group reference
            dropped += 1
    return outs, dropped


def _lookup(frame, in_port, fid, now, PMEMO=PMEMO, PMEMO_get=PMEMO_get,
            PMEMO_LIMIT=PMEMO_LIMIT, classify=_classify):
    """dec for one frame object: guarded persistent memo over classify.

    The memo holds a strong reference to the frame, so the id key can
    never be reused while the entry lives; the guards re-validate every
    frame attribute the decision depends on (and, in mortal programs,
    the decision's entries' expiry), so even a caller mutating a frame
    between bursts gets a fresh classification.
    """
    m = PMEMO_get(fid)
    if m is not None and __GUARDS__:
        return m[0], m[1]
    plan, key = classify(frame, in_port, now)
    dec = plan + (frame.wire_length,)
    if len(PMEMO) >= PMEMO_LIMIT:
        PMEMO.clear()
    PMEMO[fid] = __MEMO_ENTRY__
    return dec, key


def run_one(frame, in_port, SIM=SIM, S=S, T0=T0, PORTS=PORTS,
            EMIT=EMIT, FALL=FALL, SCHED=SCHED, lookup=_lookup,
            chain_steps=_chain_steps):
    now = SIM.now
    dec, _key = lookup(frame, in_port, id(frame), now)
    kind = dec[0]
    if kind >= 4:
        if kind == 5:
            FALL(frame, in_port)  # interpreter does all of its own counting
            return
        _, touches, tail, cost, _mortals, length = dec
        steps, miss_table = tail
        for table, entry in touches:
            table.lookups += 1
            table.matches += 1
            entry.packet_count += 1
            entry.byte_count += length
            entry.last_used_at = now
        outs, chain_drops = chain_steps(steps, frame)
        if miss_table is not None:
            miss_table.lookups += 1
            chain_drops += 1
        if chain_drops:
            S.packets_dropped += chain_drops
        if not outs:
            outs = None
    else:
        T0.lookups += 1
        outs = None
        if kind == 0:
            _, entry, port, cost, _mortals, length = dec
            T0.matches += 1
            entry.packet_count += 1
            entry.byte_count += length
            entry.last_used_at = now
            if port in PORTS:
                outs = [(port, frame)]
            else:
                S.packets_dropped += 1
        elif kind == 1:
            cost = dec[3]
            S.packets_dropped += 1
        elif kind == 2:
            _, entry, _payload, cost, _mortals, length = dec
            T0.matches += 1
            entry.packet_count += 1
            entry.byte_count += length
            entry.last_used_at = now
        else:
            _, entry, steps, cost, _mortals, length = dec
            T0.matches += 1
            entry.packet_count += 1
            entry.byte_count += length
            entry.last_used_at = now
            current = frame
            outs = []
            for is_out, payload in steps:
                if is_out:
                    if payload in PORTS:
                        outs.append((payload, current))
                    else:
                        S.packets_dropped += 1
                else:
                    current = payload.apply(current)
            if not outs:
                outs = None
    busy = S.busy_until
    start = busy if busy > now else now
    finish = start + cost
    S.busy_until = finish
    S.specialized_frames += 1
    if outs is not None:
        if finish <= now:
            EMIT(outs, ())
        else:
            SCHED(finish, lambda o=outs: EMIT(o, ()))


def run_burst(in_port, frames, SIM=SIM, S=S, T0=T0, PORTS=PORTS,
              PORT=PORT, EMIT=EMIT, FALL=FALL, SCHED=SCHED,
              lookup=_lookup, chain_steps=_chain_steps):
    now = SIM.now
    memo = {}
    memo_get = memo.get
    uniq = set()
    uniq_add = uniq.add
    per_port = {}
    per_port_get = per_port.get
    forwarded = 0
    dropped = 0
    t0_lookups = 0
    t0_matches = 0
    specialized = 0
    busy = S.busy_until
    count = len(frames)
    index = 0
    while index < count:
        frame = frames[index]
        index += 1
        fid = id(frame)
        dec = memo_get(fid)
        if dec is None:
            dec, key = lookup(frame, in_port, fid, now)
            uniq_add(key)
            memo[fid] = dec
        kind = dec[0]
        if kind >= 4:
            if kind == 5:
                # Flush coalesced egress and sync the busy clock first:
                # the interpreted walk may hand a packet-in to a
                # synchronous controller, which must observe every
                # prior frame on the wire (the interpreted batch path
                # orders flushes the same way).
                if forwarded:
                    S.packets_forwarded += forwarded
                    for port_number, port_frames in per_port.items():
                        PORT(port_number).send_burst(port_frames)
                    per_port.clear()
                    forwarded = 0
                S.busy_until = busy
                FALL(frame, in_port)
                busy = S.busy_until
                if S._program is None:
                    # The interpreted walk mutated the pipeline (e.g. a
                    # reactive controller installed a flow): this
                    # program is stale, its baked structures may no
                    # longer describe the tables.  Drain the rest of
                    # the burst through the interpreter.
                    while index < count:
                        FALL(frames[index], in_port)
                        index += 1
                    busy = S.busy_until
                continue
            specialized += 1
            _, touches, tail, cost, _mortals, length = dec
            steps, miss_table = tail
            for table, entry in touches:
                table.lookups += 1
                table.matches += 1
                entry.packet_count += 1
                entry.byte_count += length
                entry.last_used_at = now
            outs, chain_drops = chain_steps(steps, frame)
            if miss_table is not None:
                miss_table.lookups += 1
                chain_drops += 1
            dropped += chain_drops
            start = busy if busy > now else now
            busy = start + cost
            if outs:
                if busy <= now:
                    for out_port, out_frame in outs:
                        chain = per_port_get(out_port)
                        if chain is None:
                            per_port[out_port] = [out_frame]
                        else:
                            chain.append(out_frame)
                    forwarded += len(outs)
                else:
                    SCHED(busy, lambda o=outs: EMIT(o, ()))
            continue
        specialized += 1
        t0_lookups += 1
        if kind == 0:
            _, entry, port, cost, _mortals, length = dec
            t0_matches += 1
            entry.packet_count += 1
            entry.byte_count += length
            entry.last_used_at = now
            start = busy if busy > now else now
            busy = start + cost
            if port in PORTS:
                if busy <= now:
                    chain = per_port_get(port)
                    if chain is None:
                        per_port[port] = [frame]
                    else:
                        chain.append(frame)
                    forwarded += 1
                else:
                    SCHED(busy, lambda o=[(port, frame)]: EMIT(o, ()))
            else:
                dropped += 1
        elif kind == 1:
            dropped += 1
            start = busy if busy > now else now
            busy = start + dec[3]
        elif kind == 2:
            _, entry, _payload, cost, _mortals, length = dec
            t0_matches += 1
            entry.packet_count += 1
            entry.byte_count += length
            entry.last_used_at = now
            start = busy if busy > now else now
            busy = start + cost
        else:
            _, entry, steps, cost, _mortals, length = dec
            t0_matches += 1
            entry.packet_count += 1
            entry.byte_count += length
            entry.last_used_at = now
            current = frame
            outs = []
            for is_out, payload in steps:
                if is_out:
                    if payload in PORTS:
                        outs.append((payload, current))
                    else:
                        dropped += 1
                else:
                    current = payload.apply(current)
            start = busy if busy > now else now
            busy = start + cost
            if outs:
                if busy <= now:
                    for out_port, out_frame in outs:
                        chain = per_port_get(out_port)
                        if chain is None:
                            per_port[out_port] = [out_frame]
                        else:
                            chain.append(out_frame)
                    forwarded += len(outs)
                else:
                    SCHED(busy, lambda o=outs: EMIT(o, ()))
    S.busy_until = busy
    T0.lookups += t0_lookups
    T0.matches += t0_matches
    if dropped:
        S.packets_dropped += dropped
    S.specialized_frames += specialized
    S.batch_bursts += 1
    S.batch_frames += count
    # Grouping statistic over *shrunk* keys — the keys this tier
    # actually distinguishes (the interpreted path counts full keys).
    S.batch_unique_keys += len(uniq)
    if forwarded:
        S.packets_forwarded += forwarded
        for port_number, port_frames in per_port.items():
            PORT(port_number).send_burst(port_frames)
'''
