"""The datapath fast path: an exact-match microflow cache.

This is the top tier of the OVS-style two-tier datapath.  The first
packet of a flow walks the full multi-table pipeline (the slow path:
per-table classifier lookups) and records which entry won in each
table.  Every later packet with the same flow key replays that recorded
walk — one dict probe instead of one classifier search per table.

The cache memoises *decisions*, not outputs: actions are re-executed
for every packet, so counters, packet-in, group bucket selection and
frame rewrites behave bit-identically to the slow path.  Entries are
validated against flow expiry on every hit.  Single frames and bursts
share one lookup-and-replay walk (``SoftSwitch._run_pipeline``); a
burst only adds per-frame-object decode reuse and egress coalescing at
its edges.

Invalidation is **dependency-indexed**: every :class:`CachedPath`
registers against the tables it visited (with the flow key it looked
up in each), the flow entries it matched, and the groups its entries
reference.  A control-plane mutation then touches only the dependent
walks:

* FlowMod ADD to table T invalidates walks that visited T *and* whose
  lookup key at T is matched by the new entry with sufficient priority
  (a new rule that can't win the arbitration leaves the walk valid);
* FlowMod DELETE/MODIFY and flow expiry invalidate walks that matched
  one of the removed/modified entries (removing a non-winner can never
  promote a different winner);
* GroupMod invalidates walks whose matched entries reference the
  group.

Walks untouched by a mutation keep serving hits, so sustained
control-plane churn against unrelated tables or masks no longer
flushes the fast path.  ``invalidate()`` (full flush) remains for
benchmarks that want the old whole-cache behaviour as a baseline.

Above this cache sits the optional compiled tier 0
(:mod:`repro.softswitch.compiler`); below it, the staged classifier
(:mod:`repro.softswitch.flowtable`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.openflow.match import Match
    from repro.softswitch.flowtable import FlowEntry

#: Default microflow-cache capacity (distinct flow keys).
DEFAULT_CACHE_SIZE = 8192


@dataclass(frozen=True)
class CachedPath:
    """One memoised pipeline walk.

    ``steps`` are the (table_id, winning entry) pairs in walk order;
    ``miss_table`` is the table where the walk ended in a table-miss
    drop, or None if the walk completed.  ``visits`` records, for every
    table the walk consulted (matched tables plus the miss table), the
    flow key the lookup used there — the key can differ from the cache
    key once set-field/VLAN actions rewrite the frame mid-walk, and the
    per-table key is what a later FlowMod ADD is tested against.
    ``group_ids`` are the groups referenced by the matched entries'
    instructions.
    """

    steps: "tuple[tuple[int, FlowEntry], ...]"
    miss_table: Optional[int] = None
    visits: "tuple[tuple[int, tuple[int | None, ...]], ...]" = ()
    group_ids: tuple[int, ...] = ()


@dataclass
class CacheStats:
    """Invalidation accounting, split by scope (see ``stats()``)."""

    full: int = 0  # whole-cache flushes
    scoped: int = 0  # dependency-scoped invalidation events
    paths_dropped: int = 0  # memoised walks removed by either kind


class DatapathFlowCache:
    """Flow key -> memoised multi-table walk, with a dependency index.

    Eviction is FIFO once ``max_entries`` is reached — microflow caches
    favour simplicity over retention because re-populating an entry
    costs one slow-path walk.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_SIZE) -> None:
        self.max_entries = max_entries
        self._paths: "dict[tuple[int | None, ...], CachedPath]" = {}
        #: table id -> cache keys whose walk visited that table
        self._by_table: "dict[int, set[tuple[int | None, ...]]]" = {}
        #: id(entry) -> cache keys whose walk matched that entry
        self._by_entry: "dict[int, set[tuple[int | None, ...]]]" = {}
        #: group id -> cache keys whose entries reference that group
        self._by_group: "dict[int, set[tuple[int | None, ...]]]" = {}
        self.hits = 0
        self.misses = 0
        self.invalidation_stats = CacheStats()

    def __len__(self) -> int:
        return len(self._paths)

    def get(self, key: "tuple[int | None, ...]") -> Optional[CachedPath]:
        return self._paths.get(key)

    def store(self, key: "tuple[int | None, ...]", path: CachedPath) -> None:
        if key in self._paths:
            self._deregister(key, self._paths[key])
        elif len(self._paths) >= self.max_entries:
            self._drop(next(iter(self._paths)))
        self._paths[key] = path
        for table_id, _ in path.visits:
            self._by_table.setdefault(table_id, set()).add(key)
        for _, entry in path.steps:
            self._by_entry.setdefault(id(entry), set()).add(key)
        for group_id in path.group_ids:
            self._by_group.setdefault(group_id, set()).add(key)

    def discard(self, key: "tuple[int | None, ...]") -> None:
        if key in self._paths:
            self._drop(key)

    def _drop(self, key: "tuple[int | None, ...]") -> None:
        self._deregister(key, self._paths.pop(key))

    def _deregister(self, key: "tuple[int | None, ...]", path: CachedPath) -> None:
        for table_id, _ in path.visits:
            self._unindex(self._by_table, table_id, key)
        for _, entry in path.steps:
            self._unindex(self._by_entry, id(entry), key)
        for group_id in path.group_ids:
            self._unindex(self._by_group, group_id, key)

    @staticmethod
    def _unindex(index: dict, token, key) -> None:
        keys = index.get(token)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del index[token]

    # -------------------------------------------------------- invalidation

    def invalidate(self) -> None:
        """Drop every memoised walk (the whole-cache fallback)."""
        self.invalidation_stats.full += 1
        self.invalidation_stats.paths_dropped += len(self._paths)
        self._paths.clear()
        self._by_table.clear()
        self._by_entry.clear()
        self._by_group.clear()

    def invalidate_for_add(
        self, table_id: int, match: "Match", priority: int
    ) -> int:
        """Scoped invalidation for a freshly-added flow entry.

        A new rule in table T can only redirect walks that consulted T,
        and only those whose lookup key at T it matches with a priority
        that can win the arbitration (ties resolve to the incumbent, so
        ``priority >= matched.priority`` is one notch conservative —
        a replacement ADD carries the incumbent's own priority and must
        invalidate).  Walks that ended in a table-miss at T are
        redirected by any matching rule.
        """
        self.invalidation_stats.scoped += 1
        keys = self._by_table.get(table_id)
        if not keys:
            return 0
        doomed = []
        for key in keys:
            path = self._paths[key]
            for visited, lookup_key in path.visits:
                if visited != table_id:
                    continue
                if match.matches_key(lookup_key):
                    if path.miss_table == table_id:
                        doomed.append(key)
                    else:
                        matched = next(
                            entry for t, entry in path.steps if t == table_id
                        )
                        if priority >= matched.priority:
                            doomed.append(key)
                break  # goto-table only increases: one visit per table
        for key in doomed:
            self._drop(key)
        self.invalidation_stats.paths_dropped += len(doomed)
        return len(doomed)

    def invalidate_entries(self, entries: "Iterable[FlowEntry]") -> int:
        """Scoped invalidation for removed or modified flow entries.

        Only walks that *matched* one of the entries depend on them:
        removing or rewriting a non-winner can never promote a
        different winner past the one already memoised.
        """
        self.invalidation_stats.scoped += 1
        doomed: "set[tuple[int | None, ...]]" = set()
        for entry in entries:
            doomed |= self._by_entry.get(id(entry), set())
        for key in doomed:
            self._drop(key)
        self.invalidation_stats.paths_dropped += len(doomed)
        return len(doomed)

    def invalidate_group(self, group_id: int) -> int:
        """Scoped invalidation for a group-table mutation."""
        self.invalidation_stats.scoped += 1
        doomed = list(self._by_group.get(group_id, ()))
        for key in doomed:
            self._drop(key)
        self.invalidation_stats.paths_dropped += len(doomed)
        return len(doomed)

    # --------------------------------------------------------------- stats

    @property
    def invalidations(self) -> int:
        """Total invalidation events, full-flush and dependency-scoped."""
        return self.invalidation_stats.full + self.invalidation_stats.scoped

    @property
    def hit_rate(self) -> Optional[float]:
        """Hits over lookups; None (no data, not 0.0) before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else None

    def stats(self) -> dict:
        return {
            "size": len(self._paths),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "invalidations": self.invalidations,
            "full_invalidations": self.invalidation_stats.full,
            "scoped_invalidations": self.invalidation_stats.scoped,
            "paths_dropped": self.invalidation_stats.paths_dropped,
        }
