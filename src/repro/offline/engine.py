"""The shared race-analysis engine (tree build / tree compare / ILP core).

One implementation serves all three analysis modes:

* **post-mortem** — :func:`~repro.offline.analyzer.analyze_trace` walks a
  complete pair plan over a closed trace directory;
* **distributed** — the analysis service's shard workers
  (:func:`~repro.serve.workers.run_shard`, behind both ``repro serve`` and
  ``mode="parallel"``) each drive an engine over their shard of the plan;
* **streaming** — :class:`~repro.stream.analyzer.StreamAnalyzer` feeds the
  engine interval pairs while the traced program is still running.

The engine is agnostic about where its inputs come from: it only needs a
*trace source* — any object with ``reader(gid)``, ``mutexsets``, and
``task_graph`` (both :class:`~repro.sword.reader.TraceDir` and the streaming
layer's live source qualify).

Witness determinism.  Race *identities* are pc pairs; the report carries one
witnessing occurrence.  Which interval pair is analyzed first differs
between the serial, distributed, and streaming drivers, so the engine
deduplicates per *comparison* only and lets :class:`~repro.offline.report.
RaceSet` keep the canonical (smallest) witness — making the final
``RaceSet`` byte-identical across all three modes regardless of pair order.

Every mode also gets the salvage rule here: :meth:`AnalysisEngine.
analyze_pair` abandons a salvage pair that raises.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields

import numpy as np

from ..ilp.memo import SolverMemo
from ..ilp.overlap import intervals_share_address
from ..itree.builder import TreeBuilder
from ..itree.tree import IntervalTree
from ..obs import (
    COUNT_BUCKETS,
    SECONDS_BUCKETS,
    Instrumentation,
    get_obs,
)
from ..omp.mutexset import EMPTY_MSID, MutexSetTable
from ..sword.digest import FrameDigest, digests_may_race, fold_digests
from ..sword.integrity import IntegrityReport
from .cache import ResultCache
from .intervals import IntervalData
from .options import AnalysisOptions
from .report import RaceSet, make_report

#: Candidate rows the columnar comparison materialises at a time.  The
#: join's temporaries are bounded by this, not by the candidate count
#: (solve_heavy's 2.8 M candidates: +0.2 MB traced peak over the scalar
#: walk here, +33 MB at 1 Mi rows).  8 Ki and 16 Ki rows are equally
#: fast (0.32 / 0.15 / 0.11 / 0.11 / 0.14 / 0.21 s at 1 Ki / 4 Ki / 8 Ki /
#: 16 Ki / 64 Ki / 1 Mi), but an int64 temporary of 16 Ki rows is 128 KiB,
#: malloc's mmap threshold: every block then maps, faults in and unmaps
#: its temporaries (~2 000 minor faults and 4-16 ms of system time an
#: analysis, different every run); 64 KiB ones are recycled from the heap.
_JOIN_BLOCK_ROWS = 1 << 13

#: ``len(tree_a) * len(tree_b)`` below which the scalar walk wins: the
#: join pays NumPy's fixed per-call cost (~0.1 ms a comparison) whatever
#: the tree sizes, while the walk pays per candidate row and, on a tree's
#: first comparison, for making its interval objects (the join makes them
#: only for solver rows).  At 64x64 the join (0.22 ms) ties the walk with
#: its objects made (0.23 ms) and beats it without (0.26-0.27 ms); at
#: 32x32 the walk wins both ways (0.15-0.17 / 0.18 against 0.19 ms).
#: Re-measure with
#: benchmarks/test_micro_kernels.py::test_bench_compare_kernels.
_COLUMNAR_MIN_NODE_PRODUCT = 4096

#: Built trees the engine keeps in memory (LRU): the bound that keeps a
#: pass over a large trace memory-bounded.
TREE_CACHE_CAPACITY = 64


def _stat(fold: str, counter: str | None = None, default=0):
    """An :class:`AnalysisStats` field: how it folds across shards and,
    when it is mirrored as an ``offline.<field>`` counter, the help string."""
    return field(default=default, metadata={"fold": fold, "counter": counter})


@dataclass(slots=True)
class AnalysisStats:
    """Where the offline time went (Table III's OA column breakdown).

    Declared once: the JSON shape, the shard merge and the ``offline.*``
    counters all derive from the fields.
    Folds: ``sum`` — work done; ``max`` — phase seconds (shards run
    concurrently: the critical path) and the verdict-table constants
    (every shard that saw the table reports the same totals); ``plan``
    — summed, but the drivers export these as gauges, not counters;
    ``set`` — assigned from the merged race set, never folded.
    """

    intervals: int = _stat("plan")
    concurrent_pairs: int = _stat("plan")
    trees_built: int = _stat("sum", "")
    tree_nodes: int = _stat("sum")
    events_read: int = _stat("sum", "")
    overlap_candidates: int = _stat("sum", "")
    ilp_solves: int = _stat("sum", "")
    races_found: int = _stat("set")
    pairs_pruned: int = _stat("sum", "pairs dismissed by access digests")
    solver_memo_hits: int = _stat("sum", "Diophantine solves served memoized")
    solver_memo_misses: int = _stat("sum", "Diophantine solves computed")
    pair_cache_hits: int = _stat("sum", "pair verdicts replayed from cache")
    #: Uncompressed bytes actually decompressed (the lazy-inflation
    #: claim: scales with races found, not with trace size).
    bytes_inflated: int = _stat("sum", "uncompressed bytes decompressed")
    #: Chunks decided from their meta-row digests alone (never inflated).
    frames_pruned: int = _stat("sum", "chunks decided without inflation")
    #: Chunks whose payload was inflated for a tree build.
    frames_inflated: int = _stat("sum", "chunks inflated for tree builds")
    #: Static pre-screening (trace-level constants from the verdict
    #: table).
    sites_proven_free: int = _stat("max")
    sites_definite_race: int = _stat("max")
    events_elided: int = _stat("max")
    plan_seconds: float = _stat("max", default=0.0)
    build_seconds: float = _stat("max", default=0.0)
    compare_seconds: float = _stat("max", default=0.0)

    @property
    def total_seconds(self) -> float:
        return self.plan_seconds + self.build_seconds + self.compare_seconds

    @property
    def events_per_second(self) -> float:
        """Offline throughput: trace events consumed per analysis second."""
        total = self.total_seconds
        return self.events_read / total if total > 0 else 0.0

    def to_json(self) -> dict:
        """Machine-readable stats (the shared report schema): every
        field in declaration order, then the two derived figures."""
        payload = {f.name: getattr(self, f.name) for f in _STAT_FIELDS}
        payload["total_seconds"] = self.total_seconds
        payload["events_per_second"] = self.events_per_second
        return payload

    def merge(self, part: "AnalysisStats") -> None:
        """Fold one contribution — a shard's stats, or the plan's — into
        this total, each field by its declared fold."""
        for f in _STAT_FIELDS:
            fold = f.metadata["fold"]
            if fold != "set":
                mine, theirs = getattr(self, f.name), getattr(part, f.name)
                folded = max(mine, theirs) if fold == "max" else mine + theirs
                setattr(self, f.name, folded)

    def note_static(self, table) -> None:
        """Copy the static verdict table's trace-level counts."""
        self.sites_proven_free = table.sites_proven_free
        self.sites_definite_race = table.sites_definite_race
        self.events_elided = int(table.events_elided)

    def publish(self, registry, since: "AnalysisStats") -> None:
        """Advance every mirrored ``offline.<field>`` counter by this
        ledger's growth over ``since`` and bring ``since`` up to date.
        Zero deltas are published too: the first call interns all of
        them, so a snapshot names every counter whatever the run did."""
        for name, counter, help in _MIRRORED:
            value = getattr(self, name)
            registry.counter(counter, help).inc(value - getattr(since, name))
            setattr(since, name, value)

    def counters(self) -> dict[str, int]:
        """The mirrored fields as a snapshot's ``counters`` would name them."""
        return {counter: getattr(self, name) for name, counter, _ in _MIRRORED}


_STAT_FIELDS = fields(AnalysisStats)
#: (field, counter name, help) of every counter-mirrored field.
_MIRRORED = tuple(
    (f.name, f"offline.{f.name}", f.metadata["counter"])
    for f in _STAT_FIELDS
    if f.metadata["counter"] is not None
)


@dataclass(slots=True)
class AnalysisResult:
    """Races plus phase statistics for one trace.

    ``integrity`` is populated by salvage-mode analysis (the ledger of
    what a damaged trace lost); strict runs leave it None.
    """

    races: RaceSet
    stats: AnalysisStats
    integrity: IntegrityReport | None = None

    @property
    def race_count(self) -> int:
        return len(self.races)

    def to_json(self) -> dict:
        """Machine-readable result (races + stats, the shared schema).

        The ``integrity`` key is additive: absent for strict runs, so
        existing consumers of the schema are unaffected.
        """
        payload = {"races": self.races.to_json(), "stats": self.stats.to_json()}
        if self.integrity is not None:
            payload["integrity"] = self.integrity.to_json()
        return payload


class TreeCache:
    """Bounded LRU of built interval trees keyed by interval identity."""

    def __init__(self) -> None:
        self._cache: OrderedDict = OrderedDict()

    def get(self, key):
        tree = self._cache.get(key)
        if tree is not None:
            self._cache.move_to_end(key)
        return tree

    def put(self, key, tree) -> None:
        self._cache[key] = tree
        self._cache.move_to_end(key)
        while len(self._cache) > TREE_CACHE_CAPACITY:
            self._cache.popitem(last=False)


def check_node_pair(
    a,
    b,
    mutexsets: MutexSetTable,
    *,
    memo: SolverMemo | None = None,
):
    """Apply the full race condition to two tree nodes' intervals.

    Returns a witness address or None.  Conditions (paper §III-B): at least
    one write, not both atomic, disjoint mutex sets, and a shared byte
    address under the strided-interval constraints.  With ``memo`` the
    overlap check is served through the solver memo (identical results,
    repeated constraint shapes solved once).
    """
    if not (a.is_write or b.is_write):
        return None
    if a.is_atomic and b.is_atomic:
        return None
    if not mutexsets.disjoint(a.msid, b.msid):
        return None
    share = intervals_share_address if memo is None else memo.share_address
    result = share(a, b)
    return None if result is None else result.address


class DigestPruner:
    """Cascade stage 1: decide a pair from its meta-row digests alone.

    The one fold + :func:`~repro.sword.digest.digests_may_race` test
    both :meth:`AnalysisEngine.analyze_pair` and the shard planner
    (:func:`repro.serve.shards.plan_shards`) apply, so a pair pruned at
    plan time is exactly a pair the engine would have pruned.  Each
    interval's chunk digests are folded once and kept by interval key.
    """

    __slots__ = ("_folded",)

    def __init__(self) -> None:
        self._folded: dict[object, FrameDigest] = {}

    def digest(self, interval: IntervalData) -> FrameDigest:
        """Fold the interval's frame-resident digests (no inflation)."""
        key = interval.key
        folded = self._folded.get(key)
        if folded is None:
            folded = self._folded[key] = fold_digests(interval.digests)
        return folded

    def prunes(self, ia: IntervalData, ib: IntervalData, stats) -> bool:
        """True when the digests prove no access pair of (ia, ib) races;
        the pruned pair and the chunks it leaves un-inflated are counted
        on ``stats``."""
        if digests_may_race(self.digest(ia), self.digest(ib)):
            return False
        stats.pairs_pruned += 1
        stats.frames_pruned += len(ia.chunks) + len(ib.chunks)
        return True


class AnalysisEngine:
    """Tree construction and pair comparison over one trace source.

    ``source`` provides ``reader(gid)`` plus ``mutexsets`` / ``task_graph``
    attributes; the engine owns the readers it opens and the bounded tree
    cache, and accumulates :class:`AnalysisStats` across calls.
    """

    def __init__(
        self,
        source,
        *,
        options: AnalysisOptions | None = None,
        obs: Instrumentation | None = None,
    ) -> None:
        self.source = source
        options = options or AnalysisOptions()
        options.validate()
        self.options = options
        self.obs = obs or options.obs or get_obs()
        self.stats = AnalysisStats()
        self._tree_cache = TreeCache()
        self._readers: dict[int, object] = {}
        self._memo = SolverMemo()
        #: Frame-digest pre-filter: decide pairs from the meta-row
        #: digests *before* scheduling any inflation.
        self._pruner = DigestPruner()
        self._inflated_seen: dict[int, int] = {}
        self._result_cache = self._attach_result_cache(options.fastpath)
        #: Salvage only: the pairs this engine abandoned, for its driver
        #: to fold into the trace's report.
        salvage = options.integrity == "salvage"
        self.abandoned = IntegrityReport(mode="salvage") if salvage else None
        #: What :meth:`close` has already published of ``stats``.
        self._published = AnalysisStats()
        registry = self.obs.registry
        self._m_cache_hits = registry.counter("offline.tree_cache_hits")
        self._m_races = registry.gauge("offline.races")
        self._m_build_seconds = registry.histogram(
            "offline.tree_build_seconds", "per-interval tree construction",
            buckets=SECONDS_BUCKETS,
        )
        self._m_compare_seconds = registry.histogram(
            "offline.pair_compare_seconds", "per-pair tree comparison",
            buckets=SECONDS_BUCKETS,
        )
        self._m_tree_nodes = registry.histogram(
            "offline.tree_nodes", "summarised nodes per built tree",
            buckets=COUNT_BUCKETS,
        )
        self._m_pair_cache_rate = registry.gauge(
            "offline.pair_cache_hit_rate", "persistent pair-cache hit rate"
        )
        self._pair_cache_lookups = 0

    def _attach_result_cache(self, fast) -> ResultCache | None:
        """Persistent caching for closed traces only.

        A live streaming source's files are still growing — content
        hashes would be meaningless — so the cache stays off there; the
        replay path (closed trace) re-enables it.
        """
        if not fast.result_cache:
            return None
        if bool(getattr(self.source, "live", False)):
            return None
        path = getattr(self.source, "path", None)
        if path is None:
            path = getattr(self.source, "directory", None)
        if path is None:
            return None
        return ResultCache(path, fast.cache_dir, registry=self.obs.registry)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release every reader this engine opened, then publish the
        stats as ``offline.*`` counters — here, not per pair: nothing
        reads one mid-analysis, and at close stats == counters holds by
        construction, in every mode, a pair that raised included."""
        self._sync_inflated()
        self.stats.publish(self.obs.registry, self._published)
        for reader in self._readers.values():
            reader.close()
        self._readers.clear()
        # A reopened reader restarts its counter at zero.
        self._inflated_seen.clear()

    def _sync_inflated(self) -> None:
        """Fold reader decompression counters into the stats (idempotent)."""
        for gid, reader in self._readers.items():
            total = int(getattr(reader, "bytes_inflated", 0))
            prev = self._inflated_seen.get(gid, 0)
            if total > prev:
                self._inflated_seen[gid] = total
                self.stats.bytes_inflated += total - prev

    def __enter__(self) -> "AnalysisEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- tree construction -------------------------------------------------------

    def _reader(self, gid: int):
        reader = self._readers.get(gid)
        if reader is None:
            reader = self.source.reader(gid)
            self._readers[gid] = reader
        return reader

    def build_tree(self, interval: IntervalData) -> IntervalTree:
        """Stream one interval's chunks into a summarised tree (LRU-cached
        in memory; never stored on disk)."""
        key = interval.key
        cached = self._tree_cache.get(key)
        if cached is not None:
            self._m_cache_hits.inc()
            return cached
        t0 = time.perf_counter()
        with self.obs.tracer.span(
            "tree-build", category="offline", gid=key.gid,
            pid=key.pid, bid=key.bid,
        ):
            builder = TreeBuilder()
            reader = self._reader(key.gid)
            for begin, size in interval.chunks:
                view = reader.frame_at(begin, size)
                for records in view.iter_events():
                    builder.add_records(records)
            tree = builder.finish()
        elapsed = time.perf_counter() - t0
        self.stats.frames_inflated += len(interval.chunks)
        self._sync_inflated()
        self.stats.trees_built += 1
        self.stats.tree_nodes += len(tree)
        self.stats.events_read += builder.events_in
        self.stats.build_seconds += elapsed
        self._m_tree_nodes.observe(len(tree))
        self._m_build_seconds.observe(elapsed)
        self._tree_cache.put(key, tree)
        return tree

    # -- pair comparison ------------------------------------------------------------

    def compare_trees(
        self,
        tree_a: IntervalTree,
        tree_b: IntervalTree,
        ia: IntervalData,
        ib: IntervalData,
        races: RaceSet,
        on_race=None,
        sink: list | None = None,
    ) -> None:
        """Probe every node of one tree against the other.

        For intervals carrying explicit tasks (tasking extension), every
        candidate node pair is additionally gated by the task-ordering
        judgment — including same-thread pairs, which is why such
        intervals are also compared against themselves.

        The pair is oriented canonically (by interval identity, not by
        which argument the caller passed first): within one comparison
        the first witness found per pc pair wins, so the probe order must
        be a function of the pair alone for the serial, distributed, and
        streaming drivers to select identical witnesses.

        ``on_race(report)`` is invoked for every pc pair that is new to
        ``races`` (the streaming mode's live feed).  ``sink``, when given,
        collects every report this comparison generated — the result
        cache stores that list so a later run can replay the comparison
        without the trees.

        :meth:`_compare_scalar` defines the result; pairs big enough to
        repay NumPy's fixed cost get the same rows, reports and counts
        from :meth:`_compare_columnar`.
        """
        tree_a, tree_b, ia, ib, use_tasks = self._orient(tree_a, tree_b, ia, ib)
        if (
            not use_tasks
            and len(tree_a) * len(tree_b) >= _COLUMNAR_MIN_NODE_PRODUCT
        ):
            self._compare_columnar(tree_a, tree_b, ia, ib, races, on_race, sink)
        else:
            self._compare_scalar(
                tree_a, tree_b, ia, ib, races, on_race, sink, use_tasks,
                self._memo,
            )

    def _orient(self, tree_a, tree_b, ia, ib):
        """A pair's canonical orientation and its task gate, for every
        comparison body: ``(tree_a, tree_b, ia, ib, use_tasks)`` with
        ``ia`` the smaller interval identity."""
        key_a = (ia.key.gid, ia.key.pid, ia.key.bid)
        key_b = (ib.key.gid, ib.key.pid, ib.key.bid)
        if key_b < key_a:
            tree_a, tree_b = tree_b, tree_a
            ia, ib = ib, ia
        same_group = (ia.key.pid, ia.key.bid) == (ib.key.pid, ib.key.bid)
        use_tasks = same_group and self.source.task_graph.holds_tasks(
            ia.key.pid, ia.key.bid
        )
        return tree_a, tree_b, ia, ib, use_tasks

    def _compare_scalar(
        self, tree_a, tree_b, ia, ib, races, on_race, sink, use_tasks, memo
    ) -> None:
        """The race condition, one candidate node pair at a time (the
        paper's ``RACE_CHECK`` loop): the path for task-gated and small
        pairs, and with ``memo=None`` the reference analysis's only one
        (:func:`~repro.offline.analyzer.reference_analyze`)."""
        from ..tasking.graph import decode_point

        mutexsets = self.source.mutexsets
        graph = self.source.task_graph
        # Each A node's window of B rows (the columnar join's), of which
        # the rows that end before the node starts are not overlaps.
        ca = tree_a.columns()
        firsts, stops = tree_b.windows(ca.low, ca.high)
        highs_b = tree_b.columns().high.tolist()
        nodes_b = tree_b.intervals()
        # Per-comparison dedup only: a site pair repeating across *this*
        # pair's nodes is solved once, but other interval pairs still get
        # to contribute their own witness so the canonical-witness merge in
        # RaceSet stays independent of pair order across analysis modes.
        seen_here: set[tuple[int, int]] = set()
        for si, first, stop in zip(tree_a, firsts.tolist(), stops.tolist()):
            for j in range(first, stop):
                if highs_b[j] < si.low:
                    continue
                other = nodes_b[j]
                self.stats.overlap_candidates += 1
                if use_tasks:
                    ent_a, seq_a = decode_point(si.point)
                    ent_b, seq_b = decode_point(other.point)
                    if not graph.concurrent(
                        ent_a, seq_a, ia.key.gid, ent_b, seq_b, ib.key.gid
                    ):
                        continue
                pair_key = (
                    (si.pc, other.pc) if si.pc <= other.pc else (other.pc, si.pc)
                )
                if pair_key in seen_here:
                    continue  # this comparison already solved the site pair
                self.stats.ilp_solves += 1
                address = check_node_pair(si, other, mutexsets, memo=memo)
                if address is None:
                    continue
                seen_here.add(pair_key)
                self._report_race(
                    (si.pc, si.is_write), (other.pc, other.is_write), address,
                    ia, ib, races, on_race, sink,
                )

    def _compare_columnar(
        self, tree_a, tree_b, ia, ib, races, on_race, sink
    ) -> None:
        """:meth:`_compare_scalar` as a blocked join over column views.

        Rows are candidate (A node, B node) pairs in the scalar probe
        order — A in-order major, B in-order minor — so "the first row
        of a pc pair that races" is the witness the scalar loop reports.
        Each block applies the scalar loop's tests as masks in its order;
        only rows that are not both dense reach the (memoized) solver,
        one at a time and in row order, so the memo sees the same calls.
        """
        ca, cb = tree_a.columns(), tree_b.columns()
        # An A row's window of B rows, as the scalar walk scans it.
        first, stop = tree_b.windows(ca.low, ca.high)
        width = np.maximum(stop - first, 0)
        ends = np.cumsum(width)
        total = int(ends[-1]) if len(ends) else 0
        starts = ends - width
        # A pc pair as one int64: pcs ranked over both trees (rank order
        # is pc order), key = low rank * #pcs + high rank.
        pcs = np.union1d(ca.pc, cb.pc)
        rank_a = np.searchsorted(pcs, ca.pc)
        rank_b = np.searchsorted(pcs, cb.pc)
        dense_a, dense_b = ca.dense, cb.dense
        mutexsets = self.source.mutexsets
        stats = self.stats
        #: Keys needing no more solves: already raced (the scalar loop's
        #: ``seen_here``).
        decided = np.empty(0, np.int64)
        #: Both trees' interval objects, made (once a tree) for the first
        #: solver row.
        nodes = None
        for r0 in range(0, total, _JOIN_BLOCK_ROWS):
            r1 = min(r0 + _JOIN_BLOCK_ROWS, total)
            a0 = int(np.searchsorted(ends, r0, "right"))
            a1 = int(np.searchsorted(ends, r1, "left"))
            reps = width[a0 : a1 + 1].copy()
            reps[0] -= r0 - starts[a0]
            reps[-1] -= ends[a1] - r1
            ai = np.repeat(np.arange(a0, a1 + 1), reps)
            bi = np.arange(r0, r1) - starts[ai] + first[ai]
            # The window bounds low_B <= high_A; this is the other half.
            overlap = cb.high[bi] >= ca.low[ai]
            ai, bi = ai[overlap], bi[overlap]
            stats.overlap_candidates += len(ai)
            ra, rb = rank_a[ai], rank_b[bi]
            key = np.minimum(ra, rb) * len(pcs) + np.maximum(ra, rb)
            live = ~np.isin(key, decided)
            ai, bi, key = ai[live], bi[live], key[live]
            # ``rows`` index the live rows; each test narrows them.
            rows = np.flatnonzero(
                (ca.write[ai] | cb.write[bi]) & ~(ca.atomic[ai] & cb.atomic[bi])
            )
            ma, mb = ca.msid[ai[rows]], cb.msid[bi[rows]]
            locked = np.flatnonzero((ma != EMPTY_MSID) & (mb != EMPTY_MSID))
            if len(locked):
                span = int(mb.max()) + 1
                sets, inverse = np.unique(
                    ma[locked] * span + mb[locked],
                    return_inverse=True,
                )
                disjoint = np.array(
                    [mutexsets.disjoint(*divmod(s, span)) for s in sets.tolist()]
                )
                rows = np.delete(rows, locked[~disjoint[inverse]])
            dense = dense_a[ai[rows]] & dense_b[bi[rows]]
            # key -> (first racing row, witness address) within this block.
            racing: dict[int, tuple[int, int]] = {}
            easy = rows[dense]
            if len(easy):
                keys, at = np.unique(key[easy], return_index=True)
                easy = easy[at]
                address = np.maximum(ca.low[ai[easy]], cb.low[bi[easy]])
                racing = dict(
                    zip(keys.tolist(), zip(easy.tolist(), address.tolist()))
                )
            hard = rows[~dense].tolist()
            if nodes is None and hard:
                nodes = tree_a.intervals(), tree_b.intervals()
            for row in hard:
                k = int(key[row])
                if k in racing and racing[k][0] < row:
                    continue  # the scalar loop had the key in seen_here
                result = self._memo.share_address(
                    nodes[0][ai[row]], nodes[1][bi[row]]
                )
                if result is not None:
                    racing[k] = (row, result.address)
            # Every live row is a solve, except those behind their key's
            # first racing row.
            solves = len(key)
            if racing:
                raced = np.array(sorted(racing))
                raced_at = np.array([racing[k][0] for k in raced.tolist()])
                at = np.minimum(np.searchsorted(raced, key), len(raced) - 1)
                solves -= np.count_nonzero(
                    (raced[at] == key) & (np.arange(len(key)) > raced_at[at])
                )
                decided = np.concatenate((decided, raced))
            stats.ilp_solves += int(solves)
            for row, address in sorted(racing.values()):
                a, b = ai[row], bi[row]
                self._report_race(
                    (int(ca.pc[a]), bool(ca.write[a])),
                    (int(cb.pc[b]), bool(cb.write[b])),
                    address, ia, ib, races, on_race, sink,
                )

    def _report_race(self, site_a, site_b, address, ia, ib, races, on_race, sink):
        """One racing node pair — each side its ``(pc, is_write)`` — into
        ``races`` / ``sink`` / ``on_race``."""
        report = make_report(
            pc_a=site_a[0],
            pc_b=site_b[0],
            address=address,
            write_a=site_a[1],
            write_b=site_b[1],
            gid_a=ia.key.gid,
            gid_b=ib.key.gid,
            pid_a=ia.key.pid,
            pid_b=ib.key.pid,
            bid_a=ia.key.bid,
            bid_b=ib.key.bid,
        )
        if sink is not None:
            sink.append(report)
        if races.add(report) and on_race is not None:
            on_race(races.get(report.key))
        self.stats.races_found = len(races)

    def _replay_reports(self, reports, races: RaceSet, on_race) -> None:
        """Feed cached reports through the same add/notify path a live
        comparison uses — order-independent by RaceSet's canonical merge."""
        for report in reports:
            if races.add(report) and on_race is not None:
                on_race(races.get(report.key))
        self.stats.races_found = len(races)
        self._m_races.set(len(races))

    def apply_static_verdicts(
        self, races: RaceSet, on_race=None, *, table=None
    ) -> None:
        """Fold the trace's static verdict table into one result.

        Copies the trace-level counts into the stats and injects the
        synthesised DEFINITE_RACE reports through the same add/notify
        path live comparisons use — RaceSet's canonical merge makes the
        injection order-independent.  Injection is unconditional when a
        table exists: elided sites produced no events, so dropping the
        reports would lose races.  ``table`` overrides the source's (the
        streaming driver captures the live producer's table at trace
        begin).
        """
        if table is None:
            table = getattr(self.source, "static_verdicts", None)
        if table is None:
            return
        self.stats.note_static(table)
        self._replay_reports(table.race_reports(), races, on_race)

    def analyze_pair(
        self,
        ia: IntervalData,
        ib: IntervalData,
        races: RaceSet,
        on_race=None,
    ) -> None:
        """Decide one interval pair (the unit of scheduling) through the
        cascade.  In salvage an exception abandons the pair, not the
        analysis: it is counted and noted on :attr:`abandoned` and on
        ``offline.pairs_skipped``."""
        try:
            self._cascade(ia, ib, races, on_race)
        except Exception as exc:
            if self.abandoned is None:
                raise
            self.abandoned.pairs_skipped += 1
            self.abandoned.note(
                f"pair ({ia.key.gid},{ia.key.pid},{ia.key.bid}) x "
                f"({ib.key.gid},{ib.key.pid},{ib.key.bid}) "
                f"abandoned: {exc}"
            )
            self.obs.registry.counter("offline.pairs_skipped").inc()

    def _cascade(self, ia, ib, races, on_race) -> None:
        """The pair-decision cascade.

        In cost order: (1) the frame-resident meta-row digests prove the
        pair cannot race and it is pruned *before any payload byte is
        decompressed* — and before any cache file is hashed, read or
        written: a digest test is cheaper than the lookup it would
        save; (2) a persistent pair-verdict hit replays the cached
        reports without touching any tree; (3) the trees are built and
        compared with the memoized solver.  Every path produces the identical
        contribution to ``races`` (the reference analysis's reports,
        exactly), and every pair takes exactly one: ``pairs_pruned +
        pair_cache_hits + compared == concurrent_pairs``.
        """
        if self._pruner.prunes(ia, ib, self.stats):
            return
        if self._result_cache is not None:
            self._pair_cache_lookups += 1
            cached = self._result_cache.load_pair(ia, ib)
            self.stats.pair_cache_hits += cached is not None
            self._m_pair_cache_rate.set(
                self.stats.pair_cache_hits / self._pair_cache_lookups
            )
            if cached is not None:
                self._replay_reports(cached, races, on_race)
                return
        tree_a = self.build_tree(ia)
        tree_b = self.build_tree(ib)
        memo_h0, memo_m0 = self._memo.hits, self._memo.misses
        sink: list | None = [] if self._result_cache is not None else None
        t0 = time.perf_counter()
        try:
            with self.obs.tracer.span("pair-compare", category="offline"):
                self.compare_trees(
                    tree_a, tree_b, ia, ib, races, on_race=on_race, sink=sink
                )
        finally:
            # Also when the comparison raised: a pair salvage mode
            # abandons still spent the time and the memo lookups.
            elapsed = time.perf_counter() - t0
            self.stats.compare_seconds += elapsed
            self.stats.solver_memo_hits += self._memo.hits - memo_h0
            self.stats.solver_memo_misses += self._memo.misses - memo_m0
            self._m_compare_seconds.observe(elapsed)
        self._m_races.set(len(races))
        self._sync_inflated()
        if self._result_cache is not None:
            self._result_cache.store_pair(ia, ib, sink)
