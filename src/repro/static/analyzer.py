"""Region classification: the pre-screening pass proper.

Runs once per region *shape* — a spec and the team's gids — before the
first such region's body executes; the classification does not depend
on the region instance, so a tool memoises it and stamps each instance's
pid into the synthesised reports (:meth:`RegionVerdicts.for_region`).
For every declared site the analyzer materialises the per-thread access
footprint as a :class:`~repro.itree.interval.StridedInterval` — the same
representation the dynamic pipeline coalesces events into — and decides
cross-thread disjointness with the same exact overlap check
(:func:`repro.ilp.overlap.intervals_share_address`) the offline engine
uses.  Sharing the geometry kernel is what makes the two paths agree:
a statically synthesised DEFINITE_RACE witness is byte-identical to the
dynamically detected one because both come from the same function over
the same intervals.

Verdict rules (soundness argument in DESIGN.md §3.11):

* non-static schedules: every affine site is UNKNOWN (reduction sites
  stay PROVEN_FREE — the critical lock serialises them regardless);
* sites only pair with sites on the *same array in the same phase*
  (different arrays are disjoint allocations; different phases are
  barrier-ordered);
* a site is PROVEN_FREE when no such pair with at least one write
  shares an address across two different thread slots — including the
  site against itself;
* racy sites become DEFINITE_RACE only in ``complete`` regions where
  every declared site classified (no UNKNOWN sibling a silent elision
  could hide a race against); otherwise they demote to UNKNOWN and the
  region stays instrumented at those pcs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..ilp.overlap import intervals_share_address
from ..itree.interval import StridedInterval
from .model import (
    DEFINITE_RACE,
    PROVEN_FREE,
    STATIC_SCHEDULE,
    UNKNOWN,
    AffineSite,
    RegionSpec,
    chunk_bounds,
)

#: Positions of ``pid_a``/``pid_b`` in a report tuple (RaceReport order).
_PID_A, _PID_B = 7, 8


@dataclass(slots=True)
class RegionVerdicts:
    """Outcome of pre-screening one region (what the runtime consumes).

    ``elide`` is the set of pcs whose event emission the runtime may
    suppress; ``reports`` are the synthesised DEFINITE_RACE witnesses
    (field tuples of :class:`~repro.offline.report.RaceReport`, kept as
    plain tuples so this module stays import-light for the hot path).
    ``proven_free`` / ``definite_race`` are the pcs per verdict, derived
    from ``verdicts`` (and shared by every instance of one shape).
    """

    pid: int
    verdicts: dict[int, str] = field(default_factory=dict)
    elide: frozenset[int] = frozenset()
    reports: list[tuple] = field(default_factory=list)
    proven_free: frozenset[int] | None = None
    definite_race: frozenset[int] | None = None

    def __post_init__(self) -> None:
        if self.proven_free is None:
            self.proven_free = self._pcs(PROVEN_FREE)
        if self.definite_race is None:
            self.definite_race = self._pcs(DEFINITE_RACE)

    def _pcs(self, verdict: str) -> frozenset[int]:
        return frozenset(pc for pc, v in self.verdicts.items() if v == verdict)

    @property
    def sites_proven_free(self) -> int:
        return len(self.proven_free)

    @property
    def sites_definite_race(self) -> int:
        return len(self.definite_race)

    def for_region(self, pid: int) -> "RegionVerdicts":
        """This classification for region instance ``pid``.

        Everything but the reports' ``pid_a``/``pid_b`` fields is shared:
        a synthesised witness pairs two threads of one region instance.
        """
        return RegionVerdicts(
            pid=pid,
            verdicts=self.verdicts,
            elide=self.elide,
            reports=[
                report[:_PID_A] + (pid, pid) + report[_PID_B + 1 :]
                for report in self.reports
            ],
            proven_free=self.proven_free,
            definite_race=self.definite_race,
        )


def site_interval(
    site: AffineSite, lo: int, hi: int
) -> Optional[StridedInterval]:
    """The byte footprint of one site over iterations ``[lo, hi)``.

    None for an empty chunk.  The interval is exactly what the offline
    coalescer would build from the site's event stream: ``hi - lo``
    accesses of ``block`` elements, ``coef`` elements apart, starting at
    element ``coef*lo + offset``.
    """
    if hi <= lo:
        return None
    array = site.array
    esize = array.itemsize
    return StridedInterval(
        low=array.addr(0) + (site.coef * lo + site.offset) * esize,
        stride=site.coef * esize,
        size=site.block * esize,
        count=hi - lo,
        is_write=site.is_write,
        is_atomic=False,
        pc=site.pc,
        msid=0,
    )


def _paired(a: AffineSite, b: AffineSite) -> bool:
    """True when two sites can conflict at all (same array, same phase,
    at least one write)."""
    return (
        a.array is b.array
        and a.phase == b.phase
        and (a.is_write or b.is_write)
    )


def analyze_region(
    spec: RegionSpec, *, gids, pid: int = 0
) -> RegionVerdicts:
    """Classify every declared site for one region shape.

    ``gids`` are the team members' thread gids in slot order — the span
    comes from its length, and synthesised reports carry real gids so
    they are byte-identical to what the dynamic path would report.
    ``pid`` only labels the result and its reports; screen a shape once
    and :meth:`~RegionVerdicts.for_region` each instance.
    """
    span = len(gids)
    verdicts: dict[int, str] = {}
    for pc in spec.reduction_pcs:
        verdicts[pc] = PROVEN_FREE
    if not spec.sites and not spec.reduction_pcs:
        return RegionVerdicts(pid=pid, verdicts=verdicts)
    if spec.schedule != STATIC_SCHEDULE:
        for site in spec.sites:
            verdicts[site.pc] = UNKNOWN
        return RegionVerdicts(
            pid=pid,
            verdicts=verdicts,
            elide=frozenset(
                pc for pc, v in verdicts.items() if v == PROVEN_FREE
            ),
        )

    # Per-(site, slot) footprints under the static partition.
    footprints: dict[int, list[Optional[StridedInterval]]] = {}
    for idx, site in enumerate(spec.sites):
        footprints[idx] = [
            site_interval(site, *chunk_bounds(slot, span, spec.iterations))
            for slot in range(span)
        ]

    # Pairwise cross-thread overlap: a site is racy when any conflicting
    # pair (including itself) shares an address across two slots.
    racy: set[int] = set()
    conflicts: list[tuple[int, int]] = []
    nsites = len(spec.sites)
    for i in range(nsites):
        for j in range(i, nsites):
            if not _paired(spec.sites[i], spec.sites[j]):
                continue
            if _slots_overlap(footprints[i], footprints[j]):
                racy.add(i)
                racy.add(j)
                conflicts.append((i, j))

    for idx, site in enumerate(spec.sites):
        verdicts[site.pc] = DEFINITE_RACE if idx in racy else PROVEN_FREE

    reports: list[tuple] = []
    if racy:
        if spec.complete:
            reports = _synthesize(spec, footprints, conflicts, pid, gids)
        else:
            # Without the completeness contract an undeclared site could
            # race against an elided one; keep racy pcs instrumented and
            # let the dynamic path report them.
            for idx in racy:
                verdicts[spec.sites[idx].pc] = UNKNOWN
    return RegionVerdicts(
        pid=pid,
        verdicts=verdicts,
        elide=frozenset(pc for pc, v in verdicts.items() if v != UNKNOWN),
        reports=reports,
    )


def _slots_overlap(
    fa: list[Optional[StridedInterval]], fb: list[Optional[StridedInterval]]
) -> bool:
    """Any cross-slot shared address between two sites' footprints?"""
    span = len(fa)
    for s in range(span):
        a = fa[s]
        if a is None:
            continue
        for t in range(span):
            if t == s:
                continue
            b = fb[t]
            if b is None:
                continue
            if intervals_share_address(a, b) is not None:
                return True
    return False


def _synthesize(
    spec: RegionSpec,
    footprints: dict[int, list[Optional[StridedInterval]]],
    conflicts: list[tuple[int, int]],
    pid: int,
    gids: list[int],
) -> list[tuple]:
    """Reports for every statically racy (site, slot) pair.

    Mirrors the engine's witness selection: the pair is oriented by
    ascending interval key — for same-region siblings, ascending gid —
    and the witness address comes from ``intervals_share_address`` on
    the oriented pair, exactly as ``compare_trees`` computes it.  All
    contributing pairs are emitted; the caller feeds them through
    :meth:`~repro.offline.report.RaceSet.add`, whose canonical-minimum
    merge selects the same final witness the dynamic analysis would.
    """
    from ..offline.report import make_report  # deferred: import cycle

    reports: list[tuple] = []
    span = len(gids)
    for i, j in conflicts:
        fa, fb = footprints[i], footprints[j]
        bid = spec.sites[i].phase
        for s in range(span):
            for t in range(span):
                if t == s:
                    continue
                a, b = fa[s], fb[t]
                if a is None or b is None:
                    continue
                # Canonical orientation: lower gid is side A, matching
                # the engine's (gid, pid, bid) key ordering.
                if gids[s] <= gids[t]:
                    lo_i, hi_i = a, b
                    gid_lo, gid_hi = gids[s], gids[t]
                else:
                    lo_i, hi_i = b, a
                    gid_lo, gid_hi = gids[t], gids[s]
                witness = intervals_share_address(lo_i, hi_i)
                if witness is None:
                    continue
                report = make_report(
                    pc_a=lo_i.pc,
                    pc_b=hi_i.pc,
                    address=witness.address,
                    write_a=lo_i.is_write,
                    write_b=hi_i.is_write,
                    gid_a=gid_lo,
                    gid_b=gid_hi,
                    pid_a=pid,
                    pid_b=pid,
                    bid_a=bid,
                    bid_b=bid,
                )
                reports.append(
                    (
                        report.pc_a, report.pc_b, report.address,
                        report.write_a, report.write_b,
                        report.gid_a, report.gid_b,
                        report.pid_a, report.pid_b,
                        report.bid_a, report.bid_b,
                    )
                )
    return reports
