"""The declarative region model the static pre-screener consumes.

A workload that wants pre-screening describes each parallel region as a
:class:`RegionSpec`: the loop trip count, the schedule clause, and one
:class:`AffineSite` per instrumented access site.  A site maps loop
iteration ``i`` to the element range ``[coef*i + offset,
coef*i + offset + block)`` of one shared array — exactly the information
LLVM's scalar-evolution analysis hands LLOV for real OpenMP loop nests.

Declaring sites on an array is a *completeness contract for that array*:
the declared sites must be the only accesses the region performs on it.
The analyzer never needs the contract for arrays the spec does not
mention — undeclared arrays stay fully instrumented.

``phase`` indexes the barrier phase a site executes in (phase ``p`` runs
between team barriers ``p`` and ``p+1``).  Sites in different phases are
barrier-ordered and therefore never concurrent; multi-sweep loops whose
sweeps repeat the same site sequence may declare one sweep's phases —
each sweep lands the same pc in the same relative phase, and distinct
barrier intervals are analyzed independently.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import RuntimeModelError

#: Site verdicts (the three-point lattice, DESIGN.md §3.11).
PROVEN_FREE = "proven_free"
DEFINITE_RACE = "definite_race"
UNKNOWN = "unknown"
VERDICTS = (PROVEN_FREE, DEFINITE_RACE, UNKNOWN)

#: The only schedule clause the analyzer issues verdicts for: the static
#: schedule's per-thread iteration sets are a pure function of (slot,
#: span, trip count).  Dynamic/guided schedules are load-dependent, so
#: every affine site under them stays UNKNOWN.
STATIC_SCHEDULE = "static"


def chunk_bounds(slot: int, size: int, n: int) -> tuple[int, int]:
    """Iterations ``[lo, hi)`` slot executes under the static schedule.

    Must mirror :meth:`repro.omp.context.ThreadContext.static_chunk`
    exactly — the analyzer's soundness rests on reasoning about the same
    iteration partition the runtime actually executes.
    """
    return slot * n // size, (slot + 1) * n // size


@dataclass(frozen=True, slots=True)
class AffineSite:
    """One access site: iteration ``i`` touches elements
    ``[coef*i + offset, coef*i + offset + block)`` of ``array``.

    ``array`` is the :class:`~repro.memory.address_space.SharedArray`
    the site accesses (anything with ``name``/``itemsize``/``addr``
    works; it compares and hashes by identity, as the analyzer pairs
    sites).  ``coef`` must be positive — descending or degenerate
    subscripts are outside the model and should simply not be declared.
    """

    pc: int
    array: object
    coef: int = 1
    offset: int = 0
    is_write: bool = False
    phase: int = 0
    block: int = 1

    def __post_init__(self) -> None:
        if self.coef < 1:
            raise RuntimeModelError(
                f"AffineSite pc={self.pc:#x}: coef must be >= 1 "
                f"(got {self.coef}); leave non-affine sites undeclared"
            )
        if self.block < 1:
            raise RuntimeModelError(
                f"AffineSite pc={self.pc:#x}: block must be >= 1"
            )
        if self.phase < 0:
            raise RuntimeModelError(
                f"AffineSite pc={self.pc:#x}: phase must be >= 0"
            )


@dataclass(frozen=True, slots=True)
class RegionSpec:
    """Static description of one parallel region.

    Frozen and hashable: equal specs (same sites on the same arrays) are
    one region *shape*, which a tool screens once however often the
    region runs.

    Attributes:
        iterations: loop trip count each phase distributes over the team.
        schedule: the schedule clause (verdicts only under ``"static"``).
        sites: the region's affine access sites.
        reduction_pcs: pcs of reduction-accumulation sites.  Contract:
            those cells are *only* accessed through ``ctx.reduce_add``
            (every access serialised by the per-array critical lock), so
            the sites are race-free by construction.
        complete: the spec covers every access site in the region.  Only
            complete regions may yield DEFINITE_RACE verdicts: report
            synthesis with zero collected events is sound only when no
            undeclared site could have raced with an elided one.
    """

    iterations: int
    schedule: str = STATIC_SCHEDULE
    sites: tuple[AffineSite, ...] = ()
    reduction_pcs: tuple[int, ...] = ()
    complete: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "reduction_pcs", tuple(self.reduction_pcs))
        if self.iterations < 0:
            raise RuntimeModelError("RegionSpec.iterations must be >= 0")
        for site in self.sites:
            if not isinstance(site, AffineSite):
                raise RuntimeModelError(
                    f"RegionSpec.sites entries must be AffineSite, "
                    f"got {type(site).__name__}"
                )
        seen: dict[int, AffineSite] = {}
        for site in self.sites:
            dup = seen.get(site.pc)
            if dup is not None and (
                dup.array is not site.array or dup.phase != site.phase
            ):
                raise RuntimeModelError(
                    f"RegionSpec: pc {site.pc:#x} declared twice with "
                    f"different array/phase — verdicts are per pc"
                )
            seen[site.pc] = site

    @property
    def pcs(self) -> frozenset[int]:
        """Every pc the spec makes a claim about."""
        return frozenset(
            [s.pc for s in self.sites] + list(self.reduction_pcs)
        )
