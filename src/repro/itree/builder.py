"""Summarising interval-tree builder.

Streams access events (decoded trace records) into an
:class:`~repro.itree.tree.IntervalTree`, coalescing loop access patterns into
strided intervals exactly as the paper describes: "the interval tree approach
allows us to summarize the information about consecutive memory accesses
(e.g., array accesses) in one node".

Coalescing strategy: per access *site* — the ``(pc, op, atomicity, size,
mutex set)`` tuple — the builder keeps the most recent open progression.  A
new access that continues that progression (next element, duplicate, or a
stride-establishing second element) is absorbed in O(1); anything else seals
the old node and opens a fresh progression.  This captures the dominant loop
idioms (unit-stride sweeps, strided sweeps, repeated re-reads of one location
such as ``a[0]``) while remaining a strict streaming pass.

Two ingestion paths share those semantics:

* :meth:`TreeBuilder.add_access` — one event at a time (scalar);
* :meth:`TreeBuilder.add_records` — a whole EVENT_DTYPE chunk, coalesced
  with NumPy: records are grouped by site, consecutive duplicates are
  collapsed, and constant-stride runs are found from the address diffs via
  a precomputed change-point array, so the Python-level cost is
  proportional to the number of *sealed nodes*, not the number of records.

Sealed intervals accumulate in seal order; :meth:`TreeBuilder.finish`
sorts them stably by ``low`` (ties keep seal order) and hands the sequence
to :class:`~repro.itree.tree.IntervalTree`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..common.events import (
    EVENT_DTYPE,
    FLAG_ATOMIC,
    FLAG_WRITE,
    KIND_ACCESS,
    Access,
)
from .interval import StridedInterval, interval_from_access
from .tree import IntervalTree


class TreeBuilder:
    """Coalesce an access stream into a summarised interval tree."""

    def __init__(self) -> None:
        # Open progressions by site key; sealed into ``_pending`` when broken.
        self._open: dict[tuple, StridedInterval] = {}
        # Sealed intervals in exact seal order (the order ties keep).
        self._pending: list[StridedInterval] = []
        # Monotone record counter ordering seals across batches.
        self._seq = 0
        self.events_in = 0

    def add_access(self, access: Access) -> None:
        """Absorb one access event."""
        self.events_in += 1
        self._seq += 1
        a = access.normalized()
        key = (a.pc, a.is_write, a.is_atomic, a.size, a.msid, a.task_point)
        cur = self._open.get(key)
        if cur is not None:
            if a.count == 1:
                if cur.try_extend(a.addr):
                    return
            elif cur.try_append_bulk(a.addr, a.count, a.stride):
                return
            self._pending.append(cur)
        self._open[key] = interval_from_access(a)

    def add_records(self, records: np.ndarray) -> None:
        """Absorb a batch of EVENT_DTYPE records (non-access kinds skipped).

        This is the streaming entry point used by the offline analysis: one
        decoded chunk at a time.  Coalescing is vectorised per site; the
        result — open progressions and the seal sequence — is identical to
        feeding every record through :meth:`add_access`.
        """
        if records.dtype != EVENT_DTYPE:
            raise ValueError("records must use EVENT_DTYPE")
        mask = records["kind"] == KIND_ACCESS
        if not mask.any():
            return
        acc = records[mask]
        n = acc.shape[0]
        self.events_in += n
        base = self._seq
        self._seq += n

        addrs = acc["addr"].astype(np.int64)
        sizes = acc["size"].astype(np.int64)
        counts = acc["count"].astype(np.int64)
        strides = acc["stride"].astype(np.int64)
        pcs = acc["pc"].astype(np.int64)
        msids = acc["msid"].astype(np.int64)
        points = acc["aux"].astype(np.int64)
        writes = (acc["flags"] & FLAG_WRITE) != 0
        atomics = (acc["flags"] & FLAG_ATOMIC) != 0

        # Group rows by site key.  lexsort is stable, so each group's rows
        # stay in record order; groups are then visited in first-appearance
        # order to preserve the ``_open`` dict's (site-first-seen) ordering.
        order = np.lexsort((points, msids, sizes, atomics, writes, pcs))
        kp, kw, ka = pcs[order], writes[order], atomics[order]
        ks, km, kt = sizes[order], msids[order], points[order]
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.logical_or.reduce(
            [
                kp[1:] != kp[:-1],
                kw[1:] != kw[:-1],
                ka[1:] != ka[:-1],
                ks[1:] != ks[:-1],
                km[1:] != km[:-1],
                kt[1:] != kt[:-1],
            ],
            out=change[1:],
        )
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], n)
        groups = sorted(
            (order[s:e] for s, e in zip(starts, ends)), key=lambda g: g[0]
        )

        # (seal position, interval) across all site groups of this batch.
        seals: list[tuple[int, StridedInterval]] = []
        for idx in groups:
            j = int(idx[0])
            key = (
                int(pcs[j]), bool(writes[j]), bool(atomics[j]),
                int(sizes[j]), int(msids[j]), int(points[j]),
            )
            if (counts[idx] > 1).any():
                self._coalesce_scalar(
                    key, idx, base, seals,
                    addrs, sizes, counts, strides, writes, atomics,
                    pcs, msids, points,
                )
            else:
                self._coalesce_dense(key, addrs[idx], idx, base, seals)

        seals.sort(key=lambda s: s[0])
        self._pending.extend(iv for _, iv in seals)

    # -- vectorised per-site coalescing ---------------------------------------

    def _coalesce_dense(
        self,
        key: tuple,
        site_addrs: np.ndarray,
        site_idx: np.ndarray,
        base: int,
        seals: list[tuple[int, StridedInterval]],
    ) -> None:
        """Coalesce one site's scalar (count == 1) accesses, vectorised.

        A carried-over open progression participates by prepending its last
        element(s), so the uniform run segmentation below reproduces the
        scalar head-merge rules exactly.
        """
        cur = self._open.get(key)
        if cur is not None:
            if cur.count == 1:
                pre = np.array([cur.low], dtype=np.int64)
            else:
                pre = np.array(
                    [cur.last_start - cur.stride, cur.last_start],
                    dtype=np.int64,
                )
            npre = len(pre)
            a_all = np.concatenate([pre, site_addrs])
            pos_all = np.concatenate(
                [np.full(npre, -1, dtype=np.int64), site_idx]
            )
        else:
            npre = 0
            a_all = site_addrs
            pos_all = site_idx

        # Collapse consecutive duplicates (re-touches of the last element).
        m_all = len(a_all)
        keep = np.empty(m_all, dtype=bool)
        keep[0] = True
        np.not_equal(a_all[1:], a_all[:-1], out=keep[1:])
        a = a_all[keep]
        pos = pos_all[keep]
        m = len(a)

        d = a[1:] - a[:-1]  # all nonzero after the collapse
        # Diff change points: a run starting at element p with stride d[p]
        # ends at the first diff index > p whose value differs — which,
        # because everything in between equals d[p], is the first change
        # point past p (one searchsorted per sealed run).
        cp = np.flatnonzero(d[1:] != d[:-1]) + 1
        ncp = len(cp)

        runs: list[tuple[int, int]] = []  # (first element, last element)
        p = 0
        while p < m:
            if p == m - 1 or d[p] <= 0:
                runs.append((p, p))
                p += 1
                continue
            j = int(np.searchsorted(cp, p, side="right"))
            e = int(cp[j]) if j < ncp else m - 1
            runs.append((p, e))
            p = e + 1

        size = key[3]
        last = len(runs) - 1
        for r, (s, e) in enumerate(runs):
            if r == 0 and cur is not None:
                # The head run extends the carried-over progression.
                extra = e - (npre - 1)
                if extra > 0:
                    if cur.count == 1:
                        cur.stride = int(d[0])
                        cur.count = 1 + extra
                    else:
                        cur.count += extra
                iv = cur
            else:
                count = e - s + 1
                iv = StridedInterval(
                    low=int(a[s]),
                    stride=int(d[s]) if count > 1 else size,
                    size=size,
                    count=count,
                    is_write=key[1],
                    is_atomic=key[2],
                    pc=key[0],
                    msid=key[4],
                    point=key[5],
                )
            if r == last:
                self._open[key] = iv
            else:
                # Sealed by the first record of the next run.
                seals.append((base + int(pos[runs[r + 1][0]]), iv))

    def _coalesce_scalar(
        self,
        key: tuple,
        site_idx: np.ndarray,
        base: int,
        seals: list[tuple[int, StridedInterval]],
        addrs, sizes, counts, strides, writes, atomics, pcs, msids, points,
    ) -> None:
        """Per-record fallback for site groups containing bulk accesses."""
        cur = self._open.get(key)
        for j in site_idx:
            i = int(j)
            a = Access(
                addr=int(addrs[i]),
                size=int(sizes[i]),
                count=int(counts[i]),
                stride=int(strides[i]) if counts[i] > 1 else 0,
                is_write=bool(writes[i]),
                is_atomic=bool(atomics[i]),
                pc=int(pcs[i]),
                msid=int(msids[i]),
                task_point=int(points[i]),
            ).normalized()
            if cur is not None:
                if a.count == 1:
                    if cur.try_extend(a.addr):
                        continue
                elif cur.try_append_bulk(a.addr, a.count, a.stride):
                    continue
                seals.append((base + i, cur))
            cur = interval_from_access(a)
        if cur is not None:
            self._open[key] = cur

    def finish(self) -> IntervalTree:
        """Seal all open progressions and return the summary."""
        self._pending.extend(self._open.values())
        self._open.clear()
        self._pending.sort(key=lambda iv: iv.low)  # stable: ties keep seal order
        tree = IntervalTree(self._pending)
        self._pending = []
        return tree


def build_tree(accesses: Iterable[Access]) -> IntervalTree:
    """One-shot convenience: build a summarised tree from accesses."""
    b = TreeBuilder()
    for a in accesses:
        b.add_access(a)
    return b.finish()
