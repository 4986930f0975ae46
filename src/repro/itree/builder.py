"""Summarising interval-tree builder.

Streams access events (decoded trace records) into an
:class:`~repro.itree.tree.IntervalTree`, coalescing loop access patterns into
strided intervals exactly as the paper describes: "the interval tree approach
allows us to summarize the information about consecutive memory accesses
(e.g., array accesses) in one node".

Per access *site* — ``(size, op, atomicity, pc, mutex set, point)`` — the
builder keeps the most recent open progression.  An access that continues
it (next element, duplicate, or a stride-establishing second element) is
absorbed; anything else seals the old node and opens a fresh one.
:meth:`TreeBuilder.add_records` does this for a whole EVENT_DTYPE chunk
with NumPy (:func:`_segment`); :meth:`TreeBuilder.add_access`, one event at
a time through :class:`~repro.itree.interval.StridedInterval`, is the
reference it is tested against.  Sealed nodes accumulate as node tables in
seal order, and :meth:`TreeBuilder.finish` adds the open progressions.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..common.errors import TraceFormatError
from ..common.events import (
    EVENT_DTYPE,
    FLAG_ATOMIC,
    FLAG_WRITE,
    KIND_ACCESS,
    Access,
    accesses_to_records,
)
from .interval import StridedInterval, interval_from_access
from .tree import IntervalTree, table_of


def _segment(first, low, count, stride, last):
    """Where the nodes of grouped progressions start.

    Rows are progressions, site group after site group, each in stream
    order (``first`` marks a group's first row; a duplicate scalar row
    must have been dropped): ``low`` and ``last`` are a row's first and
    final elements, a scalar row has ``count`` 1, a bulk row a positive
    ``stride``.  Returns ``(start, gap)``: whether row ``i`` opens a node,
    and its distance from the previous row's final element.

    A node ending in a bulk row has that row's stride: the next row joins
    exactly when it begins one stride on (a bulk row also sharing the
    stride).  After a scalar row, a row that can join nothing starts a
    node, one repeating the scalar's gap joins, and any other joins
    exactly when the scalar started a node (a lone scalar takes any
    forward gap as its stride).  So each row is "start", "join" or "the
    opposite of the row before", resolved with a running max and a sum.
    """
    gap = np.zeros(len(low), np.int64)
    if len(low) == 1:
        return first, gap
    np.subtract(low[1:], last[:-1], out=gap[1:])
    g = gap[1:]
    joins = (g > 0) & ((count[1:] == 1) | (stride[1:] == g))
    joins &= ~first[1:]
    after_bulk = count[:-1] > 1
    fixed = first.copy()
    fixed[1:] |= after_bulk | ~joins | (g == gap[:-1])
    start = first.copy()
    start[1:] |= ~joins | (after_bulk & (g != stride[:-1]))
    if fixed.all():
        return start, gap
    # A group's first row is fixed, so a row's last fixed row is in its
    # own group.
    anchor = np.where(fixed, np.arange(len(low)), 0)
    np.maximum.accumulate(anchor, out=anchor)
    flips = (~fixed).cumsum()
    return start[anchor] ^ ((flips - flips[anchor]) & 1).astype(bool), gap


class TreeBuilder:
    """Coalesce an access stream into a summarised interval tree."""

    def __init__(self) -> None:
        # The open progression of each site, in site first-seen order.
        self._open: dict[tuple, StridedInterval] = {}
        # Sealed nodes as node tables (see ``table_of``), in seal order:
        # the order ties keep.
        self._sealed: list[np.ndarray] = []
        self.events_in = 0

    def add_access(self, access: Access) -> None:
        """Absorb one access event (the reference for :meth:`add_records`)."""
        self.events_in += 1
        a = access.normalized()
        key = (a.size, a.is_write, a.is_atomic, a.pc, a.msid, a.task_point)
        cur = self._open.get(key)
        if cur is not None:
            if a.count == 1:
                if cur.try_extend(a.addr):
                    return
            elif cur.try_append_bulk(a.addr, a.count, a.stride):
                return
            self._sealed.append(table_of([cur]))
        self._open[key] = interval_from_access(a)

    def add_records(self, records: np.ndarray) -> None:
        """Absorb a batch of EVENT_DTYPE records (non-access kinds skipped).

        This is the streaming entry point used by the offline analysis: one
        decoded chunk at a time.  The open progressions and the seal
        sequence come out as if every record went through
        :meth:`add_access`.  A record no access can have (count or size
        0, a bulk record without a stride) raises
        :class:`~repro.common.errors.TraceFormatError`.
        """
        if records.dtype != EVENT_DTYPE:
            raise ValueError("records must use EVENT_DTYPE")
        access = records["kind"] == KIND_ACCESS
        acc = records if access.all() else records[access]
        n = len(acc)
        if n == 0:
            return
        count = acc["count"].astype(np.int64)
        stride = acc["stride"].astype(np.int64)
        # The site key, in add_access's order: the node table's rows 2 and
        # 4..8 (size, write, atomic, pc, msid, point).
        flags = acc["flags"]
        site = np.stack((
            acc["size"], (flags & FLAG_WRITE) != 0, (flags & FLAG_ATOMIC) != 0,
            acc["pc"], acc["msid"], acc["aux"],
        ), dtype=np.int64, casting="unsafe")
        bad = (count < 1) | (site[0] < 1) | ((count > 1) & (stride == 0))
        if bad.any():  # no access looks like this: a corrupt or made-up log
            i = int(bad.argmax())
            raise TraceFormatError(
                f"malformed access record: count {count[i]}, size "
                f"{site[0, i]}, stride {stride[i]}"
            )
        self.events_in += n
        # A descending progression starts at its lowest element; a scalar
        # record's stride means nothing.
        addr = acc["addr"].astype(np.int64)
        bulk = count > 1
        descending = bulk & (stride < 0)
        if descending.any():
            addr[descending] += (count[descending] - 1) * stride[descending]
        stride[~bulk] = 0
        np.abs(stride, out=stride)
        if n == 1 and (key := tuple(site[:, 0].tolist())) not in self._open:
            # The common one-record chunk of a new site just opens a node.
            self._open[key] = StridedInterval(
                int(addr[0]), int(stride[0]) or key[0], key[0], int(count[0]),
                bool(key[1]), bool(key[2]), *key[3:],
            )
            return

        # Records grouped by site: groups in first-appearance order (the
        # order new sites enter ``_open``), records in stream order.
        new = np.empty(n, bool)
        new[0] = True
        if n == 1:
            order = np.zeros(1, np.int64)
        else:
            order = np.lexsort(site)
            ordered = site[:, order]
            (ordered[:, 1:] != ordered[:, :-1]).any(axis=0, out=new[1:])
        heads = new.nonzero()[0]
        if len(heads) > 1:
            opener = order[heads].repeat(np.diff(heads, append=n))
            regroup = opener.argsort(kind="stable")
            order, opener = order[regroup], opener[regroup]
            np.not_equal(opener[1:], opener[:-1], out=new[1:])
            heads = new.nonzero()[0]
        sites = site[:, order[heads]]
        keys = list(map(tuple, sites.T.tolist()))

        # Rows: record index, first element, count, stride, group.  A
        # site's open progression joins as a row ahead of its records
        # (record index -1).
        rows = np.stack(
            (order, addr[order], count[order], stride[order], new.cumsum() - 1)
        )
        held = [g for g, key in enumerate(keys) if key in self._open]
        if held:
            c = table_of([self._open[keys[g]] for g in held])
            carried = np.stack((np.full(len(held), -1), c[0], c[3],
                                np.where(c[3] > 1, c[1], 0), held))
            rows = np.insert(rows, heads[held], carried, axis=1)
        m = rows.shape[1]
        rec, low, cnt, strd, group = rows
        first = np.empty(m, bool)
        first[0] = True
        np.not_equal(group[1:], group[:-1], out=first[1:])
        last = strd * (cnt - 1)
        last += low
        # A scalar row repeating the element before it changes nothing.
        repeats = low[1:] == last[:-1]
        repeats &= cnt[1:] == 1
        repeats &= ~first[1:]
        if m > 1 and repeats.any():
            keep = np.concatenate(([True], ~repeats))
            rows, first, last = rows[:, keep], first[keep], last[keep]
            m = rows.shape[1]
            rec, low, cnt, strd, group = rows
        start, gap = _segment(first, low, cnt, strd, last)

        # Node k is rows node[k] .. node[k + 1] - 1.  Its stride is its
        # first row's, else the gap its second row joined at; a lone
        # scalar's is its size.
        node = start.nonzero()[0]
        k = len(node)
        of = group[node]
        table = np.empty((9, k), np.int64)
        table[0] = low[node]
        table[2] = sites[0, of]
        table[3] = np.add.reduceat(cnt, node)
        table[4:] = sites[1:, of]
        nxt = node + 1
        joined = np.empty(k, bool)
        joined[-1] = nxt[-1] < m
        np.less(nxt[:-1], node[1:], out=joined[:-1])
        nxt[-1] = min(nxt[-1], m - 1)
        table[1] = np.where(joined, gap[nxt], table[2])
        bulk_head = cnt[node] > 1
        table[1, bulk_head] = strd[node[bulk_head]]
        # A group's last node stays open; each other node is sealed by the
        # record that starts its successor.
        is_open = np.empty(k, bool)
        is_open[-1] = True
        np.not_equal(of[1:], of[:-1], out=is_open[:-1])
        if not is_open.all():
            sealed = (~is_open).nonzero()[0]
            sealed = sealed[rec[node[sealed + 1]].argsort()]
            self._sealed.append(table[:, sealed])
        for key, fields in zip(keys, table[:, is_open].T.tolist()):
            fields[4:6] = map(bool, fields[4:6])
            self._open[key] = StridedInterval(*fields)

    def finish(self) -> IntervalTree:
        """Seal all open progressions and return the summary."""
        chunks = [*self._sealed, table_of(list(self._open.values()))]
        self._sealed = []
        self._open.clear()
        return IntervalTree.from_seal_order(np.concatenate(chunks, axis=1))


def build_tree(accesses: Iterable[Access]) -> IntervalTree:
    """One-shot convenience: build a summarised tree from accesses."""
    b = TreeBuilder()
    b.add_records(accesses_to_records(accesses))
    return b.finish()
