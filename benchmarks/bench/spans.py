"""The benchmark's own span recorder.

Spans are recorded from outside the program, around calls into each
layer's public functions: name, start, end, the span that caused it, and
the workload.  They stay in memory until the run ends and are then
dumped as Chrome trace-event JSON.  A layer's self time is its span's
duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager


class SpanRecorder:
    """In-memory spans with per-thread parent stacks."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, **args):
        stack = getattr(self._local, "open_ids", None)
        if stack is None:
            stack = self._local.open_ids = []
        record = {
            "name": name,
            "parent": stack[-1] if stack else None,
            "workload": self.workload,
            "tid": threading.get_ident(),
            "args": args,
            "start": time.perf_counter(),
            "end": None,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapped

    # -- aggregation ---------------------------------------------------------

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def self_total(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their direct children."""
        ids = {s["id"] for s in self.named(name)}
        children = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] in ids
        )
        return self.total(name) - children

    # -- export --------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (complete "X" events, microseconds)."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        tids = {}
        events = []
        for s in self.spans:
            events.append(
                {
                    "name": s["name"],
                    "ph": "X",
                    "ts": (s["start"] - origin) * 1e6,
                    "dur": (s["end"] - s["start"]) * 1e6,
                    "pid": 1,
                    "tid": tids.setdefault(s["tid"], len(tids) + 1),
                    "args": {
                        "id": s["id"],
                        "parent": s["parent"],
                        "workload": s["workload"],
                        **s["args"],
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}
