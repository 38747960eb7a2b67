"""The benchmark's own in-memory span recorder.

One span per call into a layer: name (the layer's module name), start,
end, parent id and operation id.  Spans of one operation share the
operation id.  Nothing is written until :meth:`Recorder.dump` — the
traced pass keeps everything in a list and flushes at exit.  A layer's
*self time* is its span minus the part of it covered by child spans.

Spans live in the benchmark, around the calls into ``repro``; spans
inside ``src/`` are a later change (ROADMAP item 5).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

__all__ = ["Recorder"]


class Recorder:
    """Collects spans; ``enabled=False`` makes :meth:`span` a bare yield."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: [name, start_ns, end_ns, parent_id, op_id] — index is the span id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._next_op = 0

    def new_op(self) -> int:
        self._next_op += 1
        return self._next_op

    @contextmanager
    def span(self, name: str, op: int = 0):
        if not self.enabled:
            yield -1
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0, 0, parent, op]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[1] = time.perf_counter_ns()
        try:
            yield sid
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def add(self, name: str, start_ns: int, end_ns: int, parent: int, op: int = 0) -> int:
        """Record an interval measured elsewhere (e.g. a ``RunStats`` phase
        or a ``ServiceResponse`` latency split) as a child of ``parent``."""
        if not self.enabled:
            return -1
        self.spans.append([name, int(start_ns), int(end_ns), parent, op])
        return len(self.spans) - 1

    def self_times(self) -> dict[str, list[int]]:
        """Layer name -> self time (ns) of each of its spans."""
        child_ns = [0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[int]] = {}
        for sid, (name, start, end, _parent, _op) in enumerate(self.spans):
            out.setdefault(name, []).append(end - start - child_ns[sid])
        return out

    def durations(self) -> dict[str, list[int]]:
        """Layer name -> full duration (ns) of each of its spans."""
        out: dict[str, list[int]] = {}
        for name, start, end, _parent, _op in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def dump(self, path: str) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
