"""In-memory spans and counters around calls into flatpart's modules.

A span is recorded by rebinding a public function in the module that
calls it, so flatpart itself is untouched and a rep run without tracing
pays nothing.  Each module is one layer; its self time is the time its
spans cover minus the time covered by their child spans.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


def partition_numbers(order: int) -> list:
    """p(0..order) by the standard coin-change recurrence."""
    p = [1] + [0] * order
    for part in range(1, order + 1):
        for n in range(part, order + 1):
            p[n] += p[n - part]
    return p


class Tracer:
    """Spans (id, parent, name, start_ns, end_ns, arg) of one rep, plus
    counters filled from returned values."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, arg=None, on_return=None):
        """fn with a span around every call; arg(args) names the call
        (the DP order, say) and on_return(args, result) feeds counters."""
        def traced(*args, **kwargs):
            record = [len(self.spans), self._stack[-1] if self._stack else None,
                      name, time.perf_counter_ns(), None,
                      arg(args, kwargs) if arg else None]
            self.spans.append(record)
            self._stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter_ns()
                self._stack.pop()
            self.counters[name + ".calls"] += 1
            if on_return:
                on_return(args, kwargs, result)
            return result
        return traced

    def rebind(self, module, attr, name, **hooks):
        """Replace module.attr by its traced form until restore()."""
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, **hooks))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self, key=lambda name, arg: name,
                   duration=lambda start_ns, end_ns: (end_ns - start_ns) / 1e9) -> dict:
        """Seconds of self time summed per key(name, arg); duration()
        turns a span's start and end into the seconds it counts for."""
        child = defaultdict(float)
        for _sid, parent, _name, start, end, _arg in self.spans:
            if parent is not None:
                child[parent] += duration(start, end)
        out = defaultdict(float)
        for sid, _parent, name, start, end, arg in self.spans:
            out[key(name, arg)] += duration(start, end) - child[sid]
        return out

    def export(self) -> list:
        return [{"run": self.run_id, "id": sid, "parent": parent,
                 "name": name, "start_ns": start, "end_ns": end, "arg": arg}
                for sid, parent, name, start, end, arg in self.spans]
