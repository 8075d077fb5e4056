"""In-memory span recorder for the traced run.

A span is ``(name, start_ns, end_ns, parent, record)``: ``parent`` is the
index of the enclosing span (-1 for a root) and ``record`` the trace step
being processed when the span opened.  Spans stay in memory until
:meth:`Tracer.dump`.  Layers are traced from the outside by replacing
module or class attributes that fairmon looks up at call time; nothing in
the package itself is instrumented.

A wrapper's own bookkeeping falls outside its span and so into the self
time of the enclosing span.  :meth:`Tracer.measure_overhead` measures it
on no-ops and :meth:`Tracer.layer_times` takes it back out.
"""

import gzip
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.record = 0
        self.overhead_ns = {"call": 0.0, "iterate": 0.0}
        self._kind = {}
        self._stack = []
        self._patches = []

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, name, start, parent, record):
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, record)

    @contextmanager
    def span(self, name):
        idx, parent = self._open()
        record = self.record
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, name, start, parent, record)

    def traced(self, name, fn):
        """``fn`` wrapped so that every call records a span."""
        self._kind[name] = "call"

        def wrapper(*args, **kwargs):
            idx, parent = self._open()
            record = self.record
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, name, start, parent, record)
        return wrapper

    def counted(self, name, fn):
        """``fn`` wrapped so that every call bumps ``counts[name]``."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def iterate(self, name, iterable, set_record=False):
        """Yield from ``iterable``, one span per ``next``.  With
        ``set_record`` each item's ``t`` becomes the current record id."""
        self._kind[name] = "iterate"
        it = iter(iterable)
        while True:
            idx, parent = self._open()
            start = time.perf_counter_ns()
            try:
                item = next(it)
            except StopIteration:
                self._close(idx, name, start, parent, self.record)
                return
            self._close(idx, name, start, parent, self.record)
            if set_record:
                self.record = item["t"]
            yield item

    def measure_overhead(self, calls=20000):
        """Set ``overhead_ns``: the ns that one ``traced`` call and one
        ``iterate`` step add outside their own span, from no-ops timed with
        and without the wrapper.  The spans recorded here are dropped."""
        clock = time.perf_counter_ns
        items = [{"t": 0}] * calls
        noop = self.traced("overhead", _noop)
        mark = len(self.spans)
        start = clock()
        for _ in items:
            _noop()
        plain_call = clock() - start
        start = clock()
        for _ in items:
            noop()
        traced_call = clock() - start
        start = clock()
        for _ in iter(items):
            pass
        plain_step = clock() - start
        start = clock()
        for _ in self.iterate("overhead", items):
            pass
        traced_step = clock() - start
        inner = {"call": 0, "iterate": 0}
        for i, (_, begin, end, _, _) in enumerate(self.spans[mark:]):
            inner["call" if i < calls else "iterate"] += end - begin
        del self.spans[mark:]
        self.overhead_ns = {
            "call": max(0.0, (traced_call - inner["call"] - plain_call)
                        / calls),
            "iterate": max(0.0, (traced_step - inner["iterate"]
                                 - plain_step) / calls),
        }

    def layer_times(self, root_name):
        """Per-name (calls, inclusive ns, self ns) over the spans under the
        root span named ``root_name``.  Self time is a span's duration
        minus the durations of its direct children and the wrapper
        overhead each child added to it."""
        spans = self.spans
        child_ns = [0.0] * len(spans)
        root = [-1] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += end - start + self.overhead_ns.get(
                    self._kind.get(name), 0.0)
                root[i] = root[parent]
            elif name == root_name:
                root[i] = i
        out = {}
        for i, (name, start, end, _, _) in enumerate(spans):
            if root[i] < 0:
                continue
            calls, incl, self_ns = out.get(name, (0, 0, 0.0))
            out[name] = (calls + 1, incl + end - start,
                         self_ns + end - start - child_ns[i])
        return out

    def patch(self, owner, attr, wrap, name):
        """Replace ``owner.attr`` by ``wrap(name, original)`` until
        :meth:`unpatch_all`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(name, original))

    def unpatch_all(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, record in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "record": record}) + "\n")



def _noop():
    pass
