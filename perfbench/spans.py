"""In-memory span tracer that times the program from outside.

``Patches`` replaces attributes of vcdc modules and classes with timing
shims and puts the originals back on exit; no program file is edited.  A
span records its name, start, end, parent span and the id of the decode
batch or training iteration it belongs to.  Spans stay in memory until
``write_jsonl`` is called at the end of a run.  A span's self time is its
duration minus the time its direct children cover; everything runs in one
thread, so children never overlap and there is no wait time to record.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Patches:
    """Attribute replacements, undone in reverse order on exit."""

    def __init__(self):
        self._undo = []
        self.missing = []

    def replace(self, owner, attr, make):
        """Set ``owner.attr`` to ``make(original)``; a missing attribute
        is recorded in ``missing`` and left alone."""
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = getattr(owner, attr)
        own = attr in vars(owner)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original, own))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        return False


class Tracer:
    """Spans and counters of one traced pass."""

    enabled = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = defaultdict(int)
        self.op = 0
        self._stack = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def next_op(self):
        self.op += 1

    def timed(self, name, rows=False):
        """Shim factory: each call becomes a span; with ``rows`` the first
        argument's leading dimension is added to the ``<name>.rows`` count."""
        def make(fn):
            def shim(*args, **kwargs):
                if rows:
                    self.counts[name + ".rows"] += args[0].shape[0]
                idx = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)
            return shim
        return make

    def counted(self, name):
        """Shim factory that only counts calls (for cheap, frequent calls)."""
        def make(fn):
            def shim(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
            return shim
        return make

    def summary(self):
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
        return calls, total, self_s

    def write_jsonl(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


class NullTracer:
    """Stand-in for untraced passes: spans cost one method call."""

    enabled = False

    @contextmanager
    def span(self, name):
        yield

    def next_op(self):
        pass
