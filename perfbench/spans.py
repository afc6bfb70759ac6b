"""In-memory span recording for the traced benchmark run.

A span is ``[name, start, end, parent]``: the parent is the index of the
span that was open when this one started, or -1.  The benchmark wraps
calls into the program's modules from the outside (``Tracer.wrap``), so
nothing inside ``src/`` is modified.  Spans stay in memory until the run
ends; ``self_times`` then charges each span its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.invocations = Counter()  # generator spans: calls != resumes
        self._current = -1
        self._patches = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        parent = self._current
        record = [name, 0.0, 0.0, parent]
        self._current = len(self.spans)
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._current = parent

    def wrap(self, owner, attr, name):
        """Replace ``owner.attr`` (a module function or a method) by a
        wrapper that records one span per call."""
        original = getattr(owner, attr)
        call = self.call

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return call(name, original, *args, **kwargs)

        self._patch(owner, attr, original, traced)

    def wrap_generator(self, owner, attr, name):
        """Like ``wrap`` for a generator function: one span per resume,
        one call per invocation."""
        original = getattr(owner, attr)
        call = self.call
        invocations = self.invocations

        @functools.wraps(original)
        def traced(*args, **kwargs):
            invocations[name] += 1
            it = original(*args, **kwargs)
            sentinel = object()
            while True:
                item = call(name, next, it, sentinel)
                if item is sentinel:
                    return
                yield item

        self._patch(owner, attr, original, traced)

    def replace(self, owner, attr, replacement):
        """Install a hand-written wrapper; restored by ``restore``."""
        self._patch(owner, attr, getattr(owner, attr), replacement)

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every span, one per line: index, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def self_times(spans):
    """Per span: its duration minus the durations of its direct children.

    Spans nest strictly (one thread), so the children of a span cover
    disjoint parts of its interval."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans, invocations=None):
    """``{name: (self seconds, calls)}``.  Calls count spans, except for
    the generator names in ``invocations``, whose count is given there."""
    invocations = invocations or {}
    totals = {}
    counts = Counter()
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name] = totals.get(name, 0.0) + own
        counts[name] += 1
    return {name: (totals[name], invocations.get(name, counts[name])) for name in totals}
