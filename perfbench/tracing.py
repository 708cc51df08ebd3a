"""In-memory spans around calls into modpoly's public layer functions.

A span is (name, start, end, parent, op, size, rss_growth_kb): ``parent`` is
the index of the enclosing span or -1, ``op`` identifies the build or query
the span belongs to, ``size`` is a count taken from the call's result (or
None), and ``rss_growth_kb`` is the growth of ``ru_maxrss`` across the call
(or None).  Spans stay in a list until ``write`` is called at the end.

Calls are traced by swapping the module globals (and the one method) that
name a layer function for wrappers while a traced pass runs.  That catches
the benchmark's own calls and the nested calls the library makes through
those globals (for example ``build_polygon`` -> ``assemble``).
``uninstall`` restores the originals, so untraced passes run the library
untouched.
"""

from __future__ import annotations

import json
import resource
import time


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._op = None
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def set_op(self, op: str | None):
        self._op = op

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, index, parent, name, start, size, rss_before):
        self._stack.pop()
        end = time.perf_counter()
        rss = None if rss_before is None else _maxrss_kb() - rss_before
        self.spans[index] = (name, start, end, parent, self._op, size, rss)

    def _wrap(self, name, fn, size, rss):
        tracer = self

        def traced(*args, **kwargs):
            index, parent = tracer._open(name)
            rss_before = _maxrss_kb() if rss else None
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                n = size(result) if size is not None and result is not None else None
                tracer._close(index, parent, name, start, n, rss_before)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, targets):
        """Swap each (owner, attribute, span name, size, rss) target for a
        traced wrapper.  A target the library no longer has is skipped."""
        for owner, attr, name, size, rss in targets:
            fn = owner.__dict__.get(attr)
            if fn is None:
                continue
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, size, rss))

    def uninstall(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    # -- output ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path: str):
        with open(path, "w") as handle:
            for i, (name, start, end, parent, op, size, rss) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                         "parent": parent, "op": op, "size": size,
                                         "rss_growth_kb": rss}) + "\n")
