"""Layer tracing from outside the solver.

Boundaries are wrapped where their names are looked up (a module global,
a class attribute, or a field of one problem instance), so the solver code
itself is untouched.  Hot leaves keep aggregated counters only
(calls, inclusive time, self time, optional extra counts); coarse
boundaries also keep full spans (name, start, end, parent), so memory stays
bounded on sweeps with millions of handle calls.  A boundary whose name no
longer exists is recorded as absent instead of failing the run.
"""
from __future__ import annotations

import contextlib
import time


class Stat:
    __slots__ = ("calls", "total", "self_time", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.extra = {}

    def copy(self) -> "Stat":
        out = Stat()
        out.calls, out.total, out.self_time = self.calls, self.total, self.self_time
        out.extra = dict(self.extra)
        return out


class NullTracer:
    """Untraced runs: the same call sites, no bookkeeping."""

    @contextlib.contextmanager
    def span(self, name):
        yield


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list = []           # (name, start, end, parent name)
        self.absent: set = set()
        self._stack: list = []          # [name, child time] per open frame
        self._patched: list = []        # (owner, attr, original, was own attr)

    def _stat(self, name) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _close(self, name, frame, t0, t1, keep_span):
        elapsed = t1 - t0
        st = self._stat(name)
        st.calls += 1
        st.total += elapsed
        st.self_time += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed
        if keep_span:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((name, t0, t1, parent))
        return st

    @contextlib.contextmanager
    def span(self, name):
        """Coarse span opened by the benchmark around a call into a layer."""
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._close(name, frame, t0, t1, True)

    def wrap(self, fn, name, keep_span=False, count=None):
        """Timed wrapper; count(args, result) -> {key: n} adds extra counts."""
        stack = self._stack
        clock = time.perf_counter
        close = self._close

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                st = close(name, frame, t0, t1, keep_span)
            if count is not None:
                for key, n in count(args, result).items():
                    st.extra[key] = st.extra.get(key, 0) + n
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, keep_span=False, count=None):
        """Replace owner.attr by a traced wrapper; absent names are noted."""
        own = attr in getattr(owner, "__dict__", {})
        original = getattr(owner, attr, None)
        if original is None or not callable(original):
            self.absent.add(name)
            return False
        setattr(owner, attr, self.wrap(original, name, keep_span, count))
        self._patched.append((owner, attr, original, own))
        self._stat(name)
        return True

    def restore(self):
        """Undo every patch, newest first."""
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def snapshot(self) -> dict:
        return {k: v.copy() for k, v in self.stats.items()}


def delta(after: dict, before: dict) -> dict:
    """Per-boundary difference of two snapshots."""
    out = {}
    for name, st in after.items():
        b = before.get(name)
        d = st.copy()
        if b is not None:
            d.calls -= b.calls
            d.total -= b.total
            d.self_time -= b.self_time
            d.extra = {k: v - b.extra.get(k, 0) for k, v in st.extra.items()}
        out[name] = d
    return out
