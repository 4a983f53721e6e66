"""Spans around the public calls into each layer, recorded from outside.

The program itself carries no tracing for the benchmark: a driver
patches the public functions and methods it wants timed with
:meth:`Tracer.wrap` and undoes the patches with :meth:`Tracer.restore`.
Spans nest per thread, so a layer's *self* time excludes the time of
the traced layers it called.  Spans are aggregated as they close
(per phase and name: self seconds, calls, optional raw durations), so a
long run keeps constant memory.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class Tracer:
    """Aggregates nested spans into per-phase, per-name self times."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: Spans are recorded only while a phase is set.
        self.phase: str | None = None
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.durations: dict = defaultdict(list)
        self.counters: dict = defaultdict(float)
        self.spans = 0
        self._keep = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> None:
        self._stack().append([name, self.phase, self.clock(), 0.0])

    def end(self) -> None:
        name, phase, start, children = self._stack().pop()
        duration = self.clock() - start
        stack = self._stack()
        if stack:
            stack[-1][3] += duration
        key = (phase, name)
        with self._lock:
            self.self_s[key] += duration - children
            self.total_s[key] += duration
            self.calls[key] += 1
            self.spans += 1
            if name in self._keep:
                self.durations[key].append(duration)

    def count(self, name: str, amount: float) -> None:
        """Add ``amount`` to a per-phase counter (bytes, items)."""
        if self.phase is None:
            return
        with self._lock:
            self.counters[(self.phase, name)] += amount

    def keep_durations(self, name: str) -> None:
        """Also keep every duration of spans called ``name`` (percentiles)."""
        self._keep.add(name)

    # -- patching ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, iterate: bool = False,
             after=None) -> None:
        """Replace ``owner.attr`` with a version that records a span.

        ``owner`` is a class, a module or a single instance.

        ``iterate`` times each step of the iterator the call returns
        (a generator's work happens there, not in the call).  ``after``
        receives ``(result, args, kwargs)`` once a span closes, to
        count bytes or items.
        """
        original = getattr(owner, attr)
        # What to put back: the owner's own attribute, or nothing when it
        # is inherited or (for an instance) comes from the class; then
        # the patch is deleted.  Patching one instance leaves every other
        # instance of its class untraced.
        own = vars(owner).get(attr)
        tracer = self

        if iterate:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                iterator = iter(original(*args, **kwargs))
                return tracer._timed_iterator(iterator, name)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if tracer.phase is None:
                    return original(*args, **kwargs)
                tracer.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.end()
                if after is not None:
                    after(result, args, kwargs)
                return result

        self._patched.append((owner, attr, own))
        setattr(owner, attr, wrapper)

    def _timed_iterator(self, iterator, name: str):
        try:
            while True:
                if self.phase is None:
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                else:
                    self.begin(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        self.end()
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patched:
            owner, attr, own = self._patched.pop()
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- reporting -----------------------------------------------------
    def calibrate(self, calls: int = 20000) -> float:
        """Seconds one span adds to a call, measured on a no-op."""

        class _Probe:
            def noop(self):
                return None

        probe = _Probe()
        plain = probe.noop
        started = self.clock()
        for __ in range(calls):
            plain()
        bare = self.clock() - started
        scratch = Tracer(self.clock)
        scratch.wrap(_Probe, "noop", "probe")
        scratch.phase = "calibrate"
        wrapped = probe.noop
        started = self.clock()
        for __ in range(calls):
            wrapped()
        traced = self.clock() - started
        scratch.restore()
        return max(traced - bare, 0.0) / calls

    def summary(self) -> dict:
        """JSON-ready aggregates keyed ``phase -> name -> fields``."""
        out: dict = {}
        for (phase, name), self_s in self.self_s.items():
            entry = out.setdefault(phase, {}).setdefault(name, {})
            entry["self_s"] = self_s
            entry["total_s"] = self.total_s[(phase, name)]
            entry["calls"] = self.calls[(phase, name)]
            if (phase, name) in self.durations:
                entry["durations_s"] = self.durations[(phase, name)]
        for (phase, name), amount in self.counters.items():
            out.setdefault(phase, {}).setdefault(name, {})["count"] = amount
        return {"phases": out, "spans": self.spans}
