"""Span tracer that instruments corrkit from outside.

A `Tracer` replaces functions and methods with timing wrappers for the
length of one traced run and restores the originals afterwards; nothing
under `src/` changes.  A module-level function is rebound in every
loaded `corrkit` module that holds the same object, under whatever name
it was imported (``from .exactlinalg import solve`` and
``atoms as atom_set`` both count), so a call is timed whichever module
makes it.  Methods are replaced on their class.

Each thread keeps its own span stack, so worker threads of a pool
attribute time to their own spans.  Spans are aggregated in memory per
(caller span, span) edge as they close -- call count, inclusive time,
self time, and an optional measured size -- and read out once the run
ends.  Self time is a span's duration minus the durations of the spans
it directly caused, so time spent in unwrapped helpers stays with the
innermost wrapped caller.

A callable that costs about as much as a timing wrapper is counted
instead of timed: its calls are exact, it opens no span, and its time
stays with the span that called it.
"""
from __future__ import annotations

import itertools
import threading
from time import perf_counter, thread_time

# Slots of one aggregated edge record.
CALLS, TOTAL, SELF, SIZE, SIZE_MAX, CPU = range(6)
# Caller name of counted callables in `Tracer.edges`.
COUNTED_CALLER = "<counted>"
# Passed as the size of a callable to `Tracer.install`: count it, do not time it.
COUNT_ONLY = object()


class _ThreadState:
    __slots__ = ("main", "stack", "edges")

    def __init__(self):
        self.main = threading.current_thread() is threading.main_thread()
        # The root frame stands for "no span open" and is never popped.
        self.stack: list = [[None, 0.0]]
        self.edges: dict = {}


class Tracer:
    """Records spans around wrapped callables.

    `wrap(name, fn, size=None, cpu=False)` returns a timing wrapper.
    `size(args, kwargs, result)` returns a work size that is summed and
    maximised per edge; `cpu=True` also records the thread's CPU time
    inside the span.  `count(name, fn)` returns a counting wrapper.
    `install(...)` patches corrkit and `uninstall()` restores it.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._counters: dict[str, itertools.count] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        st = _ThreadState()
        self._local.st = st
        with self._lock:
            self._states.append(st)
        return st

    def wrap(self, name: str, fn, size=None, cpu: bool = False):
        local = self._local
        new_state = self._state

        def traced(*args, **kwargs):
            try:
                st = local.st
            except AttributeError:
                st = new_state()
            stack = st.stack
            frame = [name, 0.0]
            stack.append(frame)
            if cpu:
                c0 = thread_time()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += d
                key = (parent[0], name)
                rec = st.edges.get(key)
                if rec is None:
                    rec = st.edges[key] = [0, 0.0, 0.0, 0, 0, 0.0]
                rec[CALLS] += 1
                rec[TOTAL] += d
                rec[SELF] += d - frame[1]
                if cpu:
                    rec[CPU] += thread_time() - c0
            if size is not None:
                n = size(args, kwargs, result)
                rec[SIZE] += n
                if n > rec[SIZE_MAX]:
                    rec[SIZE_MAX] = n
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count(self, name: str, fn):
        # next() on an itertools.count is one C call, so no increment is
        # lost between threads.
        tick = self._counters.setdefault(name, itertools.count()).__next__

        def counted(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        counted.__name__ = getattr(fn, "__name__", name)
        return counted

    def _wrapper(self, name, fn, size, cpu):
        """A timing wrapper, or a counting one when `size` is COUNT_ONLY."""
        if size is COUNT_ONLY:
            return self.count(name, fn)
        return self.wrap(name, fn, size, cpu)

    def install(self, functions, methods, modules) -> None:
        """Patch corrkit.

        `functions` is a list of (span name, function, size, cpu);
        every module in `modules` that binds one of these function
        objects, under any attribute name, gets the wrapper.  `methods`
        is a list of (span name, class, attribute, size, cpu).  A size
        of `COUNT_ONLY` asks for a counting wrapper.
        """
        if self._undo:
            raise RuntimeError("tracer already installed")
        by_id = {id(fn): self._wrapper(name, fn, size, cpu)
                 for name, fn, size, cpu in functions}
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                wrapper = by_id.get(id(val))
                if wrapper is not None:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
        for name, cls, attr, size, cpu in methods:
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._wrapper(name, orig, size, cpu))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def edges(self) -> dict:
        """Merged (caller, span) -> record over every thread, with the
        root spans of non-main threads under the caller name
        ``"<worker>"`` and the counted callables under `COUNTED_CALLER`."""
        out: dict = {}
        for name, counter in self._counters.items():
            # repr(count) is "count(n)": the calls so far, read without
            # advancing the counter.
            out[(COUNTED_CALLER, name)] = [int(repr(counter)[6:-1]), 0.0, 0.0, 0, 0, 0.0]
        with self._lock:
            states = list(self._states)
        for st in states:
            for (parent, name), rec in st.edges.items():
                if parent is None and not st.main:
                    parent = "<worker>"
                got = out.get((parent, name))
                if got is None:
                    out[(parent, name)] = list(rec)
                else:
                    for i in (CALLS, TOTAL, SELF, SIZE, CPU):
                        got[i] += rec[i]
                    got[SIZE_MAX] = max(got[SIZE_MAX], rec[SIZE_MAX])
        return out
