"""Spans recorded around the program's public functions, from outside it.

A seam is a public function or method of the program, named by its module
and attribute path ("miniseq.distrib", "Replica.apply"). Installing a wrapper
on a module-level function rebinds every ``miniseq.*`` module attribute that
holds that function, so call sites that imported it by name are covered too.
Methods are wrapped on the class that defines them. ``patched`` restores the
original objects on exit, whatever happens inside.

Each span keeps its name, rank, step, wall start/end, thread CPU time
(``time.thread_time``) and its parent from a per-thread stack, so waiting on
the GIL or in a receive separates from busy time, and a span's self time is
its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager

PACKAGE = "miniseq"


class MissingSeam(RuntimeError):
    """A function or method the benchmark times no longer exists."""

    def __init__(self, names):
        self.names = list(names)
        super().__init__("missing seam(s): " + ", ".join(self.names))


def seam_name(module: str, attr: str) -> str:
    return f"{module.removeprefix(PACKAGE + '.')}.{attr}"


def resolve(module: str, attr: str):
    """(owner, key, original) bindings to patch for one seam; [] if it is gone."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return []
    owner_name, _, key = attr.rpartition(".")
    if owner_name:
        owner = getattr(mod, owner_name, None)
        raw = vars(owner).get(key) if isinstance(owner, type) else None
        if not inspect.isfunction(raw):
            return []
        return [(owner, key, raw)]
    original = vars(mod).get(key)
    if not inspect.isfunction(original):
        return []
    return [(m, name, original)
            for m in list(sys.modules.values())
            if getattr(m, "__name__", "").split(".")[0] == PACKAGE
            for name, value in list(vars(m).items()) if value is original]


@contextmanager
def patched(wrappers: dict):
    """Install ``{(module, attr): make_wrapper(original)}``; restore on exit.

    Every seam is resolved before any is touched, so a missing one raises
    MissingSeam naming all of them and leaves the program unwrapped.
    """
    bindings = {seam: resolve(*seam) for seam in wrappers}
    missing = [seam_name(*seam) for seam, found in bindings.items() if not found]
    if missing:
        raise MissingSeam(missing)
    installed = []
    try:
        for seam, found in bindings.items():
            wrapper = wrappers[seam](found[0][2])
            for owner, key, original in found:
                setattr(owner, key, wrapper)
                installed.append((owner, key, original))
        yield
    finally:
        for owner, key, original in reversed(installed):
            setattr(owner, key, original)


class Span:
    __slots__ = ("id", "name", "rank", "step", "parent", "start", "end", "cpu", "count",
                 "child_time")

    def __init__(self, id_, name, rank, step, parent):
        self.id = id_
        self.name = name
        self.rank = rank
        self.step = step
        self.parent = parent
        self.start = self.end = self.cpu = 0.0
        self.count = None
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Recorder:
    """Collects spans in memory; one instance per traced trial."""

    def __init__(self):
        self.spans: list[Span] = []
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, context=None, count=None):
        """Wrapper factory for ``patched``.

        ``context(bound_args) -> (rank, step)`` marks a span that starts a
        step on its thread; other spans inherit rank and step from their
        parent. ``count(bound_args, result)`` attaches a count to the span.
        """
        recorder = self

        def factory(fn):
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack = recorder._stack()
                parent = stack[-1] if stack else None
                bound = None
                if context is not None or count is not None:
                    bound = signature.bind(*args, **kwargs).arguments
                if context is not None:
                    rank, step = context(bound)
                elif parent is not None:
                    rank, step = parent.rank, parent.step
                else:
                    rank, step = 0, None
                span = Span(next(recorder._ids), name, rank, step, parent)
                stack.append(span)
                cpu0 = time.thread_time()
                span.start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    span.cpu = time.thread_time() - cpu0
                    stack.pop()
                    if parent is not None:
                        parent.child_time += span.duration
                    recorder.spans.append(span)
                if count is not None:
                    span.count = count(bound, result)
                return result

            return wrapper

        return factory

    def write_chrome_trace(self, path: str) -> None:
        """Chrome trace-event JSON: one complete event per span, tid = rank."""
        events = []
        for s in self.spans:
            args = {"step": s.step, "self_ms": s.self_time * 1e3, "cpu_ms": s.cpu * 1e3,
                    "parent": s.parent.id if s.parent else None, "id": s.id}
            if s.count is not None:
                args["count"] = s.count
            events.append({"name": s.name, "ph": "X", "pid": 0, "tid": s.rank,
                           "ts": (s.start - self.origin) * 1e6, "dur": s.duration * 1e6,
                           "args": args})
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def self_times(spans) -> dict[str, float]:
    """Total self time (seconds) per span name."""
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.self_time
    return out
