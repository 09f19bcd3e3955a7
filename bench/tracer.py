"""In-memory spans around calls into dinsat's modules, recorded from outside.

A ``Tracer`` replaces a function at the module attribute its caller looks it
up by (callers import by name, so ``dinsat.cli.correct_batch`` and
``dinsat.correction.correct_batch`` are different lookups) with a wrapper
that records a span: name, start, end, parent span, run id and process id.
Spans stay in memory and are written out once, at the end of the process.

Ensemble members run in forked worker processes, which inherit the installed
wrappers. A worker flushes the spans it recorded at the end of each
``dinsat.training.train`` call, to a file of its own in the flush directory.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

# A span's ``attrs`` are filled by an optional hook: attrs(args, kwargs, result).
AttrHook = Callable[[tuple, dict, object], dict]


@dataclass(slots=True)
class Span:
    id: str
    name: str
    start: float
    end: float
    parent: Optional[str]
    run: str
    pid: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """Wrap ``module.attr`` in a span called ``span``."""

    module: str
    attr: str
    span: str
    attrs: Optional[AttrHook] = None
    # Set on the call a worker process makes, so its spans reach the trace.
    flush_in_worker: bool = False


class Tracer:
    def __init__(self, run_id: str, flush_dir: Optional[Path] = None):
        self.run_id = run_id
        self.flush_dir = flush_dir
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[str] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._flushes = itertools.count()

    # -- recording -----------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, hook: Optional[AttrHook] = None):
        """Run fn(*args, **kwargs) inside a span; a call that raises is kept too."""
        pid = os.getpid()
        span_id = f"{pid}-{next(self._ids)}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run_id, pid,
                                   {"error": type(e).__name__}))
            raise
        end = time.perf_counter()
        self._stack.pop()
        attrs = hook(args, kwargs, result) if hook is not None else {}
        self.spans.append(Span(span_id, name, start, end, parent, self.run_id, pid, attrs))
        return result

    def _wrapper(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return tracer.call(target.span, fn, args, kwargs, target.attrs)
            finally:
                if target.flush_in_worker and os.getpid() != tracer._pid:
                    tracer.flush_worker()

        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            fn = getattr(module, target.attr, None)
            if not callable(fn):
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            setattr(module, target.attr, self._wrapper(target, fn))
            self._patched.append((module, target.attr, fn))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, most recent first."""
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    # -- output --------------------------------------------------------------

    def flush(self, path: Path) -> None:
        """Write this process's spans as JSON lines and drop them from memory.

        Spans a forked worker inherited from its parent are dropped without
        being written; the parent writes those itself. The write is itself
        recorded, as a last span named ``trace.flush``, so the time tracing
        adds to a command is accounted for.
        """
        start = time.perf_counter()
        pid = os.getpid()
        with open(path, "w") as f:
            for s in self.spans:
                if s.pid == pid:
                    f.write(json.dumps(_row(s)) + "\n")
            parent = self._stack[-1] if self._stack else None
            flush = Span(f"{pid}-{next(self._ids)}", "trace.flush", start, 0.0, parent, self.run_id, pid)
            flush.end = time.perf_counter()
            f.write(json.dumps(_row(flush)) + "\n")
        self.spans = []

    def flush_worker(self) -> None:
        if self.flush_dir is not None:
            self.flush(self.flush_dir / f"spans-{os.getpid()}-{next(self._flushes)}.jsonl")


def _row(s: Span) -> list:
    return [s.id, s.name, s.start, s.end, s.parent, s.run, s.pid, s.attrs]


def read_spans(paths) -> list[Span]:
    spans = []
    for path in paths:
        with open(path) as f:
            spans.extend(Span(*json.loads(line)) for line in f if line.strip())
    return spans


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id -> duration minus the time its child spans cover.

    Children of one span may overlap (ensemble members run in parallel
    processes), so the covered time is the union of their intervals.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - _covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


@dataclass
class NameSummary:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(spans: list[Span]) -> dict[str, NameSummary]:
    """Per span name: calls, summed duration and summed self time."""
    own = self_times(spans)
    out: dict[str, NameSummary] = {}
    for s in spans:
        entry = out.setdefault(s.name, NameSummary())
        entry.calls += 1
        entry.total_s += s.duration
        entry.self_s += own[s.id]
    return out
