"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions and methods the benchmark reaches
(``apply_power_management``, the registered scheduler, ``create_engine``,
engine ``run_*`` methods, ``CDFG.topological_order``, ...) for the
duration of a traced pass, and restores the originals afterwards.  The
program itself is not modified: every span is recorded from these
wrappers, on the benchmark's own thread only, so server threads and
worker processes are never traced.

A span is ``[id, name, start_ns, end_ns, parent_id, op_id, attrs]``.
Self time is a span's duration minus the durations of its direct
children (children nest strictly, since one thread records them).
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from collections import defaultdict

ID, NAME, START, END, PARENT, OP, ATTRS = range(7)


class Tracer:
    """Records nested spans on one thread while ``enabled``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self.op_id: int | None = None
        self._stack: list[list] = []
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _active(self, name: str) -> bool:
        """True when a call should open a span: tracing on, on the
        benchmark thread, and not re-entering a span of the same name
        (``run_many`` -> ``run_batch`` -> ``run_array`` is one run)."""
        return (self.enabled and threading.get_ident() == self._thread
                and not (self._stack and self._stack[-1][NAME] == name))

    def _open(self, name: str) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        span = [len(self.spans), name, time.perf_counter_ns(), 0, parent,
                self.op_id, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside (the benchmark's own untimed work)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def span(self, name: str, attrs: dict | None = None):
        """Context manager recording one span (no-op when disabled)."""
        return _SpanContext(self, name, attrs)

    def wrap(self, fn, name: str, attrs=None):
        """``fn`` recording a ``name`` span per call; ``attrs(args,
        kwargs, result)`` may attach a dict of counts to the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._active(name):
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        return traced

    def record(self, name: str, start_ns: int, end_ns: int,
               attrs: dict | None = None, parent: int | None = None) -> int:
        """Record an already-timed span (a phase seen from outside, such
        as a served job's queue wait) under ``parent`` or the current
        span; returns its id."""
        if parent is None and self._stack:
            parent = self._stack[-1][ID]
        self.spans.append([len(self.spans), name, start_ns, end_ns, parent,
                           self.op_id, attrs])
        return len(self.spans) - 1

    # -- patching ---------------------------------------------------------

    def patch_attr(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, module, attr: str, replacement) -> None:
        """Replace ``module.attr`` and every binding of the same object in
        other ``repro`` modules (``from x import f`` copies)."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.patch_attr(mod, key, replacement)

    def patch_function(self, module, attr: str, name: str,
                       attrs=None) -> None:
        """Trace ``module.attr`` everywhere it is bound."""
        self.patch_everywhere(module, attr,
                              self.wrap(getattr(module, attr), name, attrs))

    def patch_method(self, cls, attr: str, name: str, attrs=None) -> None:
        self.patch_attr(cls, attr, self.wrap(cls.__dict__[attr], name,
                                             attrs))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Self time of every span, indexed by span id."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] is not None:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def summary(self, scales: dict | None = None,
                ) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms, self ms, summed attrs;
        ``scales`` maps an op id to a factor applied to its spans' times."""
        own = self.self_ns()
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for span in self.spans:
            scale = scales[span[OP]] if scales is not None else 1.0
            row = out[span[NAME]]
            row["calls"] += 1
            row["ms"] += (span[END] - span[START]) * scale / 1e6
            row["self_ms"] += own[span[ID]] * scale / 1e6
            for key, value in (span[ATTRS] or {}).items():
                row[key] += value
        return {name: dict(row) for name, row in out.items()}

    def write(self, path) -> None:
        """Write every span as one JSON line (with its self time)."""
        own = self.self_ns()
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span[ID], "name": span[NAME],
                    "start_ns": span[START], "end_ns": span[END],
                    "parent": span[PARENT], "op": span[OP],
                    "self_ns": own[span[ID]], "attrs": span[ATTRS],
                }, separators=(",", ":")) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, attrs: dict | None):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span = None

    def __enter__(self):
        if self.tracer._active(self.name):
            self.span = self.tracer._open(self.name)
            self.span[ATTRS] = self.attrs
        return self

    def __exit__(self, *exc) -> None:
        if self.span is not None:
            self.tracer._close(self.span)
