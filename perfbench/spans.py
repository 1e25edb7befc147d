"""Span recording from outside the program.

The benchmark times each layer by wrapping the layer's public
functions - module globals, class methods or one object's bound
methods - in a recorder that opens a span on entry and closes it on
exit.  Nothing inside ``repro`` is changed; the program's own
``repro.telemetry`` tracer stays disabled.

Spans live in memory (one entry per call: name, start, end, parent)
and are written out once, when the run ends.  The benchmark is a single
thread, so the parent of a span is simply the span open when it
started.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

PASS = "bench.pass"


class Spans:
    """In-memory span log plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, note=None):
        """``fn`` timed as span ``name``; ``note(result)`` may return a
        dict of attributes stored with the span."""

        def timed(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if note is not None:
                self.attrs[idx] = note(out)
            return out

        return timed

    @contextmanager
    def patched(self, targets):
        """Wrap ``(owner, attr, span_name[, note])`` targets for the
        duration of the block, then put the originals back."""
        saved = []
        try:
            for owner, attr, name, *note in targets:
                own = attr in vars(owner)
                saved.append((owner, attr, vars(owner).get(attr), own))
                setattr(
                    owner, attr,
                    self.wrap(getattr(owner, attr), name, *note),
                )
            yield self
        finally:
            for owner, attr, original, own in reversed(saved):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def write(self, path: Path) -> None:
        """Dump every span as ``[name, start_us, dur_us, parent]``."""
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        t0 = self.start[0] if self.start else 0.0
        rows = [
            [ids[n], round((s - t0) * 1e6, 3), round((e - s) * 1e6, 3), p]
            for n, s, e, p in zip(
                self.names, self.start, self.end, self.parent
            )
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"names": table, "spans": rows}, separators=(",", ":"))
        )


class Profile:
    """Per-pass aggregates over a span log.

    Every traced pass is a root span named :data:`PASS`; each query
    aggregates the matching spans of one pass and returns the median
    over passes.  Self time is a span's duration minus the durations of
    its direct children.
    """

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.names = np.asarray(spans.names)
        n = self.names.size
        self.dur = np.asarray(spans.end) - np.asarray(spans.start)
        parent = np.asarray(spans.parent, dtype=np.int64)
        child = np.zeros(n)
        has = parent >= 0
        np.add.at(child, parent[has], self.dur[has])
        self.self_time = self.dur - child
        self.parent_name = np.where(
            has, self.names[np.maximum(parent, 0)], ""
        )
        root = self.names == PASS
        self.pass_of = np.maximum.accumulate(
            np.where(root, np.arange(n), -1)
        )
        self.passes = np.flatnonzero(root)
        if self.passes.size == 0:
            raise ValueError("span log holds no traced pass")

    def mask(self, name: str, parent: str | None = None, **attrs):
        m = self.names == name
        if parent is not None:
            m &= self.parent_name == parent
        for key, value in attrs.items():
            hits = [
                i for i in np.flatnonzero(m)
                if self.spans.attrs.get(i, {}).get(key) == value
            ]
            m = np.zeros_like(m)
            m[hits] = True
        return m

    def _per_pass(self, m, values, reduce) -> float:
        per = [
            reduce(values[m & (self.pass_of == p)]) for p in self.passes
        ]
        return float(np.median(per))

    def total_ms(self, name: str, self_time: bool = False, **kw) -> float:
        values = self.self_time if self_time else self.dur
        return self._per_pass(self.mask(name, **kw), values * 1e3, np.sum)

    def count(self, name: str, **kw) -> float:
        return self._per_pass(self.mask(name, **kw), self.dur, np.size)

    def mean_us(self, name: str, **kw) -> float:
        return self._per_pass(
            self.mask(name, **kw), self.dur * 1e6,
            lambda v: float(v.mean()) if v.size else 0.0,
        )

    def attr_sum(self, name: str, key: str) -> float:
        idx = np.flatnonzero(self.mask(name))
        per = [
            sum(self.spans.attrs[i][key] for i in idx if self.pass_of[i] == p)
            for p in self.passes
        ]
        return float(np.median(per))
