"""In-memory span recorder for the benchmark's traced run.

Spans are recorded from outside the library: the benchmark wraps the public
functions it calls, and the names ``qimatch.pipeline`` looks up at call time,
so nothing inside the library changes.  Each span keeps its name, start, end,
parent span and the id of the op (image pair) it belongs to.  Spans stay in
memory until the run ends and are then written out as JSON.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any


@dataclass
class Span:
    name: str
    op: str | None
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = 0.0
    result: Any = None  # return value, kept until the benchmark has read its counts

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        s = Span(name=name, op=self.op, parent=parent, start=time.perf_counter())
        self.spans.append(s)
        self._stack.append(index)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """Return fn with every call recorded as a span named `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                s.result = fn(*args, **kwargs)
            return s.result

        return traced

    @contextmanager
    def patched(self, module, names: dict[str, str]):
        """Replace module attributes (attribute -> span name) by traced wrappers
        for the duration of the block.  A name the module no longer has is
        skipped; its span then never fires, which the caller reports."""
        saved = {attr: getattr(module, attr) for attr in names if hasattr(module, attr)}
        try:
            for attr, fn in saved.items():
                setattr(module, attr, self.wrap(names[attr], fn))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def write(self, path: Path) -> None:
        self_t = self.self_times()
        rows = [
            {
                "name": s.name,
                "op": s.op,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "self": self_t[k],
            }
            for k, s in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}) + "\n")
