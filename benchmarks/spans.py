"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer of the library: its name is
``<layer>.<function>``, and it records start and end times, the span that
encloses it and the id of the operation it belongs to, plus count
attributes (nodes, pairs, triples, candidates, ...). Spans stay in memory
and are written out once, when the run ends.

The untraced run never creates a recorder, so tracing costs it nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op: int | None = None  # op id stamped on new spans; None in setup

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.op, attrs)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def layer_self(self) -> dict[str, float]:
        """Summed self seconds per layer over the spans of every op."""
        out: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            if s.op is not None:
                out[s.layer] = out.get(s.layer, 0.0) + own
        return out

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "attrs": s.attrs}) + "\n")
