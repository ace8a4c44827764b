"""In-memory spans recorded by the benchmark around its calls into each layer.

A span is (id, parent id, request id, layer, name, start, end). Spans live in
a list until the run ends. The untraced run has no tracer and records none.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    request: int
    layer: str
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._request = 0

    def new_request(self) -> None:
        self._request += 1

    @contextmanager
    def span(self, layer: str, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, self._request, layer, name, start, end))

    def durations(self, layer: str, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.layer == layer and s.name == name]
