"""In-memory spans recorded around the benchmark's calls into each layer.

The benchmark measures the program from outside, so a span is made from two
``perf_counter`` stamps the round code takes anyway (that is what keeps the
untraced and the traced pass on one code path).  Spans stay in memory until
the run ends, then go out as one Chrome-format file.
"""

from __future__ import annotations

import itertools
import json
import threading
from dataclasses import dataclass
from pathlib import Path

# Above this the recorder counts spans instead of keeping them, so a long
# run cannot grow without bound; `observability.dropped_spans` reports it.
SPAN_LIMIT = 200_000


@dataclass(frozen=True)
class Span:
    id: int
    name: str  # "<layer>.<call>", e.g. "core.execute"
    start: float  # perf_counter seconds
    end: float
    parent: int  # 0 for a root span
    query: int  # one id per operation; 0 outside any operation
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe (GIL-atomic appends) span store."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.dropped = 0
        self._ids = itertools.count(1)
        self._queries = itertools.count(1)

    def child(self) -> "SpanRecorder":
        """A recorder for a side pass: its own span list, this recorder's id
        space, so the spans can be merged into one trace afterwards."""
        other = SpanRecorder()
        other._ids, other._queries = self._ids, self._queries
        return other

    def new_query(self) -> int:
        return next(self._queries)

    def add(
        self, name: str, start: float, end: float, parent: int = 0, query: int = 0
    ) -> int:
        span_id = next(self._ids)
        if len(self.spans) >= SPAN_LIMIT:
            self.dropped += 1
        else:
            self.spans.append(
                Span(span_id, name, start, end, parent, query, threading.get_ident())
            )
        return span_id

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its child spans cover."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
        return {s.id: s.duration - covered.get(s.id, 0.0) for s in self.spans}

    def coverage(self) -> list[float]:
        """Per query span: the share of its duration its children cover."""
        selfs = self.self_times()
        return [
            1.0 - selfs[s.id] / s.duration
            for s in self.spans
            if s.query and not s.parent and s.duration > 0
        ]

    def write_chrome(self, path: Path) -> None:
        threads = {t: i for i, t in enumerate(sorted({s.thread for s in self.spans}))}
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 1,
                "tid": threads[s.thread],
                "args": {"id": s.id, "parent": s.parent, "query": s.query},
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
