"""Spans around calls into molcorr's modules, recorded from outside.

``Tracer.wrap(module, name)`` replaces a function in the namespace where
the program looks it up (``molcorr.correct.retrieve``, not
``molcorr.knowledge.retrieve``, because ``correct`` imported the name) and
records one span per call: layer name, start and end, the parent span,
the query id and a few facts about the call. Each thread keeps its own
stack of open spans. A span opened on a worker thread with an empty
stack takes the innermost open span of the thread that created the
tracer as parent, which is where ``correct_split`` fans out under
``--jobs``.

Spans stay in memory until ``write`` puts them out, grouped by query id.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

Annotate = Callable[[tuple, Any, Optional[BaseException]], Dict[str, Any]]


class Patches:
    """Module attributes swapped for wrappers, put back in reverse order."""

    def __init__(self):
        self._undo = []

    def swap(self, module, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``module.attr`` with ``make(original)``."""
        original = getattr(module, attr)
        setattr(module, attr, make(original))
        self._undo.append((module, attr, original))

    def restore(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


@dataclass
class Span:
    index: int
    name: str
    parent: Optional[int]
    query_id: Optional[str]
    start: float
    end: float = 0.0
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = Patches()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        module,
        attr: str,
        name: str,
        annotate: Optional[Annotate] = None,
        query_id: Optional[Callable[[tuple], str]] = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``module.attr``."""
        self._patches.swap(
            module, attr, lambda original: self._traced(original, name, annotate, query_id)
        )

    def _traced(self, original, name, annotate, query_id):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            qid = query_id(args) if query_id else (parent.query_id if parent else None)
            with self._lock:
                span = Span(
                    index=len(self.spans),
                    name=name,
                    parent=parent.index if parent else None,
                    query_id=qid,
                    start=time.perf_counter(),
                )
                self.spans.append(span)
            stack.append(span)
            result, error = None, None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if annotate is not None:
                    span.info = annotate(args, result, error)

        return traced

    def restore(self) -> None:
        """Put every wrapped function back."""
        self._patches.restore()

    def write(self, path) -> None:
        """Write the spans as JSON lines, grouped by query id."""
        by_query: Dict[str, List[Span]] = {}
        for span in self.spans:
            by_query.setdefault(span.query_id or "", []).append(span)
        with open(path, "w", encoding="utf-8") as fh:
            for qid in sorted(by_query):
                for s in by_query[qid]:
                    fh.write(json.dumps({
                        "query": s.query_id, "span": s.index, "parent": s.parent,
                        "name": s.name, "start": s.start, "end": s.end, "info": s.info,
                    }, separators=(",", ":")) + "\n")


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.index: s.duration - union_length(children.get(s.index, ())) for s in spans}
