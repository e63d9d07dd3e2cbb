"""Query-lifecycle tracing: span trees of recent statements.

One :class:`Tracer` per :class:`~repro.api.database.Database` session.
Every statement becomes a root span (``statement``) whose children are
the lifecycle phases — ``parse`` → ``bind`` → ``optimize`` → ``plan`` →
``execute`` — and iterative executors (ITERATE, recursive CTEs) add one
``iteration`` child span per round under ``execute``. The most recent
root is available as :meth:`Database.last_trace`; per-statement
summaries (SQL, phase timings, rows, errors) are derived from the
finished root span by the history store (:mod:`repro.obs.history`).

Spans are cheap (two ``perf_counter`` calls plus a list append) and
always on; a bounded ring of recent roots bounds memory for long-lived
sessions.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional


@dataclass
class Span:
    """One timed region; ``children`` mirrors nesting order.

    ``tid`` is the OS thread identifier the span ran on — the
    coordinator for lifecycle phases, a pool worker for morsel and
    partial-aggregate spans — so timeline exporters
    (:mod:`repro.obs.timeline`) can lay spans out per thread.
    """

    name: str
    attributes: dict = field(default_factory=dict)
    start_s: float = 0.0
    end_s: Optional[float] = None
    children: list["Span"] = field(default_factory=list)
    error: Optional[str] = None
    tid: int = 0

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span (pre-order) with the given name."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        return [s for s in self.walk() if s.name == name]

    def to_dict(self) -> dict:
        """A JSON-safe tree (attribute values stringified when they are
        not plain scalars) — the form flight-recorder bundles store."""
        safe_attrs = {}
        for key, value in self.attributes.items():
            if isinstance(value, (str, int, float, bool)) or value is None:
                safe_attrs[key] = value
            else:
                safe_attrs[key] = repr(value)
        return {
            "name": self.name,
            "attributes": safe_attrs,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "tid": self.tid,
            "error": self.error,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output (bundle
        rendering; timings come back, thread identity is preserved)."""
        span = cls(
            name=payload.get("name", "?"),
            attributes=dict(payload.get("attributes", {})),
            start_s=float(payload.get("start_s", 0.0)),
            tid=int(payload.get("tid", 0)),
            error=payload.get("error"),
        )
        span.end_s = span.start_s + float(payload.get("duration_s", 0.0))
        span.children = [
            cls.from_dict(child) for child in payload.get("children", [])
        ]
        return span

    def format(self, indent: int = 0) -> str:
        pad = "  " * indent
        attrs = "".join(
            f" {k}={v!r}" for k, v in self.attributes.items()
            if k != "sql"
        )
        tail = f" ERROR: {self.error}" if self.error else ""
        line = (
            f"{pad}{self.name}  {self.duration_s * 1e3:.3f}ms"
            f"{attrs}{tail}"
        )
        parts = [line]
        parts.extend(c.format(indent + 1) for c in self.children)
        return "\n".join(parts)

    def __str__(self) -> str:
        return self.format()


class Tracer:
    """Builds span trees, one root per statement.

    The open-span stack is thread-local so concurrent sessions sharing
    one :class:`~repro.api.database.Database` trace independently;
    ``last_root`` and the root ring are shared (last writer wins)."""

    def __init__(self, root_ring_size: int = 32):
        self._local = threading.local()
        self.last_root: Optional[Span] = None
        #: Recent completed root spans (full trees), oldest first — the
        #: flight recorder's ring and the timeline exporter's source.
        self._roots: deque[Span] = deque(maxlen=root_ring_size)
        #: Guards cross-thread child attachment (worker spans).
        self._attach_lock = threading.Lock()

    @property
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on *this* thread (None between
        statements). The worker pool captures this on the coordinator
        to parent the spans its tasks open on worker threads."""
        stack = self._stack
        return stack[-1] if stack else None

    def current_root(self) -> Optional[Span]:
        """The root of the statement currently open on *this* thread
        (None between statements) — the flight recorder snapshots this
        when a worker crash is survived mid-statement."""
        stack = self._stack
        return stack[0] if stack else None

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, attributes: dict) -> Span:
        span = Span(name, attributes, tid=threading.get_ident())
        stack = self._stack
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        span.start_s = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end_s = time.perf_counter()
        stack = self._stack
        popped = stack.pop()
        assert popped is span, "span close order violated"
        if not stack:
            self.last_root = span
            self._roots.append(span)

    @contextmanager
    def span(self, name: str, **attributes):
        span = self._open(name, attributes)
        try:
            yield span
        except BaseException as exc:
            if span.error is None:
                span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            self._close(span)

    def statement(self, sql: str):
        """A root span for one statement."""
        return self.span("statement", sql=sql)

    @contextmanager
    def attached_span(self, parent: Span, name: str, **attributes):
        """A span timed on the *calling* thread but attached under
        ``parent`` (a span owned by another thread).

        This is the trace-context propagation primitive: the worker
        pool captures the coordinator's :meth:`current` span before
        dispatch and opens one attached span per task, so parallel
        morsel and partial-aggregate work stitches under the owning
        statement's tree. The child is appended only on close (under a
        lock), so concurrent readers never see a half-built span and
        every task appears exactly once."""
        span = Span(name, attributes, tid=threading.get_ident())
        span.start_s = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            if span.error is None:
                span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span.end_s = time.perf_counter()
            with self._attach_lock:
                parent.children.append(span)

    def recent_roots(self, n: int = 32) -> list[Span]:
        """The most recent ``n`` completed root spans (full trees),
        oldest first."""
        if n <= 0:
            return []
        roots = list(self._roots)
        return roots[-n:]
