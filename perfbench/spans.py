"""In-memory span recorder for the traced benchmark run.

Spans are opened by wrappers the benchmark installs around the public
functions of each layer (see :class:`Patches`); nothing inside ``src/``
knows it is being traced.  Every span records its name, start, end,
parent span and request id, and stays in memory until the run ends.

The current span travels in a :mod:`contextvars` variable rather than a
thread-local, so concurrent coroutines on the fleet front end's event
loop (each ``asyncio.gather`` child runs in its own context copy) get
their own parent chains.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import threading
import time

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
_REQUEST: contextvars.ContextVar = contextvars.ContextVar("perfbench_rid", default=None)


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "attrs")

    def __init__(self, sid, name, start, parent, rid, attrs):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_row(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent, self.rid, self.attrs]

    @classmethod
    def from_row(cls, row) -> "Span":
        span = cls(row[0], row[1], row[2], row[4], row[5], row[6])
        span.end = row[3]
        return span


class Recorder:
    """Collects spans and per-request counts while :attr:`active` is set."""

    def __init__(self):
        self.active = False
        self.spans: list[Span] = []
        #: (request id, counter name) -> count, for counts made inside a
        #: request (clock reads, deadline checks).
        self.request_counts: dict[tuple, int] = {}
        self.ids = itertools.count(1)
        self._lock = threading.Lock()

    def reset(self) -> None:
        with self._lock:
            self.spans = []
            self.request_counts = {}

    def open(self, name: str, attrs=None) -> Span:
        """A span under the current one; :meth:`close` records it."""
        cur = _CURRENT.get()
        return Span(
            next(self.ids),
            name,
            time.perf_counter(),
            None if cur is None else cur.sid,
            _REQUEST.get(),
            attrs,
        )

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, attrs=None):
        """Record the ``with`` body as a span that is the current parent."""
        span = self.open(name, attrs)
        token = _CURRENT.set(span)
        try:
            yield span
        finally:
            _CURRENT.reset(token)
            self.close(span)

    def count_in_request(self, counter: str) -> None:
        rid = _REQUEST.get()
        if rid is None:
            return
        key = (rid, counter)
        with self._lock:
            self.request_counts[key] = self.request_counts.get(key, 0) + 1


def set_request(rid):
    """Bind a request id to the current context; returns the reset token."""
    return _REQUEST.set(rid)


def reset_request(token) -> None:
    _REQUEST.reset(token)


def traced(recorder: Recorder, name: str, fn, attrs_of=None, after=None):
    """Wrap ``fn`` so each call records a span named ``name``.

    ``attrs_of(args, kwargs)`` adds attributes from the call's arguments
    and ``after(result, attrs)`` from its result.  A call made inside a
    span of the same name records nothing more (``run`` calling
    ``run_many`` is one execution, not two).
    """

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            cur = _CURRENT.get()
            if not recorder.active or (cur is not None and cur.name == name):
                return await fn(*args, **kwargs)
            attrs = attrs_of(args, kwargs) if attrs_of else None
            span = recorder.open(name, attrs)
            token = _CURRENT.set(span)
            try:
                result = await fn(*args, **kwargs)
                if after is not None:
                    span.attrs = after(result, span.attrs)
                return result
            finally:
                _CURRENT.reset(token)
                recorder.close(span)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cur = _CURRENT.get()
        if not recorder.active or (cur is not None and cur.name == name):
            return fn(*args, **kwargs)
        attrs = attrs_of(args, kwargs) if attrs_of else None
        span = recorder.open(name, attrs)
        token = _CURRENT.set(span)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                span.attrs = after(result, span.attrs)
            return result
        finally:
            _CURRENT.reset(token)
            recorder.close(span)

    return wrapper


def counted(recorder: Recorder, counter: str, fn):
    """Wrap ``fn`` so each call inside a request bumps ``counter``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder.active:
            recorder.count_in_request(counter)
        return fn(*args, **kwargs)

    return wrapper


class Patches:
    """Attribute replacements that are undone in reverse order."""

    _MISSING = object()

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    @classmethod
    def _raw(cls, owner, attr: str):
        if isinstance(owner, type):
            return owner.__dict__.get(attr, cls._MISSING)
        return getattr(owner, attr)

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, self._raw(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``.

        Static methods are unwrapped and re-wrapped so the replacement
        keeps binding the way the original did.
        """
        raw = self._raw(owner, attr)
        if raw is self._MISSING:
            raw = getattr(owner, attr)
        if isinstance(raw, staticmethod):
            self.set(owner, attr, staticmethod(make(raw.__func__)))
        else:
            self.set(owner, attr, make(raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            if value is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------
def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.sid: span.duration - covered(children.get(span.sid, []), span.start, span.end)
        for span in spans
    }
