"""In-memory span recorder, and the attribute patching that feeds it.

A span is one call across a layer boundary: its name, start, end, the span
that was open on the same thread when it began (its parent), and a work
count ("items") taken from the call's arguments.  Spans stay in memory; a
child process (the service's queue worker) writes its own with
:meth:`Recorder.dump` for the benchmark process to :meth:`Recorder.merge`.

:class:`Patcher` puts a span around a function by replacing the attribute
that callers look it up through -- a module global, a static method, a class
method, a plain method or a ``functools.cached_property`` -- and puts every
original back on :meth:`Patcher.restore`.  Nothing in the program is edited:
a call made through a name the patcher did not replace is simply not seen.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

_clock = time.perf_counter


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    items: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and counters from every thread of one process."""

    def __init__(self, id_base: int = 0) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(id_base + 1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            id=next(self._ids),
            parent=stack[-1] if stack else None,
            name=name,
            start=_clock(),
            end=0.0,
        )
        stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = _clock()
        self._stack().pop()
        self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def merge(self, doc: dict[str, Any]) -> None:
        """Add the spans and counters another process wrote with :meth:`dump`."""
        self.spans.extend(Span(**row) for row in doc["spans"])
        for name, amount in doc["counters"].items():
            self.count(name, amount)

    def dump(self, path: str | Path) -> None:
        doc = {"spans": [asdict(s) for s in self.spans], "counters": self.counters}
        Path(path).write_text(json.dumps(doc))


NameFn = Callable[[tuple, dict], str]
ItemsFn = Callable[[tuple, dict], int]
AfterFn = Callable[["Recorder", tuple, dict, Any], None]


class Patcher:
    """Wraps attributes in span-recording functions; :meth:`restore` undoes it."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrapper(
        self, fn: Callable, name: str | NameFn, items: ItemsFn | None, after: AfterFn | None
    ) -> Callable:
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = recorder.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                out = fn(*args, **kwargs)
                if items is not None:
                    span.items = int(items(args, kwargs))
                if after is not None:
                    after(recorder, args, kwargs, out)
                return out
            finally:
                recorder.close(span)

        return wrapper

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | NameFn,
        *,
        items: ItemsFn | None = None,
        after: AfterFn | None = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``items`` and ``after`` see the call's positional arguments as the
        wrapped function receives them (``self``/``cls`` first for methods).
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            new: Any = staticmethod(self._wrapper(raw.__func__, name, items, after))
        elif isinstance(raw, classmethod):
            new = classmethod(self._wrapper(raw.__func__, name, items, after))
        elif isinstance(raw, functools.cached_property):
            new = functools.cached_property(self._wrapper(raw.func, name, items, after))
            new.__set_name__(owner, attr)
        elif callable(raw):
            new = self._wrapper(raw, name, items, after)
        else:
            raise TypeError(f"cannot wrap {owner!r}.{attr}: {type(raw).__name__}")
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)
