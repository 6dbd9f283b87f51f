"""Outside-in span tracer: wraps a program's functions from the outside.

The benchmark measures the program without editing it.  A :class:`Tracer`
replaces a function or a class attribute with a wrapper that times each
call and knows which traced call is running around it, so it can report
every layer's *self time*: the time a call took minus the part of it
spent in traced calls nested inside.

Three kinds of call are recorded:

* ``span`` — one record per call (name, start, end, parent span,
  request id), kept in memory and written out when the benchmark ends;
* ``aggregate`` — for hot calls (kernel steps, fingerprints, snapshot
  restores) only the call count, total time and self time per request
  are kept, so memory stays bounded;
* generators and coroutines are traced per resumption: each ``next``
  of a traced iterator is one segment of its layer, and an ``async``
  function is timed from its first to its last step.

A *root* wrapper (``verify``, an HTTP ``handle``) opens a new request
id; every call nested inside it inherits that id.  The current call is
held in a :class:`contextvars.ContextVar`, so concurrent asyncio tasks
each see their own stack.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time

from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple


class Frame:
    """One open traced call."""

    __slots__ = ("name", "span_id", "request", "child")

    def __init__(self, name: str, span_id: int, request: int):
        self.name = name
        self.span_id = span_id
        self.request = request
        self.child = 0.0  # seconds covered by traced calls nested inside


#: Hook run after a traced call returns, outside its timed interval:
#: ``hook(tracer, frame, args, kwargs, result)``.
Hook = Callable[["Tracer", Frame, tuple, dict, Any], None]


class Tracer:
    """Wraps callables, records spans, and reports self times."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._current: contextvars.ContextVar[Optional[Frame]] = (
            contextvars.ContextVar("perfbench_frame", default=None)
        )
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        #: Recorded spans: (span id, name, start, end, parent id, request).
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        #: (name, request) -> [calls, total seconds, self seconds].
        self.totals: Dict[Tuple[str, int], List[float]] = {}
        #: (name, parent name) -> calls; parent "" at top level.
        self.parents: Counter = Counter()
        #: Free-form counts added by hooks (e.g. events checked).
        self.counts: Counter = Counter()
        #: Hook-owned state (e.g. fingerprint sets per request).
        self.state: Dict[str, Any] = {}
        #: Seconds hooks spent on bookkeeping, excluded from every span.
        self.hook_s = 0.0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- the wrappers ------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        record: bool = True,
        root: bool = False,
        reentrant: bool = True,
        iterator: bool = False,
        hook: Optional[Hook] = None,
    ) -> Callable:
        """A traced version of ``fn``.

        ``record=False`` aggregates instead of keeping one span per
        call.  ``reentrant=False`` lets a call of ``name`` nested inside
        another call of ``name`` through untraced (a conjunction of
        checkers is one check, not several).  If ``fn`` is a generator
        function, or ``iterator`` says it returns an iterator, each
        resumption of that iterator is traced as a segment of ``name``.
        """
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(fn, name, record, root, hook)
        iterator = iterator or inspect.isgeneratorfunction(fn)
        current = self._current
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = current.get()
            if not reentrant and parent is not None and parent.name == name:
                return fn(*args, **kwargs)
            frame = self._open(name, parent, root)
            token = current.set(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                self._close(frame, parent, start, end, record)
            if iterator:
                result = TracedIterator(self, result, name, frame.request, record)
            if hook is not None:
                self._run_hook(hook, frame, parent, args, kwargs, result)
            return result

        return wrapper

    def _wrap_async(self, fn, name, record, root, hook):
        current = self._current
        clock = self.clock

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            parent = current.get()
            frame = self._open(name, parent, root)
            token = current.set(frame)
            start = clock()
            try:
                result = await fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                self._close(frame, parent, start, end, record)
            if hook is not None:
                self._run_hook(hook, frame, parent, args, kwargs, result)
            return result

        return wrapper

    def _open(self, name: str, parent: Optional[Frame], root: bool) -> Frame:
        if root or parent is None:
            request = next(self._request_ids) if root else 0
        else:
            request = parent.request
        return Frame(name, next(self._span_ids), request)

    def _close(
        self,
        frame: Frame,
        parent: Optional[Frame],
        start: float,
        end: float,
        record: bool,
    ) -> None:
        duration = end - start
        if parent is not None:
            parent.child += duration
        key = (frame.name, frame.request)
        entry = self.totals.get(key)
        if entry is None:
            self.totals[key] = [1, duration, duration - frame.child]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame.child
        self.parents[(frame.name, parent.name if parent is not None else "")] += 1
        if record:
            self.spans.append(
                (
                    frame.span_id,
                    frame.name,
                    start,
                    end,
                    parent.span_id if parent is not None else 0,
                    frame.request,
                )
            )

    def _run_hook(self, hook, frame, parent, args, kwargs, result) -> None:
        started = self.clock()
        hook(self, frame, args, kwargs, result)
        spent = self.clock() - started
        self.hook_s += spent
        if parent is not None:
            parent.child += spent

    # -- patching ----------------------------------------------------------

    def patch(self, owner: Any, attribute: str, name: str, **options) -> None:
        """Replace ``owner.attribute`` with its traced version.

        ``owner`` is a class (the wrapper then binds like the method it
        replaces) or a module (for names other modules imported by
        value, patch the module the caller reads them from)."""
        original = (
            owner.__dict__[attribute]
            if isinstance(owner, type)
            else getattr(owner, attribute)
        )
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot trace {attribute}: not a plain function")
        setattr(owner, attribute, self.wrap(original, name, **options))
        self._patches.append((owner, attribute, original))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- reports -----------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, total ``s`` and ``self_s``, summed over
        requests."""
        layers: Dict[str, Dict[str, float]] = {}
        for (name, _request), (calls, total, self_s) in self.totals.items():
            entry = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += calls
            entry["s"] += total
            entry["self_s"] += self_s
        return layers

    def self_seconds(self) -> float:
        """Sum of every layer's self time."""
        return sum(entry[2] for entry in self.totals.values())

    def document(self) -> Dict[str, Any]:
        """Everything recorded, as plain JSON-ready data."""
        return {
            "spans": [list(span) for span in self.spans],
            "totals": [
                [name, request, calls, total, self_s]
                for (name, request), (calls, total, self_s) in sorted(
                    self.totals.items()
                )
            ],
            "parents": [
                [name, parent, calls]
                for (name, parent), calls in sorted(self.parents.items())
            ],
            "counts": dict(self.counts),
            "hook_s": self.hook_s,
        }


class TracedIterator:
    """An iterator whose every resumption is one segment of a layer."""

    __slots__ = ("_tracer", "_iterator", "_name", "_request", "_record")

    def __init__(self, tracer: Tracer, iterator, name: str, request: int, record: bool):
        self._tracer = tracer
        self._iterator = iterator
        self._name = name
        self._request = request
        self._record = record

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        current = tracer._current
        parent = current.get()
        frame = Frame(self._name, next(tracer._span_ids), self._request)
        token = current.set(frame)
        start = tracer.clock()
        try:
            return next(self._iterator)
        finally:
            end = tracer.clock()
            current.reset(token)
            tracer._close(frame, parent, start, end, self._record)
