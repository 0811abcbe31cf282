"""In-memory spans and counters for the traced benchmark run.

A span records a name, a start, an end and the span that was open when it
began.  Calls the benchmark makes into the package are wrapped in spans by
the job code itself; calls the package makes internally are timed by
wrappers installed over the module attribute the caller looks up (for
example ``coxpizza.conjectures.exact_sign_fold``), and only while a traced
pass runs.  Wrappers see only the calling process: work done inside
``ProcessPoolExecutor`` children is not traced.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("ident", "name", "start", "end", "parent")

    def __init__(self, ident: int, name: str, start: float, parent: Optional[int]):
        self.ident = ident
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent

    def to_json(self) -> dict:
        return {"id": self.ident, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent}


class NullTracer:
    """Tracer for untraced passes: records nothing."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, amount: float = 1) -> None:
        pass

    def high(self, name: str, value: float) -> None:
        pass


class Tracer(NullTracer):
    """Spans plus additive counters and high-water marks, kept in memory."""

    enabled = True

    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._open: List[Span] = []
        self._patches: List[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1].ident if self._open else None
        sp = Span(len(self.spans), name, time.perf_counter(), parent)
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def high(self, name: str, value: float) -> None:
        if value > self.counters.get(name, float("-inf")):
            self.counters[name] = value

    # -- wrappers at call sites ---------------------------------------------

    def wrap(self, module, attr: str, span_name: str,
             observe: Optional[Callable[["Tracer", tuple, dict, object], None]] = None) -> None:
        """Replace ``module.attr`` by a spanned wrapper until ``unwrap_all``.
        ``observe(tracer, args, kwargs, result)`` records counters."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(span_name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def wrap_generator(self, module, attr: str, prefix: str) -> None:
        """Count the items a generator function yields (``<prefix>.visited``)
        and the time spent producing them (``<prefix>.enum_s``)."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            it = iter(original(*args, **kwargs))
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    self.count(prefix + ".enum_s", time.perf_counter() - t0)
                    return
                self.count(prefix + ".enum_s", time.perf_counter() - t0)
                self.count(prefix + ".visited")
                yield item

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- aggregation ----------------------------------------------------------

    def total(self, name: str, under: Optional[str] = None) -> float:
        """Summed duration of spans called ``name``; with ``under``, only
        those with an ancestor span called ``under``."""
        def has_ancestor(sp: Span) -> bool:
            parent = sp.parent
            while parent is not None:
                anc = self.spans[parent]  # span ids are list positions
                if anc.name == under:
                    return True
                parent = anc.parent
            return False

        return sum((sp.end - sp.start for sp in self.spans
                    if sp.name == name and (under is None or has_ancestor(sp))), 0.0)

    def bookkeeping_seconds(self) -> float:
        """Estimated time the recorded spans and counted items cost: the
        per-call price of a wrapped no-op and of a wrapped generator item,
        timed here, times how many of each this tracer recorded."""
        calls = 20000
        probe = Tracer()

        class Target:
            @staticmethod
            def noop():
                return None

            @staticmethod
            def items(n):
                yield from range(n)

        def per_call(fn) -> float:
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            return (time.perf_counter() - t0) / calls

        bare = per_call(Target.noop)
        probe.wrap(Target, "noop", "probe")
        span_cost = per_call(Target.noop) - bare
        t0 = time.perf_counter()
        for _ in Target.items(calls):
            pass
        bare_items = time.perf_counter() - t0
        probe.wrap_generator(Target, "items", "probe")
        t0 = time.perf_counter()
        for _ in Target.items(calls):
            pass
        item_cost = (time.perf_counter() - t0 - bare_items) / calls
        probe.unwrap_all()
        items = self.counters.get("matchings.visited", 0)
        return max(span_cost, 0.0) * len(self.spans) + max(item_cost, 0.0) * items

    def to_json(self) -> dict:
        return {"spans": [sp.to_json() for sp in self.spans], "counters": dict(self.counters)}
