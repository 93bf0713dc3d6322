"""In-memory span tracer that wraps the package's functions from outside.

Spans are recorded only around calls the benchmark can reach from its own
files: it replaces a module attribute (or a dict entry, for the solver's
engine table) with a wrapper, so callers that imported a function by name
are traced too.  Every span keeps its name, start, end, parent span and the
run id of the top-level operation that caused it.  A layer's self time is
its spans' duration minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    run: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self.tags: dict = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def new_run(self, **tags) -> int:
        """Start a top-level operation; later spans carry its id and tags."""
        self.run += 1
        self.tags = tags
        return self.run

    def call(self, name, fn, args, kwargs, on_exit=None):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), None, parent, self.run, dict(self.tags))
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.info["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if on_exit is not None:
            # counters are computed after the span closed, outside its time
            on_exit(span, args, kwargs, result)
        return result

    def patch(self, owner, attr, value):
        """Set ``owner.attr`` (``owner[attr]`` for a dict) until unwrap_all."""
        is_dict = isinstance(owner, dict)
        orig = owner[attr] if is_dict else getattr(owner, attr)
        if is_dict:
            owner[attr] = value
        else:
            setattr(owner, attr, value)
        self._patches.append((owner, attr, orig, is_dict))
        return orig

    def wrap(self, owner, attr, name, on_exit=None):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a traced call."""
        orig = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            return self.call(name, orig, args, kwargs, on_exit)

        self.patch(owner, attr, traced)

    def unwrap_all(self):
        while self._patches:
            owner, attr, orig, is_dict = self._patches.pop()
            if is_dict:
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the duration of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer, the span-name prefix before the first dot.

        A child span of the same layer (``multiscale.admit`` under
        ``multiscale``) stays inside that layer's self time.
        """
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            totals[span.name.split(".")[0]] += own
        return totals

    def name_self(self) -> dict[str, float]:
        """Self seconds per span name."""
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            totals[span.name] += own
        return totals
