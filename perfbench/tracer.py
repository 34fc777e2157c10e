"""Spans around calls into nos, recorded from outside the package.

``Tracer.wrap(module, attr, name)`` replaces the function bound to
``module.attr`` with a wrapper that records one span per call: its name,
an optional label, its duration, its self time (duration minus the
wrapped calls made beneath it) and an optional work count. Wrapping
happens under the name the caller uses, so a function imported into
another module by name is wrapped there. A binding that does not exist
is skipped, and the layers it feeds read zero.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, label, start, duration, self time, count)
        self.recording = False
        self._stack: list[list] = []  # per open span: [its id, children's total duration]
        self._next_id = 0
        self._patched: list[tuple] = []

    def wrap(self, module, attr: str, name: str, label=None, count=None) -> None:
        """Wrap ``module.attr``; ``label(args, kwargs)`` and ``count(args, kwargs, result)`` are optional."""
        original = getattr(module, attr, None)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += duration
            tracer.spans.append(
                (
                    frame[0],
                    parent,
                    name,
                    label(args, kwargs) if label else None,
                    start,
                    duration,
                    duration - frame[1],
                    count(args, kwargs, result) if count else 0,
                )
            )
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self) -> list[tuple]:
        """The spans recorded since the last call, removed from the tracer."""
        spans, self.spans = self.spans, []
        return spans


def aggregate(spans) -> dict:
    """Per (name, label): calls, total duration, self time and count."""
    agg: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
    for _id, _parent, name, label, _start, duration, self_time, count in spans:
        a = agg[(name, label)]
        a["calls"] += 1
        a["total_s"] += duration
        a["self_s"] += self_time
        a["count"] += count
    return dict(agg)
