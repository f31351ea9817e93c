"""In-memory span recorder that wraps ppskit's public functions from outside.

Nothing in ``src/`` is edited.  :meth:`Tracer.install` replaces each traced
function in every ``ppskit`` module that binds it, so calls made through a
``from .x import y`` name are traced as well (``ppskit.estimate.outcome_map``,
``ppskit.estimate.minimize``, ``ppskit.cli.ml_estimate``, ...).
:meth:`Tracer.uninstall` puts the original objects back.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    op: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it that its children cover.

    Children are the spans whose ``parent`` is the span's index; overlapping
    children count once and are clipped to the parent interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for start, end in sorted(children.get(idx, [])):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(span.duration - covered)
    return out


class Tracer:
    """Records one span per call of each installed function.

    ``op`` is set by the caller before each operation, so every span of one
    operation shares that id.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span_wrapper(self, fn, name, note=None):
        """Wrap ``fn``; ``name`` is a string or a function of the call args.

        ``note(result, args, kwargs)`` may return a dict kept on the span.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(label, time.perf_counter(), 0.0, parent, tracer.op)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if note is not None:
                span.info = note(result, args, kwargs)
            return result

        return wrapper

    def install(self, module_name: str, attr: str, name, note=None) -> None:
        """Trace ``module_name.attr`` under every ppskit name bound to it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self.span_wrapper(original, name, note)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ppskit" or mod_name.startswith("ppskit.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install_method(self, cls, attr: str, name: str) -> None:
        """Trace a method looked up on ``cls`` (e.g. a dataclass hook)."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.span_wrapper(original, name))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, **({"info": s.info} if s.info else {})}
            for s in self.spans
        ]
