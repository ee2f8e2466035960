"""Spans recorded from outside the program, around calls into cvnnlab.

A :class:`Tracer` keeps every span in memory.  Spans come from two places:
the benchmark's own call sites (``with tracer.span(...)``) and, only while a
traced unit runs, wrappers installed over the module attributes that the
program resolves at call time (``cli.backward``, ``spectral.layer_matrix``
and so on).  ``patched`` puts the originals back when the unit ends.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    layer: str | None = None
    count: int | None = None  # work done at this boundary (samples, iterations, bytes)
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class CoverageError(RuntimeError):
    """An expected span recorded no call, or child spans overran a parent."""


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run = 0

    @contextlib.contextmanager
    def span(self, name: str, layer: str | None = None):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), 0.0, parent, self.run, layer)
        idx = len(self.spans)
        self.spans.append(sp)
        if parent is not None:
            self.spans[parent].children.append(idx)
        self._stack.append(idx)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, note=None):
        """``fn`` recording a span per call.  ``note(span, result, *args)``
        labels the span (layer, count) after it has closed, so it adds
        nothing to the span's own time."""

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
            if note is not None:
                note(sp, out, *args)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Install wrappers for ``(module, attr, span_name, note)`` targets.

        A missing attribute is an error rather than a silent zero: the
        program no longer resolves the call where the benchmark looks.
        """
        saved = []
        try:
            for module, attr, name, note in targets:
                if not hasattr(module, attr):
                    raise CoverageError(f"{module.__name__}.{attr} no longer exists")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, note))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- queries -----------------------------------------------------------

    def named(self, name, run=None, layer=None) -> list[Span]:
        return [
            s
            for s in self.spans
            if s.name == name
            and (run is None or s.run == run)
            and (layer is None or s.layer == layer)
        ]

    def self_time(self, sp: Span) -> float:
        # calls are sequential on one thread, so children never overlap and
        # the part of the parent they cover is the sum of their durations
        return sp.duration - sum(self.spans[c].duration for c in sp.children)

    def check(self, expected) -> None:
        """Fail loudly on an expected ``(name, layer)`` span with zero calls
        (``layer`` None matches any), and on children whose time adds up to
        more than their parent's."""
        missing = [
            name if layer is None else f"{name}[{layer}]"
            for name, layer in expected
            if not self.named(name, layer=layer)
        ]
        if missing:
            raise CoverageError(f"expected spans recorded no calls: {', '.join(missing)}")
        for sp in self.spans:
            if self.self_time(sp) < 0.0:
                raise CoverageError(
                    f"children of {sp.name} cover more than its {sp.duration:.6f} s"
                )
