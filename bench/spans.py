"""In-memory spans recorded around calls into the engine's public functions.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``; the name's first
dotted part is the layer. Spans are recorded from outside the engine: the
traced run temporarily replaces module attributes with wrappers that open a
span and call the original. Nothing in the engine changes.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple[object, str], float] = defaultdict(float)
        self.op: object = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index][1] = start
            self.spans[index][2] = end

    def count(self, name: str, value: float = 1) -> None:
        self.counts[(self.op, name)] += value

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps([name, start, end, parent, op]) + "\n")


class NullTracer:
    """Stands in for a Tracer when tracing is off."""

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class ModuleView:
    """A module with some attributes replaced, for patching one caller's view."""

    def __init__(self, module, **replaced) -> None:
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name: str):
        return getattr(self._module, name)


@contextmanager
def patched(replacements):
    """Set each ``(owner, attribute, value)`` for the duration of the block."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


def per_op(spans: list[list]) -> dict[object, dict]:
    """Per operation: inclusive time and call count per span name, self time per layer.

    A span's self time is its duration minus the durations of its direct
    children; children run one after another inside their parent, so their
    durations never overlap.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    ops: dict[object, dict] = {}
    for index, (name, start, end, parent, op) in enumerate(spans):
        entry = ops.setdefault(
            op, {"ns": defaultdict(int), "calls": defaultdict(int), "self_ns": defaultdict(int)}
        )
        entry["ns"][name] += end - start
        entry["calls"][name] += 1
        entry["self_ns"][name.split(".", 1)[0]] += end - start - child_ns[index]
    return ops
