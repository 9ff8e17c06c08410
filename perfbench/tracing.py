"""Per-layer tracing from outside the program.

The tracer replaces hada's public functions by wrappers while it is
installed.  A function imported into another module with
``from x import y`` is a separate binding, so every hada module is
scanned and each binding of a wrapped function is replaced, and put
back on ``uninstall``.

Each wrapped call is a span (name, parent span, operation, start, end).
Spans are kept in memory, up to a cap, and written out once at the end.
Counts and self times are accumulated as calls return: self time is a
call's duration minus the durations of the wrapped calls it made.  For
the elimination core the wrapper also records the largest input
matrix shape and entry size, measured before the span starts.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from time import perf_counter

LINALG_SHAPES = (("max_rows", "rows"), ("max_cols", "cols"), ("max_entry_bits", "bits"))


def _entry_bits(x):
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return int(x).bit_length()


def _matrix_shape(args):
    rows = args[0]
    if not rows:
        return 0, args[1] if len(args) > 1 else 0, 0
    ncols = args[1] if len(args) > 1 else len(rows[0])
    bits = max(_entry_bits(x) for row in rows for x in row)
    return len(rows), ncols, bits


class Tracer:
    def __init__(self, layers, max_spans=100_000):
        """``layers`` maps a hada module name to the function names to wrap."""
        self.names = [f"{mod}.{fn}" for mod, fns in layers.items() for fn in fns]
        self.max_spans = max_spans
        self.spans = []
        self.dropped_spans = 0
        self._next_span = 0
        self._stack = []  # frames: [span id, function index, child seconds]
        self._restore = []
        self.op = None
        self.shapes = {}  # function index -> largest [rows, cols, bits]
        self.reset()

    def reset(self):
        """Start a fresh set of counts; spans and shapes are kept."""
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.nested_calls = {}  # (parent index, child index) -> calls

    def install(self):
        originals = {}
        for i, qual in enumerate(self.names):
            mod, fn = qual.rsplit(".", 1)
            orig = getattr(sys.modules[f"hada.{mod}"], fn)
            originals[id(orig)] = (orig, self._wrap(i, orig, mod == "linalg"))
        for name, module in list(sys.modules.items()):
            if name != "hada" and not name.startswith("hada."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore = []

    def _wrap(self, index, fn, linalg):
        stack = self._stack

        def traced(*args, **kwargs):
            if linalg:
                shape = _matrix_shape(args)
                best = self.shapes.setdefault(index, [0, 0, 0])
                for k in range(3):
                    if shape[k] > best[k]:
                        best[k] = shape[k]
            span = self._next_span
            self._next_span += 1
            parent = stack[-1] if stack else None
            frame = [span, index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.calls[index] += 1
                self.self_s[index] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                    key = (parent[1], index)
                    self.nested_calls[key] = self.nested_calls.get(key, 0) + 1
                if len(self.spans) < self.max_spans:
                    self.spans.append(
                        (span, parent[0] if parent else None, self.op, index, start, end)
                    )
                else:
                    self.dropped_spans += 1

        traced.__wrapped__ = fn
        return traced

    def nested(self, parent, child):
        """Calls of ``child`` made directly inside ``parent``."""
        key = (self.names.index(parent), self.names.index(child))
        return self.nested_calls.get(key, 0)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["span", "parent", "op", "name", "start_s", "end_s"],
                    "names": self.names,
                    "dropped": self.dropped_spans,
                    "spans": self.spans,
                },
                fh,
            )
