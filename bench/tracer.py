"""Tracing from outside the package.

``install`` wraps the public functions of every sowitness module under each
name the package binds them to, so calls through ``cli``'s imported names,
through ``thermal``'s and through the package root are all seen.  The
layers are the modules.  A call whose caller is in another layer is a layer
entry.

- Ops and every timed call get a span: (op, name, layer, start, end, self).
  Self time is the span's duration minus the time of the traced calls made
  directly under it.
- Hot calls (``HOT``) run once per level per temperature or once per
  sampled state.  They keep only a count, plus an inclusive and a self-time
  sum when they enter a layer, so memory stays bounded.  A hot call inside
  its own layer is only counted; its time is its caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from types import ModuleType
from typing import Callable, Iterator

LAYERS = ("angular", "ions", "thermal", "dense", "cli")
HOT = frozenset({
    "angular.level_energy", "angular.multiplets", "angular.ground_multiplet",
    "thermal.weight", "dense.sample_product_state", "dense.product_state_sample",
})
OP = "op"


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stack: list[list] = []  # open frames: [name, layer, start, child seconds]
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.hot_seconds: defaultdict = defaultdict(float)
        self.hot_self: defaultdict = defaultdict(float)
        self.op_calls: list[Counter] = []  # calls made by each op
        self.ops = 0

    def wrap(self, func: Callable, name: str, layer: str) -> Callable:
        stack, calls, clock = self.stack, self.calls, self.clock
        hot = name in HOT

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not stack:
                return func(*args, **kwargs)
            calls[name] += 1
            if hot and stack[-1][1] == layer:
                return func(*args, **kwargs)
            frame = [name, layer, clock(), 0.0]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(frame, hot)

        return traced

    def _close(self, frame: list, hot: bool) -> None:
        end = self.clock()
        name, layer, start, child = frame
        while self.stack and self.stack.pop() is not frame:
            pass  # frames left open by an interrupted call
        duration = end - start
        if self.stack:
            self.stack[-1][3] += duration
        if hot:
            self.hot_seconds[name] += duration
            self.hot_self[name] += duration - child
        else:
            self.spans.append((self.ops, name, layer, start, end, duration - child))

    @contextmanager
    def op(self) -> Iterator[None]:
        """Span of one benchmark op; wrapped calls outside any op are not traced."""
        before = self.calls.copy()
        frame = [OP, OP, self.clock(), 0.0]
        self.stack.append(frame)
        try:
            yield
        finally:
            self._close(frame, hot=False)
            self.stack.clear()
            self.op_calls.append(self.calls - before)
            self.ops += 1

    # -- summaries -------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, _, start, end, _ in self.spans if n == name]

    def self_seconds(self) -> dict[str, float]:
        """Self time per function name, summed over the run."""
        totals: defaultdict = defaultdict(float, self.hot_self)
        for _, name, _, _, _, own in self.spans:
            totals[name] += own
        return dict(totals)

    def layer_self_seconds(self) -> dict[str, float]:
        totals: defaultdict = defaultdict(float)
        for name, seconds in self.self_seconds().items():
            totals[name.split(".", 1)[0]] += seconds
        return dict(totals)

    def op_seconds(self) -> float:
        return sum(self.durations(OP))


def public_functions(module: ModuleType) -> list[str]:
    """``__all__`` where the module has one, else its own public functions."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n, v in vars(module).items()
                 if not n.startswith("_") and inspect.isfunction(v)
                 and v.__module__ == module.__name__]
    return [n for n in names if inspect.isfunction(getattr(module, n))]


def install(tracer: Tracer, package: ModuleType) -> Callable[[], None]:
    """Wrap the package's public functions; returns a function that unwraps them."""
    modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
    wrappers = {}
    for module in modules:
        for attr in public_functions(module):
            func = getattr(module, attr)
            layer = func.__module__.rsplit(".", 1)[-1]
            wrappers[func] = tracer.wrap(func, f"{layer}.{func.__name__}", layer)
    patched = []
    for module in [package, *modules]:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
                patched.append((module, attr, value))

    def restore() -> None:
        for module, attr, value in patched:
            setattr(module, attr, value)

    return restore
