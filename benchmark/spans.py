"""Spans recorded around the public functions of ``dirichlet_lab`` modules.

The benchmark's traced run wraps, from outside the program, every module
attribute bound to a function, so each call made through a module's
namespace opens a span: name, start, end, parent span and call id.  Modules
import functions from one another by name (``cli.solve``,
``semilinear.green_apply``), so a function is wrapped in every module that
holds it, under the name of the module that defines it.  Functions from
outside the package (``projection.cho_factor``) are named after the module
that imports them.

Each thread keeps its own parent stack.  A task submitted to the CLI's
suite pool starts with the submitting span as its parent, so suite spans on
two pool threads can overlap under one ``cli.run`` span; a span's self time
subtracts the union of its children's intervals, never a region twice.

Run ``python3 benchmark/spans.py`` to check the interval arithmetic.
"""

from __future__ import annotations

import functools
import threading
import time
import types
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

NAME, START, END, PARENT, CALL = range(5)


class Tracer:
    """In-memory span log, with per-thread parent stacks."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or None, call id]
        self.call = None
        self.waits: list = []  # (call id, seconds from pool submit to task start)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def names_open(self) -> list:
        return [self.spans[i][NAME] for i in self._stack() if i is not None]

    def open(self, name: str) -> int:
        parent = self.current()
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.call])
        self._stack().append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, hook=None):
        """``fn`` inside a span; ``hook(args, kwargs, result)`` may replace the result."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                replaced = hook(args, kwargs, result)
                if replaced is not None:
                    result = replaced
            return result

        traced.__traced__ = True
        return traced

    def pool_class(self):
        """ThreadPoolExecutor whose tasks record their wait and inherit the submitter's span."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent, call, submitted = tracer.current(), tracer.call, time.perf_counter()

                def task():
                    tracer.waits.append((call, time.perf_counter() - submitted))
                    stack = tracer._stack()
                    stack.append(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        stack.clear()

                return super().submit(task)

        return TracedPool


def _wrappable(value) -> bool:
    if getattr(value, "__traced__", False):
        return False
    module = getattr(value, "__module__", None) or ""
    if isinstance(value, (types.FunctionType, types.BuiltinFunctionType)):
        return module.startswith(("dirichlet_lab", "scipy"))
    # numpy ufuncs (scipy.special functions) carry no __module__
    return type(value).__name__ == "ufunc"


def instrument(tracer: Tracer, modules, hooks: dict) -> list:
    """Wrap every function attribute of ``modules``; returns the span names used."""
    names = set()
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, value in list(vars(mod).items()):
            if not _wrappable(value):
                continue
            home = getattr(value, "__module__", None) or ""
            if isinstance(value, types.FunctionType) and home.startswith("dirichlet_lab"):
                name = f"{home.rsplit('.', 1)[-1]}.{value.__name__}"
            else:
                name = f"{short}.{attr}"
            setattr(mod, attr, tracer.wrap(name, value, hooks.get(name)))
            names.add(name)
    return sorted(names)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return [s[END] - s[START] - union_length(children.get(i, ()), s[START], s[END])
            for i, s in enumerate(spans)]


def summarize(spans) -> dict:
    """Per span name: count, total duration and total self time."""
    out: dict = {}
    for s, own in zip(spans, self_times(spans)):
        entry = out.setdefault(s[NAME], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += s[END] - s[START]
        entry["self_s"] += own
    return out


def _check(ok: bool) -> None:
    if not ok:
        raise AssertionError("span arithmetic self-test failed")


def selftest() -> None:
    """Interval arithmetic on synthetic spans; raises AssertionError on a fault."""
    spans = [
        ["run", 0.0, 10.0, None, 0],
        ["suite_a", 1.0, 4.0, 0, 0],    # pool thread 1
        ["suite_b", 2.0, 6.0, 0, 0],    # pool thread 2 overlaps suite_a on [2, 4]
        ["inner", 2.5, 3.5, 2, 0],      # grandchild: counts against suite_b only
        ["write", 8.0, 9.0, 0, 0],
        ["twice", 8.5, 9.0, 0, 0],      # covers part of "write" again
    ]
    own = self_times(spans)
    expected = [10.0 - (5.0 + 1.0), 3.0, 4.0 - 1.0, 1.0, 1.0, 0.5]
    _check(all(abs(a - b) < 1e-12 for a, b in zip(own, expected)))
    _check(union_length([(1, 4), (2, 6), (2, 3)], 0, 10) == 5.0)
    _check(union_length([(-1, 2), (8, 12)], 0, 10) == 4.0)
    _check(union_length([], 0, 10) == 0.0)
    sums = summarize(spans)
    _check(sums["run"]["self_s"] == 4.0 and sums["suite_b"]["total_s"] == 4.0)

    tracer = Tracer()
    pool_cls = tracer.pool_class()
    barrier = threading.Barrier(2)

    def leaf(tag):
        barrier.wait(timeout=10)  # both pool tasks are open at the same time
        return tag

    wrapped = tracer.wrap("leaf", leaf)
    root = tracer.open("root")
    with pool_cls(max_workers=2) as pool:
        got = [f.result(timeout=10) for f in [pool.submit(wrapped, k) for k in "ab"]]
    tracer.close(root)
    _check(got == ["a", "b"])
    leaves = [s for s in tracer.spans if s[NAME] == "leaf"]
    _check(len(leaves) == 2 and all(s[PARENT] == root for s in leaves))
    _check(leaves[0][START] < leaves[1][END] and leaves[1][START] < leaves[0][END])
    root_self = self_times(tracer.spans)[root]
    covered = union_length([(s[START], s[END]) for s in leaves], *tracer.spans[root][1:3])
    _check(abs(root_self - (tracer.spans[root][END] - tracer.spans[root][START] - covered)) < 1e-12)
    _check(root_self >= 0.0 and len(tracer.waits) == 2)


if __name__ == "__main__":
    selftest()
    print("span arithmetic self-test passed")
