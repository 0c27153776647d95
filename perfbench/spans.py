"""In-memory spans around the public functions of the coxcodes modules.

`Tracer.install()` swaps each public function of `cli`, `harness`,
`perm_a`, `perm_b`, `perm_d` and `qpoly` (module attributes, names imported
into another module, and the entries of the registry dicts) for a wrapper
that records, per span, the call count and the total and self time of the
function.  `uninstall()` puts every original back.  Nothing is written until
the caller reads `records`.

The wrapper's own cost is measured once (`calibrate`) and taken out of the
caller's self time, so that self times add up to about the untraced wall
time; the traced/untraced wall ratio is reported as the overhead.
"""

from __future__ import annotations

import functools
import inspect
import statistics
from contextlib import contextmanager
from time import perf_counter

from coxcodes import cli, harness, perm_a, perm_b, perm_d, qpoly

MODULES = (perm_a, perm_b, perm_d, qpoly, harness, cli)

# private names that hold a layer of their own: the accumulation loop behind
# joint_distribution (it is also what pool workers run)
PRIVATE = {"harness": ("_joint_terms",)}

# registries whose entries are function references taken at import time;
# a registry that a later version drops is skipped
REGISTRIES = (
    (harness, "INTEGER_STATISTICS"),
    (harness, "SET_STATISTICS"),
    (harness, "BIJECTIONS"),
    (harness, "_CODE_PAIRS"),
    (cli, "_CODERS"),
)

QT_METHODS = ("__init__", "__add__", "__mul__", "__eq__", "eval_t1", "terms", "text")


def short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Per-span records {function name: [calls, total s, self s, items]}."""

    def __init__(self):
        self.records: dict[str, dict[str, list]] = {}
        # (inner, outer) seconds a wrapper adds per call and per generator step
        self.call_cost = self.step_cost = (0.0, 0.0)
        self._current: dict[str, list] = self.records.setdefault("", {})
        self._stack: list[list[float]] = []
        self._undo: list = []

    @contextmanager
    def span(self, name: str):
        outer = self._current
        self._current = self.records.setdefault(name, {})
        try:
            yield
        finally:
            self._current = outer

    def _record(self, name: str) -> list:
        rec = self._current.get(name)
        if rec is None:
            rec = self._current[name] = [0, 0.0, 0.0, 0]
        return rec

    def _close(self, rec, frame, t0, cost) -> None:
        dt = perf_counter() - t0
        self._stack.pop()
        inner, outer = cost
        if self._stack:
            self._stack[-1][0] += dt + outer
        rec[1] += dt - inner
        rec[2] += dt - inner - frame[0]

    def wrap(self, name: str, fn):
        stack = self._stack

        if inspect.isgeneratorfunction(fn):
            # time each step of the iteration, which is where the work is
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                self._record(name)[0] += 1
                while True:
                    rec = self._record(name)
                    frame = [0.0]
                    stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(rec, frame, t0, self.step_cost)
                    rec[3] += 1
                    yield item
        else:
            def wrapper(*args, **kwargs):
                rec = self._record(name)
                rec[0] += 1
                frame = [0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(rec, frame, t0, self.call_cost)

        # the defining module's name and qualname let pool workers unpickle it
        return functools.wraps(fn)(wrapper)

    def calibrate(self, calls: int = 20000, repeats: int = 7) -> None:
        """Measure what a wrapper adds to a call and to a generator step:
        the part timed as the callee's (inner) and the part only the caller
        sees (outer).  Each repeat measures every loop back to back, and the
        medians over the repeats are kept."""

        def noop(x):
            return x

        def steps():
            for _ in range(calls):
                yield None

        def empty_loop(_):
            for _ in range(calls):
                pass

        def call_loop(fn):
            for i in range(calls):
                fn(i)

        def step_loop(gen_fn):
            for _ in gen_fn():
                pass

        def direct(loop, arg) -> float:
            t0 = perf_counter()
            loop(arg)
            return (perf_counter() - t0) / calls

        def traced(loop, callee) -> tuple[float, float]:
            with self.span("calibrate"):
                self.wrap("parent", loop)(self.wrap("child", callee))
            recs = self.records.pop("calibrate")
            return recs["parent"][2] / calls, recs["child"][1] / calls

        self.call_cost = self.step_cost = (0.0, 0.0)
        samples = []
        for _ in range(repeats):
            bare = direct(empty_loop, None)
            row = []
            for loop, callee in ((call_loop, noop), (step_loop, steps)):
                plain = direct(loop, callee)
                parent, child = traced(loop, callee)
                row += [child - (plain - bare), parent - bare]
            samples.append(row)
        inner_call, outer_call, inner_step, outer_step = (
            max(0.0, statistics.median(column)) for column in zip(*samples))
        self.call_cost = (inner_call, outer_call)
        self.step_cost = (inner_step, outer_step)

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for module in MODULES:
            for attr, obj in vars(module).items():
                if attr.startswith("_") and attr not in PRIVATE.get(short(module), ()):
                    continue
                defined_here = getattr(obj, "__module__", None) == module.__name__
                if defined_here and (inspect.isfunction(obj) or hasattr(obj, "cache_clear")):
                    wrappers[id(obj)] = self.wrap(f"{short(module)}.{attr}", obj)
        for name in QT_METHODS:
            fn = qpoly.QT.__dict__.get(name)
            if fn is not None:
                self._set(qpoly.QT, name, self.wrap(f"qpoly.QT.{name.strip('_')}", fn))
        # names imported into another module share the defining module's wrapper
        for module in MODULES:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._set(module, attr, wrappers[id(obj)])
        for module, attr in REGISTRIES:
            registry = getattr(module, attr, None) or {}
            for key, value in registry.items():
                if isinstance(value, dict):
                    for name, fn in value.items():
                        self._setitem(value, name, wrappers.get(id(fn), fn))
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        self._setitem(value, i, self._swap(item, wrappers))
                else:
                    self._setitem(registry, key, self._swap(value, wrappers))

    @staticmethod
    def _swap(value, wrappers):
        if isinstance(value, tuple):
            return tuple(wrappers.get(id(v), v) for v in value)
        return wrappers.get(id(value), value)

    def _set(self, obj, attr, value) -> None:
        old = getattr(obj, attr)
        self._undo.append(lambda: setattr(obj, attr, old))
        setattr(obj, attr, value)

    def _setitem(self, container, key, value) -> None:
        old = container[key]
        self._undo.append(lambda: container.__setitem__(key, old))
        container[key] = value

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- summaries over a set of spans
    def totals(self, spans) -> dict[str, list]:
        out: dict[str, list] = {}
        for span in spans:
            for name, rec in self.records.get(span, {}).items():
                acc = out.setdefault(name, [0, 0.0, 0.0, 0])
                for i in range(4):
                    acc[i] += rec[i]
        return out
