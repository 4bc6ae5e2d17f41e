"""Span tracing of the library's public functions, applied from outside.

Every public function of the traced modules is replaced by a wrapper in every
``bikripke`` module namespace that holds it, so calls the library makes to
itself are traced too (``controls`` imports ``eval_mask`` by name, and
``semantics`` imports ``decide`` inside functions).  ``Frame.props`` is a
cached property and is wrapped where the class defines it.

Spans stay in memory (label, parent, start, end) and are written out once the
run is over; self time is a span's duration minus that of its direct
children, which on one thread never overlap.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import Counter
from functools import cached_property

MODULES = ("formula", "frame", "semantics", "theories", "controls")


def _route_name(how: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in how.lower())


class Tracer:
    def __init__(self):
        self.on = False
        self.labels: dict[str, int] = {}
        self.parent = array("l")
        self.label = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.routes: Counter = Counter()
        self.cm_worlds: Counter = Counter()
        self.simulate_ok = 0

    def _label_id(self, name: str) -> int:
        got = self.labels.get(name)
        if got is None:
            got = self.labels[name] = len(self.labels)
        return got

    def _open(self, label: str) -> int:
        sid = len(self.start)
        self.parent.append(self.stack[-1])
        self.label.append(self._label_id(label))
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int, label: str | None = None) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()
        if label is not None:
            self.label[sid] = self._label_id(label)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, qualname: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(qualname, fn)
        observe = _OBSERVERS.get(qualname)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            sid = tracer._open(qualname)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(sid)
                if observe is not None:
                    observe(tracer, args, kwargs, None, exc)
                raise
            label = observe(tracer, args, kwargs, out, None) if observe else None
            tracer._close(sid, label)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _wrap_generator(self, qualname: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if not tracer.on:
                    yield from it
                    return
                sid = tracer._open(qualname)
                try:
                    item = next(it)
                except StopIteration:
                    tracer._close(sid)
                    return
                except BaseException:
                    tracer._close(sid)
                    raise
                tracer._close(sid)
                yield item

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> list[str]:
        """Wrap every public function of the traced modules and rebind it in
        each bikripke module that holds it; returns the traced names."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "bikripke" or name.startswith("bikripke.")}
        replaced: dict[int, object] = {}
        names = []
        for short in MODULES:
            mod = mods[f"bikripke.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if id(obj) not in replaced:
                    replaced[id(obj)] = self.wrap(f"{short}.{obj.__name__}", obj)
                    names.append(f"{short}.{obj.__name__}")
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and not inspect.ismodule(obj):
                    setattr(mod, attr, replaced[id(obj)])
        frame_cls = mods["bikripke.frame"].Frame
        props = vars(frame_cls)["props"]
        wrapped = cached_property(self.wrap("frame.props", props.func))
        wrapped.__set_name__(frame_cls, "props")
        setattr(frame_cls, "props", wrapped)
        names.append("frame.props")
        return sorted(names)

    # -- results -----------------------------------------------------------

    def label_names(self) -> dict[int, str]:
        return {v: k for k, v in self.labels.items()}

    def span_self_times(self) -> list[float]:
        """Each span's duration minus its direct children's."""
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write(self, path: str) -> None:
        names = self.label_names()
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{names[self.label[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


# -- observers: derive labels and counters from a call's arguments and result

def _observe_decide(tracer, args, kwargs, out, exc):
    want = kwargs.get("want_countermodel", args[3] if len(args) > 3 else True)
    cm = getattr(out, "countermodel", None)
    if cm is not None:
        tracer.cm_worlds[cm.frame.n] += 1
    return "theories.decide.cm" if want else "theories.decide.verdict"


def _observe_ml_status(tracer, args, kwargs, out, exc):
    if out is not None:
        tracer.routes[_route_name(out.how)] += 1
    return None


def _observe_simulate(tracer, args, kwargs, out, exc):
    if exc is None:
        tracer.simulate_ok += 1
    return None


_OBSERVERS = {
    "theories.decide": _observe_decide,
    "semantics.ml_status": _observe_ml_status,
    "controls.simulate_countermodel": _observe_simulate,
}
