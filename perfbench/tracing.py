"""Outside-in tracing of bfel's public functions.

The tracer wraps public module attributes and `Dataset` methods by
rebinding them from the benchmark's side; nothing in `src/` changes. A
name bound into another module by `from ... import` is rebound there too,
so a call through either binding is counted. Private names (leading
underscore) are never wrapped. Spans are kept in memory as
(name, start, end, parent) and only aggregated or written at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("models", "data", "fedcurv", "fedavg", "ledger", "gossip",
           "simulator", "cli")
CLASSES = {"data": ("Dataset",)}


def _public_functions(namespace, owner_name):
    """Public plain functions defined in `namespace` (a module or class)."""
    for name, obj in vars(namespace).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ == owner_name:
            yield name, obj


class Tracer:
    """Wraps bfel's public functions; records spans while `active`."""

    def __init__(self):
        self.modules = {m: importlib.import_module(f"bfel.{m}") for m in MODULES}
        self.spans = []  # [name, start, end, parent, outermost]
        self.active = False
        self._stack = []
        self._depth = {}
        self._saved = []  # (namespace, attribute, original)
        self.wrapped = set()

    # -- installing and removing the wrappers --------------------------------

    def install(self):
        if self._saved:
            return
        targets = []  # (span name, namespace, attribute, original)
        for short, mod in self.modules.items():
            for attr, fn in _public_functions(mod, mod.__name__):
                targets.append((f"{short}.{attr}", mod, attr, fn))
            for cls_name in CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, fn in _public_functions(cls, mod.__name__):
                    targets.append((f"{short}.{cls_name}.{attr}", cls, attr, fn))
        wrappers = {id(fn): self._wrap(name, fn) for name, _, _, fn in targets}
        for name, namespace, attr, fn in targets:
            self._rebind(namespace, attr, wrappers[id(fn)])
            self.wrapped.add(name)
        # `from ... import` bindings in other modules of the package
        originals = {id(fn): fn for _, _, _, fn in targets}
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if originals.get(id(obj)) is obj:
                    self._rebind(mod, attr, wrappers[id(obj)])

    def _rebind(self, namespace, attr, wrapper):
        self._saved.append((namespace, attr, vars(namespace)[attr]))
        setattr(namespace, attr, wrapper)

    def uninstall(self):
        while self._saved:
            namespace, attr, original = self._saved.pop()
            setattr(namespace, attr, original)

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:  # each resumption of the generator is one span
                    try:
                        item = self._call(name, next, (gen,), {})
                    except StopIteration:
                        return
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return wrapper

    def _call(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        depth = self._depth.get(name, 0)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                depth == 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._depth[name] = depth + 1
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._depth[name] = depth

    # -- results ---------------------------------------------------------------

    def stats(self, first=0):
        """{name: {"calls", "self_s", "total_s"}} over spans[first:].

        Self time is a span's duration minus its children's; total time
        counts only the outermost span of a name, so recursion is not
        counted twice.
        """
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        out = {}
        for i, (name, start, end, _, outermost) in enumerate(spans):
            s = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            s["calls"] += 1
            s["self_s"] += (end - start) - child[i]
            if outermost:
                s["total_s"] += end - start
        return out

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent index."""
        with open(path, "w") as f:
            for name, start, end, parent, _ in self.spans:
                f.write(json.dumps([name, start, end, parent]) + "\n")
