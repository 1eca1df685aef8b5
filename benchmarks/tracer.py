"""In-memory span tracer that wraps lidarmoe functions from the outside.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the root). Spans are appended in the order they are
opened, so a parent always precedes its children. The tracer patches every
module attribute of the ``lidarmoe`` package that holds a wrapped function
(``pipeline`` imports names directly, so ``lidarmoe.pipeline.voxelize`` is
patched alongside ``lidarmoe.geometry.voxelize``) and restores the
originals on :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT = range(4)


class WrapError(RuntimeError):
    """A method to wrap is not defined on the class named for it."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self._stack = [-1]
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), math.nan, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` timed as span ``name``; ``before(tracer, args, kwargs)``
        runs ahead of the span and ``after(tracer, args, kwargs, result)``
        after it, both outside the timed interval."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def patch_function(self, package: str, module: str, attr: str, make_wrapper):
        """Replace ``module.attr`` in every ``package`` module that binds it."""
        home = sys.modules[f"{package}.{module}"]
        original = getattr(home, attr)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)
        return original

    def patch_method(self, cls, attr: str, make_wrapper):
        original = cls.__dict__.get(attr)
        if original is None:
            raise WrapError(f"{cls.__qualname__}.{attr} is not defined on the class")
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))
        return original

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- output --------------------------------------------------------------

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(0.0, (end - start) - covered))
    return out


def nearest_ancestor(spans, names) -> list[int]:
    """Index of the closest enclosing span (itself included) named in
    ``names``, or -1; parents precede children, so one pass suffices."""
    owner = []
    for i, span in enumerate(spans):
        if span[NAME] in names:
            owner.append(i)
        else:
            owner.append(owner[span[PARENT]] if span[PARENT] >= 0 else -1)
    return owner
