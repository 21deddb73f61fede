"""In-memory spans around critfact's public functions, for the traced run.

The tracer wraps each function at every binding its callers use: a
``from .periods import local_periods`` copies the function into the
importing module, so every ``critfact`` module attribute that *is* the
original function gets the wrapper.  (``critfact.verify`` on the package
is the re-exported function; modules are reached through ``sys.modules``.)

A span is (name, start, end, parent) in flat arrays.  A layer's self time
is its spans' duration minus the part covered by their child spans.
Spans made inside ``multiprocessing`` workers stay in the workers and are
lost; the pool layer is measured from the parent.
"""

from __future__ import annotations

import resource
import sys
import time
from array import array
from collections import Counter

# (module, attribute, layer name); each layer's metrics are named after it.
LAYERS = (
    ("critfact.periods", "local_periods", "periods.local_periods"),
    ("critfact.periods", "local_periods_scan", "periods.local_periods_scan"),
    ("critfact.periods", "profile", "periods.profile"),
    ("critfact.periods", "profile_json_dict", "periods.profile_json_dict"),
    ("critfact.words", "border_array", "words.border_array"),
    ("critfact.squarefree", "square_free_range", "squarefree.enumerate"),
    ("critfact.squarefree", "square_free_words", "squarefree.enumerate"),
    ("critfact.squarefree", "extend_square_free", "squarefree.extend_square_free"),
    ("critfact.squarefree", "is_square_free", "squarefree.is_square_free"),
    ("critfact.squarefree", "find_square", "squarefree.find_square"),
    ("critfact.squarefree", "has_square", "squarefree.has_square"),
    ("critfact.thue", "m_prefix", "thue.m_prefix"),
    ("critfact.verify", "random_square_free", "verify.random_square_free"),
    ("critfact.verify", "verify_many", "verify.suite"),
    ("critfact.verify", "verify_alpha_extremal", "verify.suite"),
    ("critfact.verify", "verify_beta_eta", "verify.suite"),
    ("critfact.verify", "verify_wx_density", "verify.suite"),
    ("critfact.verify", "Pool", "verify.pool"),
    ("critfact.cli", "run", "cli.run"),
)


def children_cpu() -> float:
    """User + system CPU seconds of the reaped child processes."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


class Tracer:
    """Records spans and counts while installed; ``drain`` aggregates them."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def open(self, layer_id: int) -> int:
        i = len(self._name)
        self._name.append(layer_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self._end[i] = time.perf_counter()
        self._stack.pop()

    def drain(self) -> Counter:
        """Per-layer totals of the spans recorded since the last drain:
        ``<layer>.calls``, ``<layer>.self_s``, ``<layer>.wall_s`` and
        ``<parent>><child>.calls``, plus the counts.  Clears both."""
        if self._stack:
            raise RuntimeError("drain with open spans")
        n = len(self._name)
        dur = [self._end[i] - self._start[i] for i in range(n)]
        covered = [0.0] * n
        out: Counter = Counter()
        names = self._names
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                covered[p] += dur[i]
                out[f"{names[self._name[p]]}>{names[self._name[i]]}.calls"] += 1
        for i in range(n):
            name = names[self._name[i]]
            out[f"{name}.calls"] += 1
            out[f"{name}.wall_s"] += dur[i]
            out[f"{name}.self_s"] += dur[i] - covered[i]
        out.update(self.counts)
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        self.counts = Counter()
        return out

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, layer: str, fn):
        lid = self._layer_id(layer)

        def traced(*args, **kwargs):
            i = self.open(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    def _wrap_extend(self, fn):
        lid = self._layer_id("squarefree.extend_square_free")

        def traced(w, a):
            i = self.open(lid)
            try:
                ok = fn(w, a)
            finally:
                self.close(i)
            if ok:
                self.counts["squarefree.extend_square_free.accepted"] += 1
            return ok

        return traced

    def _wrap_letters(self, layer: str, fn):
        """Counts the letters of every word returned."""
        lid = self._layer_id(layer)

        def traced(*args, **kwargs):
            i = self.open(lid)
            try:
                w = fn(*args, **kwargs)
            finally:
                self.close(i)
            self.counts[f"{layer}.letters"] += len(w)
            return w

        return traced

    def _wrap_top_level(self, layer: str, fn):
        """Spans only the outermost call; the recursion runs unwrapped."""
        lid = self._layer_id(layer)
        inside = False

        def traced(*args, **kwargs):
            nonlocal inside
            if inside:
                return fn(*args, **kwargs)
            inside = True
            i = self.open(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
                inside = False

        return traced

    def _wrap_enumerate(self, layer: str, fn):
        """Spans each ``next()`` on the returned generator."""
        tracer, lid = self, self._layer_id(layer)

        class TracedIter:
            def __init__(self, it):
                self._it = it

            def __iter__(self):
                return self

            def __next__(self):
                i = tracer.open(lid)
                try:
                    w = next(self._it)
                finally:
                    tracer.close(i)
                tracer.counts[f"{layer}.words"] += 1
                return w

        def traced(*args, **kwargs):
            return TracedIter(fn(*args, **kwargs))

        return traced

    def _wrap_pool(self, layer: str, pool_factory):
        """Spans a ``with Pool(k) as pool:`` block from creation to exit and
        records its children's CPU and ``k`` x wall seconds."""
        tracer, lid = self, self._layer_id(layer)

        class TracedPool:
            def __init__(self, processes=None, *args, **kwargs):
                self._span = tracer.open(lid)
                self._t0, self._cpu0 = time.perf_counter(), children_cpu()
                self._jobs = processes
                try:
                    self._pool = pool_factory(processes, *args, **kwargs)
                except BaseException:
                    tracer.close(self._span)
                    raise

            def __enter__(self):
                return self._pool.__enter__()

            def __exit__(self, *exc):
                try:
                    return self._pool.__exit__(*exc)
                finally:
                    # Pool.__exit__ terminates and joins the workers, so
                    # their CPU is in RUSAGE_CHILDREN by now.
                    tracer.close(self._span)
                    wall = time.perf_counter() - self._t0
                    tracer.counts[f"{layer}.cpu_s"] += children_cpu() - self._cpu0
                    tracer.counts[f"{layer}.jobs_wall_s"] += self._jobs * wall

        return TracedPool

    def _wrapper(self, attr: str, layer: str, fn):
        if attr == "Pool":
            return self._wrap_pool(layer, fn)
        if attr in ("square_free_range", "square_free_words"):
            return self._wrap_enumerate(layer, fn)
        if attr == "extend_square_free":
            return self._wrap_extend(fn)
        if attr == "has_square":
            return self._wrap_top_level(layer, fn)
        if attr in ("m_prefix", "random_square_free"):
            return self._wrap_letters(layer, fn)
        return self._wrap(layer, fn)

    # -- install -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function at every critfact binding of it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "critfact" or name.startswith("critfact.")]
        for mod_name, attr, layer in LAYERS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrapper(attr, layer, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patches):
            setattr(mod, key, orig)
        self._patches = []
