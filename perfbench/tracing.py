"""Outside-in tracing: wrap the public functions of every cycpsi module, plus
the per-check expanders and evaluators, and record spans in memory.

Nothing inside the package changes. Each wrapped function is replaced in
every module namespace that bound it (``verifier``, ``cli`` and
``coefficients`` all import sums by name), and cached functions keep
``cache_info`` / ``cache_clear`` so ``coefficients.clear_caches()`` still
works. Spans are (id, parent, name, start, end) on a per-thread stack; the
first ``span_cap`` are kept for writing out, and every span feeds the
per-name totals (calls, inclusive and self seconds) whatever the cap.

Only the calling process is traced. A forked pool worker inherits the
wrappers but runs them as plain calls, so a pooled sweep has parent-side
spans only.
"""

import dataclasses
import importlib
import inspect
import itertools
import json
import os
import threading
from time import perf_counter

MODULES = ("exactmath", "coefficients", "psi_series", "verifier", "cli")


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.items: dict[str, int] = {}  # generator name -> items produced
        self.cache_totals: dict[str, list] = {}  # name -> [hits, misses]
        self.cache_peak_entries = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._cached: dict[str, object] = {}  # name -> the cached function
        self.active = True
        os.register_at_fork(after_in_child=self._deactivate)

    def _deactivate(self) -> None:
        self.active = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        frame = [next(self._ids), 0.0]
        stack.append(frame)
        return stack, frame, perf_counter()

    def _close(self, name: str, stat: list, stack: list, frame: list, start: float) -> None:
        end = perf_counter()
        stack.pop()
        duration = end - start
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[1]
        parent = 0
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
        if len(self.spans) < self.span_cap:
            self.spans.append((frame[0], parent, name, start, end))
        else:
            self.dropped += 1

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name: str, fn):
        stat = self._stat(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack, frame, start = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, stat, stack, frame, start)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
            # Only the coefficient caches are reported (and bounded by clear_caches).
            if name.startswith("coefficients."):
                fn.cache_clear()  # count from zero
                self._cached[name] = fn
                self.cache_totals[name] = [0, 0]

                def cache_clear():
                    self.fold_cache_stats()
                    fn.cache_clear()

                traced.cache_clear = cache_clear
        return traced

    def wrap_generator(self, name: str, fn):
        """Trace a generator function: one span per item produced."""
        stat = self._stat(name)
        items = self.items
        items.setdefault(name, 0)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                yield from fn(*args, **kwargs)
                return
            it = iter(fn(*args, **kwargs))
            while True:
                stack, frame, start = tracer._open()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(name, stat, stack, frame, start)
                items[name] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def fold_cache_stats(self) -> None:
        """Move the live cache counters into the totals; call before a clear and at the end."""
        entries = 0
        for name, fn in self._cached.items():
            info = fn.cache_info()
            self.cache_totals[name][0] += info.hits
            self.cache_totals[name][1] += info.misses
            entries += info.currsize
        self.cache_peak_entries = max(self.cache_peak_entries, entries)

    def write_spans(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, spans_kept=len(self.spans), spans_dropped=self.dropped)) + "\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield attr, obj


def install(tracer: Tracer, package) -> None:
    """Wrap every public function of the package's modules in every namespace binding it."""
    modules = {short: importlib.import_module(f"{package.__name__}.{short}") for short in MODULES}
    replacements = {}
    for short, module in modules.items():
        for attr, fn in _public_functions(module):
            replacements[id(fn)] = (fn, tracer.wrap(f"{short}.{attr}", fn))
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            hit = replacements.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])

    verifier = modules["verifier"]
    for check_id, check in list(verifier.CHECKS.items()):
        verifier.CHECKS[check_id] = dataclasses.replace(
            check,
            expand=tracer.wrap_generator("verifier.expand", check.expand),
            evaluate=tracer.wrap(f"verifier.evaluate.{check_id}", check.evaluate),
        )
    verifier._expand_rem1_2 = tracer.wrap_generator("verifier.expand", verifier._expand_rem1_2)
    verifier._margin_rem1_2 = tracer.wrap("verifier.evaluate.rem1.2", verifier._margin_rem1_2)
