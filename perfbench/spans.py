"""Span tracing of the program's public functions, installed from outside.

``Tracer.install`` replaces each public function of the package's modules,
and the MeshIndex lookups, with a wrapper that records a span (name, start,
end, parent span, query id, kind) in memory.  Names re-bound by importing
modules (``gradient.enumerate_combinations``, ``smooth.find_root``, ...) are
replaced too.  ``uninstall`` puts every original back.  A function that is
not there is listed in ``absent``; it is not an error.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from pathlib import Path

PACKAGE = "gradsurf"
MODULES = ("model", "solvers", "neighbors", "gradient", "smooth", "layers", "io", "cli", "bench")
METHODS = {"model": {"MeshIndex": ("point_at", "cell_of")}}
# outermost calls of these start a new query id
QUERY_ENTRIES = ("gradient.evaluate_gradient", "smooth.evaluate_smooth", "layers.evaluate_layers")
NEWTON_HIST_TOP = 5  # iteration counts >= this share the last bucket
MARKER = "_perfbench_span"


def _read_proc_io() -> tuple:
    """(bytes read, bytes written) by this process so far, and the size of this read.

    A read of the counters is counted once it has returned, so a later
    reading includes the bytes of this one.
    """
    text = Path("/proc/self/io").read_bytes()
    fields = dict(line.split(b": ") for line in text.splitlines())
    return int(fields[b"rchar"]), int(fields[b"wchar"]), len(text)


class Tracer:
    def __init__(self, only=None):
        self.only = only
        self.names: list = []  # span name per name id
        self.spans: list = []  # (name id, start, end, parent, query id, kind id)
        self.counts: Counter = Counter()
        self.newton_max = 0
        self.kind = -1
        self.absent: list = []
        self._stack: list = []
        self._qid = -1
        self._next_qid = 0
        self._entry_depth = 0
        self._io_depth = 0
        self._patches: list = []

    # -- discovery and patching ------------------------------------------

    def targets(self) -> dict:
        """Span name -> original function, for everything that will be wrapped."""
        found = {}
        for m in MODULES:
            mod = sys.modules.get(f"{PACKAGE}.{m}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    found[f"{m}.{attr}"] = obj
            for cls_name, methods in METHODS.get(m, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    fn = vars(cls).get(meth) if cls is not None else None
                    if inspect.isfunction(fn):
                        found[f"{m}.{cls_name}.{meth}"] = fn
        if self.only is not None:
            found = {k: v for k, v in found.items() if k in self.only}
        return found

    def install(self, expected=()) -> None:
        targets = self.targets()
        self.absent = sorted(set(expected) - set(targets))
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets.items()}
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(mod, attr, obj, wrappers[id(obj)])
        for m, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(sys.modules.get(f"{PACKAGE}.{m}"), cls_name, None)
                for meth in methods:
                    fn = vars(cls).get(meth) if cls is not None else None
                    if id(fn) in wrappers:
                        self._patch(cls, meth, fn, wrappers[id(fn)])

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        entry = name in QUERY_ENTRIES
        counts_io = name.startswith("io.")
        if name == "gradient.evaluate_gradient":
            observe = self._observe_gradient(inspect.signature(fn))
        else:
            observe = {"smooth.evaluate_smooth": self._observe_smooth,
                       "solvers.solve_linear_system": self._observe_solve}.get(name)

        def wrapper(*args, **kwargs):
            if entry:
                if self._entry_depth == 0:
                    self._qid = self._next_qid
                    self._next_qid += 1
                self._entry_depth += 1
            io_before = None
            if counts_io:
                if self._io_depth == 0:
                    io_before = _read_proc_io()
                self._io_depth += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, self._qid, self.kind)
                if entry:
                    self._entry_depth -= 1
                    if self._entry_depth == 0:
                        self._qid = -1
                if counts_io:
                    self._io_depth -= 1
                    if io_before is not None:
                        r, w, _ = _read_proc_io()
                        self.counts["io.bytes_read"] += r - io_before[0] - io_before[2]
                        self.counts["io.bytes_written"] += w - io_before[1]
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(wrapper, MARKER, name)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _observe_gradient(self, sig):
        def observe(args, kwargs, est):
            arguments = sig.bind(*args, **kwargs).arguments
            plan = arguments.get("plan")
            requested = len(plan.simplexes) if plan is not None else arguments.get("combinations", 1)
            self.counts["gradient.combinations_requested"] += requested
            self.counts["gradient.combinations_used"] += est.combinations_used
        return observe

    def _observe_smooth(self, args, kwargs, est):
        for it in est.newton_iterations:
            self.counts["smooth.newton_iterations.solves"] += 1
            self.counts["smooth.newton_iterations.total"] += it
            self.counts[f"smooth.newton_iterations.hist-{min(it, NEWTON_HIST_TOP)}"] += 1
            self.newton_max = max(self.newton_max, it)
        for flag in est.flags:
            for part in flag.split("+"):
                self.counts[f"smooth.flag.{part}"] += 1
        self.counts["smooth.extrapolated_queries"] += bool(est.extrapolated)

    def _observe_solve(self, args, kwargs, result):
        system = args[0] if args else next(iter(kwargs.values()))
        A = getattr(system, "A", system)
        n = A.shape[-1]
        systems = 1
        for d in A.shape[:-2]:
            systems *= d
        self.counts["solvers.solve_linear_system.computed_flops"] += systems * 2 * n**3 / 3

    # -- summaries -------------------------------------------------------

    def mark(self) -> int:
        return len(self.spans)

    def summarize(self, start: int = 0, end=None) -> dict:
        """Calls, total and self seconds per span name, and query ids, over spans[start:end]."""
        spans = self.spans[start:end]
        child = Counter()
        for _, t0, t1, parent, _, _ in spans:
            if parent >= start:
                child[parent] += t1 - t0
        calls, total, self_s = Counter(), Counter(), Counter()
        by_kind = {}
        queries = {}
        for i, (name_id, t0, t1, _, qid, kind) in enumerate(spans, start):
            name = self.names[name_id]
            own = (t1 - t0) - child[i]
            calls[name] += 1
            total[name] += t1 - t0
            self_s[name] += own
            by_kind.setdefault(kind, Counter())[name] += own
            if qid >= 0:
                queries[qid] = kind
        return {"calls": calls, "total_s": total, "self_s": self_s,
                "self_s_by_kind": by_kind, "queries": queries}

    def take_counts(self) -> dict:
        """Exact counters since the last call; resets them."""
        counts = dict(self.counts)
        counts["smooth.newton_iterations.max"] = self.newton_max
        self.counts = Counter()
        self.newton_max = 0
        return counts

    def write_spans(self, path: Path, start: int = 0, end=None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_us\tend_us\tparent\tquery\tkind\n")
            for i, (name_id, t0, t1, parent, qid, kind) in enumerate(self.spans[start:end], start):
                fh.write(f"{i}\t{self.names[name_id]}\t{t0 * 1e6:.3f}\t{t1 * 1e6:.3f}"
                         f"\t{parent}\t{qid}\t{kind}\n")


def leftover_wrappers() -> list:
    """Names of package attributes that are still tracing wrappers."""
    left = []
    for key, mod in list(sys.modules.items()):
        if key != PACKAGE and not key.startswith(PACKAGE + "."):
            continue
        for attr, obj in vars(mod).items():
            if hasattr(obj, MARKER) and callable(obj):
                left.append(f"{key}.{attr}")
            if inspect.isclass(obj):
                left += [f"{key}.{attr}.{a}" for a, v in vars(obj).items()
                         if callable(v) and hasattr(v, MARKER)]
    return left
