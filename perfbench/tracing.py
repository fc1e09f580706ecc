"""Spans around the calls into each module of the becr package.

Tracing is installed from outside the package: every module-level name in
``becr`` and its submodules that refers to one of the traced public
functions is rebound to a wrapper for the duration of a traced pipeline,
so calls made by the package itself (``becr`` calling
``minimal_generators``, ``run_comparison`` calling ``build_covers``) are
seen as well.  ``FormalContext.close_attrs`` is counted, not spanned: it
runs far too often for a span per call.  ``wrapper_costs`` measures what
one span and one count add to a call, so that the tracing overhead of a
pipeline can be estimated from its span and closure counts.

Spans live in memory.  Each records its request (one pipeline), its
parent span, its name and its start and end in nanoseconds.  A new request
drops the spans of the previous one, which keeps memory to one pipeline's
spans; the caller reduces each request to per-layer figures first.
"""
from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# module.function, in pipeline order
TRACED = (
    "context.parse_cxt",
    "context.parse_fimi",
    "lattice.enumerate_concepts",
    "lattice.build_covers",
    "relevance.becr",
    "relevance.alpha_term",
    "generators.minimal_generators",
    "relevance.stability",
    "bench.run_comparison",
    "bench.emit_csv",
)


class Tracer:
    def __init__(self):
        # (request, span id, parent id or -1, name, start ns, end ns)
        self.spans: list[tuple] = []
        self.closures = 0  # close_attrs calls in the request
        self._stack: list[int] = []
        self._request = -1

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self._request, sid, parent, name, start, end)

        return traced

    def _count(self, fn):
        def counted(ctx, attrs):
            self.closures += 1
            return fn(ctx, attrs)

        return counted

    @contextmanager
    def request(self, becr, request: int):
        """Trace one pipeline: rebind the traced names, restore them after."""
        self._request = request
        self.spans.clear()
        self.closures = 0
        modules = [
            m for n, m in sys.modules.items()
            if n == "becr" or n.startswith("becr.")
        ]
        patched = []
        for qualified in TRACED:
            module_name, fname = qualified.split(".")
            original = getattr(sys.modules[f"becr.{module_name}"], fname)
            wrapper = self._wrap(qualified, original)
            for mod in modules:
                if getattr(mod, fname, None) is original:
                    patched.append((mod, fname, original))
                    setattr(mod, fname, wrapper)
        cls = becr.FormalContext
        close_attrs = cls.close_attrs
        cls.close_attrs = self._count(close_attrs)
        try:
            with self._root():
                yield
        finally:
            cls.close_attrs = close_attrs
            for mod, fname, original in reversed(patched):
                setattr(mod, fname, original)

    @contextmanager
    def _root(self):
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (self._request, sid, -1, "pipeline", start, end)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("request", "id", "parent", "name", "start_ns", "end_ns")
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def wrapper_costs(calls: int = 20000, repeats: int = 7) -> tuple[float, float]:
    """Seconds that one span and one counted closure add to a call.

    Each is the fastest of ``repeats`` loops of ``calls`` calls through the
    wrapper, less the fastest loop of bare calls.
    """
    def noop(ctx=None, attrs=None):
        return None

    def per_call(fn, probe):
        best = float("inf")
        for _ in range(repeats):
            probe.spans.clear()
            start = time.perf_counter_ns()
            for _ in range(calls):
                fn(None, None)
            best = min(best, time.perf_counter_ns() - start)
        probe.spans.clear()
        return best / calls / 1e9

    probe = Tracer()
    bare = per_call(noop, probe)
    span = per_call(probe._wrap("probe", noop), probe) - bare
    count = per_call(probe._count(noop), probe) - bare
    return max(span, 0.0), max(count, 0.0)


def self_times(spans: list[tuple]) -> dict[str, list[int]]:
    """Per span name, the self time in ns of each span, in start order.

    A span's self time is its duration minus the durations of its children;
    spans of one thread nest, so children never overlap.
    """
    child = {}
    for _, _, parent, _, start, end in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0) + (end - start)
    out: dict[str, list[int]] = {}
    for _, sid, _, name, start, end in spans:
        out.setdefault(name, []).append(end - start - child.get(sid, 0))
    return out
