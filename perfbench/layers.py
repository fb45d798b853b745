"""Per-layer tracing for the benchmark's traced run.

The simulator is not edited: :func:`install` replaces the names the
program actually calls with wrappers, from outside. Two kinds:

* *span* wrappers record ``(span id, layer, start, end, parent id)``
  per call and keep an open-span stack, so a layer's self time is its
  span's duration minus the time its child spans (and hot calls) cover;
* *hot* wrappers, for calls made hundreds of thousands of times per
  pass (``Network.send``, ``FetchPlanner.plan``), only time and count.
  Their time is still subtracted from the enclosing span, so the self
  times of all layers plus the unattributed rest sum to the traced wall.

Patch targets are the looked-up names: ``compile_trace`` is imported
inside ``TraceStream.compiled`` at call time, so patching
``repro.trace.precompile`` reaches it; ``segment_runs`` and the
``build_*`` functions are module globals of ``repro.hb.skeleton``;
``build_span_timeline`` is imported inside ``run_with_spans``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layers whose self times, with the unattributed rest, make up the
#: traced wall of a pass.
SELF_LAYERS = (
    "trace.load",
    "trace.compile",
    "trace.segment",
    "hb.skeleton",
    "hb.lazy_tape",
    "hb.eager_tape",
    "hb.fetch_plan",
    "protocols.replay",
    "network.send",
    "simulator.sweep",
    "simulator.simulate",
    "obs.span_build",
    "analysis.critical_path",
    "analysis.report",
    "analysis.check",
)


class Tracer:
    """In-memory spans, self times and call counts, keyed by layer name."""

    def __init__(self) -> None:
        #: ``(span id, layer, start, end, parent span id or None)``.
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Inclusive span time split by a tag (the protocol family).
        self.tagged_s: Dict[str, float] = defaultdict(float)
        # Open spans, innermost last: [span id, time covered by children].
        self._stack: List[list] = []
        self._hot: Dict[str, list] = {}
        # Hot time spent while no span was open: [seconds].
        self._hot_outside = [0.0]
        self._undo: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, layer: str, tag: Optional[Callable] = None) -> None:
        """Record a span for every call of ``owner.attr``."""
        original = getattr(owner, attr)
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        calls = self.calls
        tagged = self.tagged_s

        def traced(*args, **kwargs):
            # Every span opened so far is either closed or still open,
            # so this numbers spans in opening order.
            span_id = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[1]
                calls[layer] += 1
                if parent is not None:
                    parent[1] += duration
                spans.append((span_id, layer, start, end, parent[0] if parent else None))
                if tag is not None:
                    tagged[tag(args)] += duration

        self._patch(owner, attr, traced)

    def hot(self, owner, attrs: Tuple[str, ...], layer: str) -> None:
        """Time and count calls of ``owner.<attrs>`` without span records.

        Calls made while another of the same group is running (e.g.
        ``plan`` inside ``plan_run``) belong to the outer call.
        """
        totals = self._hot[layer] = [0.0, 0]
        busy = [False]
        clock = time.perf_counter
        stack = self._stack
        outside = self._hot_outside
        for attr in attrs:
            original = getattr(owner, attr)

            def timed(*args, _original=original, **kwargs):
                if busy[0]:
                    return _original(*args, **kwargs)
                busy[0] = True
                start = clock()
                try:
                    return _original(*args, **kwargs)
                finally:
                    duration = clock() - start
                    busy[0] = False
                    totals[0] += duration
                    totals[1] += 1
                    if stack:
                        stack[-1][1] += duration
                    else:
                        outside[0] += duration

            self._patch(owner, attr, timed)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer, hot layers included."""
        out = dict(self.self_s)
        for layer, (seconds, _count) in self._hot.items():
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def layer_calls(self) -> Dict[str, int]:
        out = dict(self.calls)
        for layer, (_seconds, count) in self._hot.items():
            out[layer] = out.get(layer, 0) + count
        return out

    def covered_s(self) -> float:
        """Σ root-span durations plus hot time outside every span.

        Summed from the span records, not from the self-time ledgers, so
        it equals Σ :meth:`layer_self_s` only if the self-time accounting
        is right.
        """
        roots = sum(end - start for _id, _name, start, end, parent in self.spans
                    if parent is None)
        return roots + self._hot_outside[0]

    def inclusive_under(self, layer: str, ancestor: str) -> Tuple[float, float]:
        """``(Σ ancestor spans, Σ layer spans directly under one)`` in seconds."""
        layers = {span_id: name for span_id, name, _s, _e, _p in self.spans}
        outer = inner = 0.0
        for _id, name, start, end, parent in self.spans:
            if name == ancestor:
                outer += end - start
            elif name == layer and parent is not None and layers.get(parent) == ancestor:
                inner += end - start
        return outer, inner


def install(tracer: Tracer) -> None:
    """Wrap the public entry point of every simulator layer."""
    from repro.analysis import checker, critical_path, epoch_report
    from repro.hb import index, skeleton
    from repro.network import network
    from repro.obs import spans
    from repro.protocols.lazy_base import LazyProtocol
    from repro.simulator import engine, sweep
    from repro.trace import codec, precompile

    def family(args) -> str:
        return "lazy" if isinstance(args[0].protocol, LazyProtocol) else "eager"

    tracer.span(codec, "load_binary", "trace.load")
    tracer.span(precompile, "compile_trace", "trace.compile")
    tracer.span(skeleton, "segment_runs", "trace.segment")
    tracer.span(skeleton, "build_skeleton", "hb.skeleton")
    tracer.span(skeleton, "build_lazy_tape", "hb.lazy_tape")
    tracer.span(skeleton, "build_eager_tape", "hb.eager_tape")
    tracer.hot(index.FetchPlanner, ("plan", "plan_run"), "hb.fetch_plan")
    tracer.span(engine.Engine, "run", "protocols.replay", tag=family)
    tracer.hot(network.Network, ("send",), "network.send")
    tracer.span(sweep, "run_sweep", "simulator.sweep")
    tracer.span(engine, "simulate", "simulator.simulate")
    tracer.span(spans, "build_span_timeline", "obs.span_build")
    tracer.span(critical_path, "analyze_critical_path", "analysis.critical_path")
    tracer.span(epoch_report, "format_report", "analysis.report")
    tracer.span(checker, "check_protocol", "analysis.check")
