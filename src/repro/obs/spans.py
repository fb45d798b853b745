"""Causal span timelines: post-hoc critical-path reconstruction.

The counting simulator reports *totals*; this module reconstructs the
*shape* of a run — a per-processor timeline of weighted spans (compute
chunks, lock acquires, releases, barrier arrive/wait/exit, page and
diff fetches, write faults) linked by happens-before flow edges
(release→acquire grants, barrier broadcasts, write-notice deliveries).
On that weighted DAG the analyzer in
:mod:`repro.analysis.critical_path` computes the critical path and a
stall-attribution breakdown per protocol.

Two pieces:

- :class:`SpanProbe` — a :class:`~repro.obs.probe.RecordingProbe`
  subclass that appends every probe call (begin/end windows, structured
  events, per-message accounting, epoch bumps) to one globally ordered
  record list while delegating to the stock implementations, so the
  metrics snapshot of an instrumented run stays *exact*. Because it
  overrides ``begin``/``end``/``on_message`` and forces ``events``,
  every fast-path certification (``Protocol._probe_fast``,
  ``Network._probe_stages``, the lazy tape bind) declines it
  automatically: span-traced runs replay through the fully emitting
  per-message paths, and **tracing-off runs are untouched** — the
  certified batched kernels never see this class.
- :class:`SpanBuilder` — replays the record stream once, against a
  :class:`SpanCosts` model and the compute profile from
  :func:`repro.hb.skeleton.sync_compute_profile`, advancing one virtual
  clock per processor. Message latencies, diff create/apply costs, and
  word-access costs come from the cost model; lock serialization falls
  out of comparing a requester's (virtual) request arrival with the
  grantor's (virtual) release time, and barrier imbalance from the
  spread of (virtual) arrival times.

Modeling notes (deliberate approximations, documented for the report):

- Each compute chunk is laid down *whole* before the first miss or sync
  window that interrupts it; misses then follow the chunk. The counting
  trace records no intra-chunk positions, so this is the resolution
  floor.
- Fetch servers respond immediately (no queueing at the server), as a
  software-DSM interrupt handler would; the flow edge from the server's
  last span records causality for the Perfetto view without delaying
  the requester.
- Local (same-processor) "messages" are free and invisible, exactly as
  in the counting network.

The builder also re-derives the full 10-column per-epoch traffic rows
from the same record stream; ``SpanTimeline.epoch_rows`` must equal the
run's :class:`~repro.obs.metrics.MetricsRegistry` snapshot exactly —
pinned across all seven protocols by ``tests/test_spans.py``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.probe import MISS_CAUSE, RecordingProbe

logger = logging.getLogger(__name__)

#: Stall-attribution categories, in report order. Every span's duration
#: decomposes exactly into these buckets.
STALL_CATEGORIES = (
    "compute",             # word accesses (the only useful work)
    "diff_create",         # twin comparison at interval close / flush
    "lock_transfer",       # lock request/forward/grant message latency
    "lock_serialization",  # waiting for the grantor's release
    "page_fetch",          # full-page miss round trips
    "diff_fetch",          # diff request/reply latency + diff applies
    "flush",               # eager release/HLRC home flush traffic
    "barrier_transfer",    # barrier arrival/exit message latency
    "barrier_wait",        # idle at a barrier before the last arrival
    "write_fault",         # EW ownership transfer traffic
    "serialization",       # finite-bandwidth wire occupancy + queueing
    "retransmit",          # timeout penalties of dropped messages
    "other",               # unattributed traffic (should stay zero)
)

_UNLOCK_KINDS = frozenset(
    ("WRITE_NOTICE", "UPDATE", "RELEASE_ACK", "OWNER_RECONCILE")
)
_LOCK_REQ_KINDS = frozenset(("LOCK_REQUEST", "LOCK_FORWARD"))
_LOCK_GRANT_KINDS = frozenset(("LOCK_GRANT", "LOCK_NOTICE"))
_DIFF_PULL_KINDS = frozenset(
    (
        "DIFF_REQUEST",
        "DIFF_REPLY",
        "ACQUIRE_DIFF_REQUEST",
        "ACQUIRE_DIFF_REPLY",
        "BARRIER_UPDATE_REQUEST",
        "BARRIER_UPDATE",
    )
)

#: Epoch-row cause sub-columns, mirroring repro.obs.metrics._CAUSE_COLS.
_CAUSE_COLS = {"lock": (4, 5), "barrier": (6, 7), "miss": (8, 9)}
_ROW_WIDTH = 10


@dataclass(frozen=True)
class SpanCosts:
    """Cost constants that weight the span DAG (all in seconds).

    ``message_s``/``byte_s`` are one message's fixed and per-byte wire
    cost; ``access_s`` is the per-word compute cost between
    synchronization points (a DECstation word access is ~50 ns, which
    makes compute visible next to ~1 ms messages without dominating);
    ``diff_create_s``/``diff_apply_s`` are the diff CPU costs. Untimed
    span runs are weighted by these constants; a timed run's message
    weights are the link's measured delays instead. The presets read
    the canonical constants in :data:`repro.network.link.PRESET_CONSTANTS`.
    """

    message_s: float = 1e-3
    byte_s: float = 8e-7
    access_s: float = 5e-8
    diff_create_s: float = 5e-4
    diff_apply_s: float = 2e-4

    @classmethod
    def from_link(cls, link, preset: str = "ethernet_1992") -> "SpanCosts":
        """The span cost model equivalent to a timed-mode link.

        Wire constants come from the :class:`~repro.network.link.LinkModel`
        itself; the diff CPU constants (which the link model does not
        carry — it describes the network, not the processor) come from
        the named preset.
        """
        from repro.network.link import PRESET_CONSTANTS

        constants = PRESET_CONSTANTS[preset]
        return cls(
            message_s=link.overhead_s + link.latency_s,
            byte_s=link.per_byte_s,
            access_s=link.access_s,
            diff_create_s=constants["diff_create_s"],
            diff_apply_s=constants["diff_apply_s"],
        )

    @classmethod
    def from_preset(cls, name: str) -> "SpanCosts":
        """The weights of the named preset's link and processor."""
        from repro.network.link import LinkModel

        return cls.from_link(LinkModel.from_preset(name), preset=name)

    @classmethod
    def ethernet_1992(cls) -> "SpanCosts":
        return cls.from_preset("ethernet_1992")

    def message(self, data_bytes: int, control_bytes: int) -> float:
        """Latency of one counted-or-not network message."""
        return self.message_s + (data_bytes + control_bytes) * self.byte_s


class Span:
    """One weighted interval on one processor's timeline.

    ``pred`` is the *determining* predecessor — the span whose finish
    gates this one's start on the happens-before DAG (same-processor
    program order by default; a remote release/last barrier arrival when
    that is what actually gated progress). ``buckets`` decomposes the
    duration into :data:`STALL_CATEGORIES`.
    """

    __slots__ = ("sid", "proc", "kind", "start", "end", "pred", "buckets", "label", "args")

    def __init__(self, sid, proc, kind, start, end, pred, buckets, label, args=None):
        self.sid = sid
        self.proc = proc
        self.kind = kind
        self.start = start
        self.end = end
        self.pred = pred
        self.buckets = buckets
        self.label = label
        self.args = args

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:
        return (
            f"Span({self.sid}, p{self.proc}, {self.label!r}, "
            f"[{self.start:.6f}, {self.end:.6f}])"
        )


class SpanTimeline:
    """The reconstructed per-processor span DAG of one run."""

    def __init__(self, app: str, protocol: str, n_procs: int, costs: SpanCosts):
        self.app = app
        self.protocol = protocol
        self.n_procs = n_procs
        self.costs = costs
        self.spans: List[Span] = []
        #: Cross-processor causality, (source span id, target span id).
        self.flows: List[Tuple[int, int]] = []
        #: Re-derived per-epoch traffic rows; must equal the run's
        #: MetricsRegistry snapshot field for field.
        self.epoch_rows: List[Dict[str, int]] = []
        #: Sum over barrier episodes of (completion - mean arrival).
        self.barrier_imbalance_s = 0.0
        self.barrier_episodes = 0

    @property
    def makespan(self) -> float:
        """The virtual finish time of the whole run."""
        return max((span.end for span in self.spans), default=0.0)

    def stall_totals(self) -> Dict[str, float]:
        """Processor-seconds per stall category, summed over all spans."""
        totals = dict.fromkeys(STALL_CATEGORIES, 0.0)
        for span in self.spans:
            for category, seconds in span.buckets.items():
                totals[category] += seconds
        return totals

    def proc_spans(self, proc: int) -> List[Span]:
        return [span for span in self.spans if span.proc == proc]

    def __repr__(self) -> str:
        return (
            f"SpanTimeline({self.app!r}, {self.protocol}, {len(self.spans)} spans, "
            f"makespan={self.makespan:.6f}s)"
        )


class SpanProbe(RecordingProbe):
    """A RecordingProbe that additionally keeps the raw call stream.

    Record shapes (plain tuples, in global emission order)::

        ("begin", cause_kind, cause_id)       sync window opens
        ("end",)                              sync window closes
        ("ev", kind, proc, fields_or_None)    one structured event
        ("msg", kind_name, src, dst, data_bytes, control_bytes, counted)
        ("epoch",)                            barrier episode completed

    Every override calls the stock implementation, so metrics stay
    exact; ``events`` is forced True so protocols route all emission
    sites through :meth:`emit` even with no sinks attached — which is
    also what keeps the certified tape/bulk fast paths disengaged.
    """

    def __init__(self, sinks: Optional[Sequence[Any]] = None, metrics=None):
        super().__init__(sinks=sinks, metrics=metrics)
        self.records: List[tuple] = []
        # Protocol.attach_probe caches this as _obs_events; True routes
        # every emission site through emit() and de-certifies the
        # events-off tape fast paths.
        self.events = True

    def emit(self, kind: str, proc: int = -1, **fields: Any) -> None:
        self.records.append(("ev", kind, proc, fields or None))
        super().emit(kind, proc, **fields)

    def begin(self, cause_kind: str, cause_id: int) -> None:
        self.records.append(("begin", cause_kind, cause_id))
        super().begin(cause_kind, cause_id)

    def end(self) -> None:
        self.records.append(("end",))
        super().end()

    def advance_epoch(self) -> None:
        # Appended before the epoch counter bumps: traffic recorded
        # before this marker belongs to the episode it closes, exactly
        # like the stock drain-then-bump order.
        self.records.append(("epoch",))
        super().advance_epoch()

    def on_message(self, kind, src, dst, data_bytes, control_bytes, counted) -> None:
        self.records.append(
            ("msg", kind.name, src, dst, data_bytes, control_bytes, counted)
        )
        super().on_message(kind, src, dst, data_bytes, control_bytes, counted)

    def __repr__(self) -> str:
        return f"SpanProbe(records={len(self.records)}, epoch={self._epoch})"


class SpanBuilder:
    """Single-pass assembly of a :class:`SpanTimeline` from a record stream.

    One virtual clock per processor advances through compute chunks
    (from the sync compute profile), sync windows, and miss contexts in
    global record order. The same pass re-derives the per-epoch traffic
    rows, making the timeline self-auditing against the run's metrics.
    """

    def __init__(
        self,
        records: Sequence[tuple],
        profile: Sequence[Sequence[int]],
        costs: SpanCosts,
        n_procs: int,
        app: str = "",
        protocol: str = "",
        delays: Optional[Sequence[Tuple[float, float, float]]] = None,
    ):
        self.records = records
        self.profile = profile
        self.costs = costs
        self.n_procs = n_procs
        # Measured per-message delays from a timed run (see
        # NetworkTiming.delay_log): ``(total_s, serialization_s,
        # retransmit_s)`` aligned one-to-one with the stream's "msg"
        # records. When present they replace the synthetic
        # ``costs.message`` charge, and the serialization/retransmit
        # portions land in their own stall categories.
        self._delays = delays
        self._delay_idx = 0
        self.timeline = SpanTimeline(app, protocol, n_procs, costs)
        # -- virtual clocks and program-order state --
        self.clock = [0.0] * n_procs
        self.prev: List[Optional[int]] = [None] * n_procs
        self._ptr = [0] * n_procs          # next compute chunk per proc
        self._laid = [False] * n_procs     # current chunk already laid?
        # -- causality state --
        self._release_point: Dict[int, Tuple[float, int]] = {}
        self._episodes: Dict[int, List[Tuple[int, float, int]]] = {}
        # -- parsing state --
        self._window: Optional[Tuple[Tuple[str, int], List[tuple]]] = None
        self._ctx: Optional[Dict[str, Any]] = None
        # -- epoch accounting (mirrors RecordingProbe staging exactly) --
        self._epoch = 0
        self._cause: Tuple[str, int] = MISS_CAUSE
        self._cause_stack: List[Tuple[str, int]] = []
        self._erows: Dict[int, List[int]] = {}

    # -- epoch accounting ----------------------------------------------------

    def _erow(self, epoch: int) -> List[int]:
        row = self._erows.get(epoch)
        if row is None:
            row = self._erows[epoch] = [0] * _ROW_WIDTH
        return row

    def _account_msg(self, data: int, ctrl: int, counted: bool) -> None:
        row = self._erow(self._epoch)
        if counted:
            row[0] += 1
        row[1] += data
        row[2] += ctrl
        cols = _CAUSE_COLS.get(self._cause[0])
        if cols is not None:
            if counted:
                row[cols[0]] += 1
            row[cols[1]] += data

    def _finish_epoch_rows(self) -> None:
        from repro.obs.metrics import EPOCH_FIELDS

        rows = self._erows
        top = max((e for e, row in rows.items() if any(row)), default=0)
        self.timeline.epoch_rows = [
            dict(zip(EPOCH_FIELDS, rows.get(epoch, [0] * _ROW_WIDTH)))
            for epoch in range(top + 1)
        ]

    # -- compute chunks ------------------------------------------------------

    def _ensure_compute(self, proc: int) -> None:
        """Lay the processor's current compute chunk, once, before the
        first record that interrupts it."""
        if self._laid[proc]:
            return
        self._laid[proc] = True
        chunks = self.profile[proc] if proc < len(self.profile) else ()
        k = self._ptr[proc]
        weight = chunks[k] if k < len(chunks) else 0
        if weight:
            dur = weight * self.costs.access_s
            t0 = self.clock[proc]
            sid = self._add_span(
                proc, "compute", t0, t0 + dur, self.prev[proc],
                {"compute": dur}, f"compute ({weight} words)",
            )
            self.clock[proc] = t0 + dur
            self.prev[proc] = sid

    def _end_sync(self, proc: int) -> None:
        self._ptr[proc] += 1
        self._laid[proc] = False

    # -- message costs -------------------------------------------------------

    def _msg_cost(self, data: int, ctrl: int) -> Tuple[float, float, float]:
        """``(total_s, serialization_s, retransmit_s)`` of the next message.

        Consumed exactly once per "msg" record, in stream order — stray
        messages at encounter, window messages at dispatch (which runs
        at the window's "end", before any later record) — so the index
        into the measured delay log stays aligned. Without a delay log
        this is the synthetic ``costs.message`` charge with no
        serialization/retransmit components.
        """
        delays = self._delays
        if delays is None:
            return self.costs.message(data, ctrl), 0.0, 0.0
        index = self._delay_idx
        self._delay_idx = index + 1
        if index < len(delays):
            return delays[index]
        return self.costs.message(data, ctrl), 0.0, 0.0

    # -- span helpers --------------------------------------------------------

    def _add_span(self, proc, kind, start, end, pred, buckets, label, args=None) -> int:
        spans = self.timeline.spans
        sid = len(spans)
        spans.append(Span(sid, proc, kind, start, end, pred, buckets, label, args))
        return sid

    # -- miss / write-fault contexts -----------------------------------------

    def _open_ctx(self, proc: int, kind: str, label: str) -> Dict[str, Any]:
        self._ensure_compute(proc)
        ctx: Dict[str, Any] = {
            "proc": proc,
            "kind": kind,
            "label": label,
            "buckets": {},
            "servers": set(),
        }
        self._ctx = ctx
        return ctx

    def _close_ctx(self) -> None:
        ctx = self._ctx
        if ctx is None:
            return
        self._ctx = None
        proc = ctx["proc"]
        buckets = ctx["buckets"]
        dur = sum(buckets.values())
        t0 = self.clock[proc]
        sid = self._add_span(
            proc, ctx["kind"], t0, t0 + dur, self.prev[proc], buckets, ctx["label"]
        )
        for server in sorted(ctx["servers"]):
            source = self.prev[server] if server < self.n_procs else None
            if server != proc and source is not None:
                self.timeline.flows.append((source, sid))
        self.clock[proc] = t0 + dur
        self.prev[proc] = sid

    def _ctx_add(self, ctx: Dict[str, Any], category: str, seconds: float) -> None:
        buckets = ctx["buckets"]
        buckets[category] = buckets.get(category, 0.0) + seconds

    # -- main pass -----------------------------------------------------------

    def build(self) -> SpanTimeline:
        for rec in self.records:
            tag = rec[0]
            if tag == "msg":
                _, name, src, dst, data, ctrl, counted = rec
                self._account_msg(data, ctrl, counted)
                if self._window is not None:
                    self._window[1].append(rec)
                else:
                    self._stray_msg(name, src, dst, data, ctrl)
            elif tag == "ev":
                kind = rec[1]
                if kind == "page_fault":
                    self._erow(self._epoch)[3] += 1
                if self._window is not None:
                    self._window[1].append(rec)
                else:
                    self._stray_event(rec)
            elif tag == "begin":
                self._close_ctx()
                self._window = ((rec[1], rec[2]), [])
                self._cause_stack.append(self._cause)
                self._cause = (rec[1], rec[2])
            elif tag == "end":
                window = self._window
                self._window = None
                self._cause = self._cause_stack.pop() if self._cause_stack else MISS_CAUSE
                if window is not None:
                    self._dispatch_window(window[0], window[1])
            else:  # "epoch"
                self._epoch += 1
        self._close_ctx()
        for proc in range(self.n_procs):
            self._ensure_compute(proc)  # lay the tail chunks
        self._finish_epoch_rows()
        return self.timeline

    # -- records outside sync windows ----------------------------------------

    def _stray_event(self, rec: tuple) -> None:
        kind, proc, fields = rec[1], rec[2], rec[3] or {}
        ctx = self._ctx
        if kind == "page_fault":
            if ctx is not None and ctx["kind"] == "write_fault" and ctx["proc"] == proc:
                return  # nested fetch inside an EW ownership fault
            self._close_ctx()
            self._open_ctx(proc, "fetch", f"fetch page {fields.get('page', '?')}")
        elif kind == "write_fault":
            self._close_ctx()
            self._open_ctx(proc, "write_fault", f"write fault page {fields.get('page', '?')}")
        elif ctx is not None:
            if kind == "diff_apply":
                self._ctx_add(ctx, "diff_fetch", fields.get("count", 1) * self.costs.diff_apply_s)
            server = fields.get("server")
            if server is not None:
                ctx["servers"].add(server)

    def _stray_msg(self, name: str, src: int, dst: int, data: int, ctrl: int) -> None:
        ctx = self._ctx
        if ctx is None:
            # Traffic with no announcing fault event; attribute to the
            # sender so nothing is silently dropped.
            ctx = self._open_ctx(src, "other", "unattributed traffic")
        cost, ser_s, rtx_s = self._msg_cost(data, ctrl)
        cost -= ser_s + rtx_s
        if name.startswith("PAGE"):
            category = "page_fetch"
        elif name in _DIFF_PULL_KINDS:
            category = "diff_fetch"
        elif ctx["kind"] == "write_fault":
            category = "write_fault"
        else:
            category = "other"
        self._ctx_add(ctx, category, cost)
        if ser_s:
            self._ctx_add(ctx, "serialization", ser_s)
        if rtx_s:
            self._ctx_add(ctx, "retransmit", rtx_s)
        counterpart = dst if src == ctx["proc"] else src
        if counterpart != ctx["proc"]:
            ctx["servers"].add(counterpart)

    # -- sync windows --------------------------------------------------------

    def _dispatch_window(self, cause: Tuple[str, int], wrecs: List[tuple]) -> None:
        marker = None
        for rec in wrecs:
            if rec[0] == "ev" and rec[1] in ("acquire", "release", "barrier_arrive"):
                marker = rec
                break
        if marker is None:
            # Empty window: nothing to place on the timeline, but the
            # delay-log cursor must still pass over its messages.
            for rec in wrecs:
                if rec[0] == "msg":
                    self._msg_cost(rec[4], rec[5])
            return
        if marker[1] == "acquire":
            self._window_acquire(cause[1], marker[2], wrecs)
        elif marker[1] == "release":
            self._window_release(cause[1], marker[2], wrecs)
        else:
            self._window_barrier(cause[1], marker[2], wrecs)

    def _window_acquire(self, lock: int, proc: int, wrecs: List[tuple]) -> None:
        self._ensure_compute(proc)
        costs = self.costs
        close_s = flush_s = transfer_s = grant_s = page_s = diff_s = 0.0
        ser_s = rtx_s = 0.0
        grantor: Optional[int] = None
        for rec in wrecs:
            if rec[0] == "msg":
                _, name, src, dst, data, ctrl, _counted = rec
                cost, m_ser, m_rtx = self._msg_cost(data, ctrl)
                cost -= m_ser + m_rtx
                ser_s += m_ser
                rtx_s += m_rtx
                if name in _LOCK_REQ_KINDS:
                    transfer_s += cost
                    if name == "LOCK_FORWARD":
                        grantor = dst
                elif name in _LOCK_GRANT_KINDS:
                    grant_s += cost
                    if name == "LOCK_GRANT":
                        grantor = src
                elif name in _UNLOCK_KINDS:
                    flush_s += cost  # HLRC home flush at interval close
                elif name.startswith("PAGE"):
                    page_s += cost
                else:
                    diff_s += cost  # acquire-time diff pulls (LU/LH)
            else:  # "ev"
                kind = rec[1]
                if kind == "diff_create":
                    close_s += costs.diff_create_s
                elif kind == "diff_apply":
                    diff_s += ((rec[3] or {}).get("count", 1)) * costs.diff_apply_s
        t0 = self.clock[proc]
        t_request = t0 + close_s + flush_s
        arrival = t_request + transfer_s
        available = arrival
        serial_s = 0.0
        pred = self.prev[proc]
        flow_src: Optional[int] = None
        if grantor is not None and grantor != proc:
            release = self._release_point.get(lock)
            if release is not None:
                available = max(arrival, release[0])
                serial_s = available - arrival
                if serial_s > 0.0:
                    pred = flow_src = release[1]
        end = available + grant_s + page_s + diff_s + ser_s + rtx_s
        buckets: Dict[str, float] = {}
        for category, seconds in (
            ("diff_create", close_s),
            ("flush", flush_s),
            ("lock_transfer", transfer_s + grant_s),
            ("lock_serialization", serial_s),
            ("page_fetch", page_s),
            ("diff_fetch", diff_s),
            ("serialization", ser_s),
            ("retransmit", rtx_s),
        ):
            if seconds:
                buckets[category] = seconds
        sid = self._add_span(
            proc, "acquire", t0, end, pred, buckets, f"acquire L{lock}",
            args={"lock": lock, "grantor": grantor if grantor is not None else proc},
        )
        if flow_src is not None:
            self.timeline.flows.append((flow_src, sid))
        self.clock[proc] = end
        self.prev[proc] = sid
        self._end_sync(proc)

    def _window_release(self, lock: int, proc: int, wrecs: List[tuple]) -> None:
        self._ensure_compute(proc)
        costs = self.costs
        close_s = flush_s = ser_s = rtx_s = 0.0
        for rec in wrecs:
            if rec[0] == "msg":
                cost, m_ser, m_rtx = self._msg_cost(rec[4], rec[5])
                flush_s += cost - m_ser - m_rtx
                ser_s += m_ser
                rtx_s += m_rtx
            elif rec[1] == "diff_create":
                close_s += costs.diff_create_s
        t0 = self.clock[proc]
        end = t0 + close_s + flush_s + ser_s + rtx_s
        buckets = {}
        if close_s:
            buckets["diff_create"] = close_s
        if flush_s:
            buckets["flush"] = flush_s
        if ser_s:
            buckets["serialization"] = ser_s
        if rtx_s:
            buckets["retransmit"] = rtx_s
        sid = self._add_span(
            proc, "release", t0, end, self.prev[proc], buckets, f"release L{lock}",
            args={"lock": lock},
        )
        self.clock[proc] = end
        self.prev[proc] = sid
        self._release_point[lock] = (end, sid)
        self._end_sync(proc)

    def _window_barrier(self, bid: int, proc: int, wrecs: List[tuple]) -> None:
        self._ensure_compute(proc)
        costs = self.costs
        complete_at: Optional[int] = None
        for index, rec in enumerate(wrecs):
            if rec[0] == "ev" and rec[1] == "barrier_complete":
                complete_at = index
                break
        arrive_recs = wrecs if complete_at is None else wrecs[:complete_at]
        close_s = flush_s = arrival_s = ser_s = rtx_s = 0.0
        for rec in arrive_recs:
            if rec[0] == "msg":
                name = rec[1]
                cost, m_ser, m_rtx = self._msg_cost(rec[4], rec[5])
                cost -= m_ser + m_rtx
                ser_s += m_ser
                rtx_s += m_rtx
                if name in _UNLOCK_KINDS or name in (
                    "BARRIER_NOTICE", "BARRIER_UPDATE", "BARRIER_ACK", "BARRIER_RECONCILE"
                ):
                    flush_s += cost  # eager barrier-time flush
                else:
                    arrival_s += cost  # BARRIER_ARRIVAL (+ piggyback)
            elif rec[1] == "diff_create":
                close_s += costs.diff_create_s
        t0 = self.clock[proc]
        t_arrive = t0 + close_s + flush_s + arrival_s + ser_s + rtx_s
        buckets = {}
        for category, seconds in (
            ("diff_create", close_s),
            ("flush", flush_s),
            ("barrier_transfer", arrival_s),
            ("serialization", ser_s),
            ("retransmit", rtx_s),
        ):
            if seconds:
                buckets[category] = seconds
        arrive_sid = self._add_span(
            proc, "barrier_arrive", t0, t_arrive, self.prev[proc], buckets,
            f"barrier {bid} arrive", args={"barrier": bid},
        )
        self.clock[proc] = t_arrive
        self.prev[proc] = arrive_sid
        episode = self._episodes.setdefault(bid, [])
        episode.append((proc, t_arrive, arrive_sid))
        self._end_sync(proc)
        if complete_at is None:
            return
        self._complete_barrier(bid, episode, wrecs[complete_at + 1 :])
        del self._episodes[bid]

    def _complete_barrier(
        self, bid: int, episode: List[Tuple[int, float, int]], comp_recs: List[tuple]
    ) -> None:
        costs = self.costs
        completion = max(t for _, t, _ in episode)
        last_sid = next(sid for _, t, sid in episode if t == completion)
        arrivals = [t for _, t, _ in episode]
        self.timeline.barrier_imbalance_s += completion - sum(arrivals) / len(arrivals)
        self.timeline.barrier_episodes += 1
        # Per-client exit costs: [barrier_transfer, diff_fetch,
        # serialization, retransmit] seconds.
        per: Dict[int, List[float]] = {p: [0.0, 0.0, 0.0, 0.0] for p, _, _ in episode}
        for rec in comp_recs:
            if rec[0] == "msg":
                _, name, src, dst, data, ctrl, _counted = rec
                client = src if name.endswith("_REQUEST") else dst
                cost, m_ser, m_rtx = self._msg_cost(data, ctrl)
                cost -= m_ser + m_rtx
                slot = per.setdefault(client, [0.0, 0.0, 0.0, 0.0])
                if name in _DIFF_PULL_KINDS:
                    slot[1] += cost
                else:
                    slot[0] += cost  # BARRIER_EXIT / bare notices
                slot[2] += m_ser
                slot[3] += m_rtx
            elif rec[0] == "ev" and rec[1] == "diff_apply":
                client = rec[2]
                slot = per.setdefault(client, [0.0, 0.0, 0.0, 0.0])
                slot[1] += ((rec[3] or {}).get("count", 1)) * costs.diff_apply_s
        for proc, t_arrive, arrive_sid in episode:
            wait = completion - t_arrive
            if wait > 0.0:
                self._add_span(
                    proc, "barrier_wait", t_arrive, completion, arrive_sid,
                    {"barrier_wait": wait}, f"barrier {bid} wait",
                )
            transfer_s, fetch_s, ser_s, rtx_s = per.get(proc, (0.0, 0.0, 0.0, 0.0))
            buckets = {}
            if transfer_s:
                buckets["barrier_transfer"] = transfer_s
            if fetch_s:
                buckets["diff_fetch"] = fetch_s
            if ser_s:
                buckets["serialization"] = ser_s
            if rtx_s:
                buckets["retransmit"] = rtx_s
            exit_end = completion + transfer_s + fetch_s + ser_s + rtx_s
            exit_sid = self._add_span(
                proc, "barrier_exit", completion, exit_end,
                last_sid, buckets, f"barrier {bid} exit", args={"barrier": bid},
            )
            if arrive_sid != last_sid:
                self.timeline.flows.append((last_sid, exit_sid))
            self.clock[proc] = exit_end
            self.prev[proc] = exit_sid


def timeline_from_records(
    records: Sequence[tuple],
    compiled,
    n_procs: int,
    costs: Optional[SpanCosts] = None,
    app: str = "",
    protocol: str = "",
    delays: Optional[Sequence[Tuple[float, float, float]]] = None,
) -> SpanTimeline:
    """Assemble a timeline from a :class:`SpanProbe` record stream.

    ``delays`` is the measured per-message delay log of a timed run
    (``NetworkTiming.delay_log``, one ``(total, serialization,
    retransmit)`` triple per "msg" record in stream order); when given,
    message weights come from the simulated network instead of the
    synthetic ``costs.message`` charge.
    """
    from repro.hb.skeleton import sync_compute_profile

    return SpanBuilder(
        records,
        sync_compute_profile(compiled, n_procs),
        costs or SpanCosts.ethernet_1992(),
        n_procs,
        app=app,
        protocol=protocol,
        delays=delays,
    ).build()


def build_span_timeline(
    trace,
    protocol,
    page_size: int = 4096,
    config=None,
    costs: Optional[SpanCosts] = None,
    link_model=None,
):
    """Run ``trace`` under ``protocol`` with a SpanProbe and reconstruct.

    Returns ``(result, timeline)``: the instrumented
    :class:`~repro.simulator.results.SimulationResult` (metrics snapshot
    included, for reconciliation) and the :class:`SpanTimeline`. Pass a
    :class:`~repro.network.link.LinkModel` (or set it on ``config``) to
    run timed: the timeline's message weights are then the link's
    measured delays — serialization queueing, seeded jitter, and
    retransmit penalties included — instead of the synthetic cost
    model, and ``result.timing`` carries the timed-run report.
    """
    from repro.config import SimConfig
    from repro.simulator.engine import Engine

    if config is None:
        config = SimConfig(n_procs=trace.n_procs, page_size=page_size)
    else:
        config = config.with_page_size(page_size)
    if link_model is not None:
        config = config.with_options(link_model=link_model)
    if costs is None and config.link_model is not None:
        costs = SpanCosts.from_link(config.link_model)
    probe = SpanProbe()
    compiled = trace.compiled(config.page_size)
    engine = Engine(trace, config, protocol, compiled=compiled, probe=probe)
    try:
        result = engine.run()
    finally:
        probe.close()
    timeline = timeline_from_records(
        probe.records,
        compiled,
        config.n_procs,
        costs,
        app=trace.meta.app,
        protocol=result.protocol,
        delays=getattr(probe, "link_delays", None),
    )
    return result, timeline


def to_chrome_trace(timeline: SpanTimeline) -> Dict[str, Any]:
    """Render a timeline as Chrome trace-event JSON (Perfetto-loadable).

    One process (pid 0) with one thread per simulated processor; spans
    become complete ("X") events with microsecond timestamps and the
    stall buckets in ``args``; flow edges become "s"/"f" pairs so
    Perfetto draws the message-causality arrows.
    """
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "name": "process_name",
            "args": {"name": f"{timeline.app} under {timeline.protocol}"},
        }
    ]
    for proc in range(timeline.n_procs):
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": proc,
                "name": "thread_name",
                "args": {"name": f"proc {proc}"},
            }
        )
    for span in timeline.spans:
        args: Dict[str, Any] = {
            category: round(seconds * 1e6, 3)
            for category, seconds in span.buckets.items()
        }
        if span.args:
            args.update(span.args)
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": span.proc,
                "name": span.label,
                "cat": span.kind,
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "args": args,
            }
        )
    spans = timeline.spans
    for flow_id, (src_sid, dst_sid) in enumerate(timeline.flows):
        src, dst = spans[src_sid], spans[dst_sid]
        events.append(
            {
                "ph": "s",
                "pid": 0,
                "tid": src.proc,
                "name": "hb",
                "cat": "flow",
                "id": flow_id,
                "ts": round(src.end * 1e6, 3),
            }
        )
        events.append(
            {
                "ph": "f",
                "bp": "e",
                "pid": 0,
                "tid": dst.proc,
                "name": "hb",
                "cat": "flow",
                "id": flow_id,
                "ts": round(dst.start * 1e6, 3),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
