"""Opt-in observability for the serving engine: one event record, rendered.

Both engine loops (general and turbo) append each request-lifecycle
event, in event order, to one :class:`EventLog`: a buffer of plain
tuples behind a single ``if log is not None`` branch per event site, so
an unobserved run executes the pre-observability instruction stream and
every golden replays byte for byte.  Every :data:`CHUNK_EVENTS` events,
and once more at the end of the run, the log hands the chunk to its
renderers.  Each renderer formats a chunk in bulk and carries across
chunks only the state it must:

* **request-lifecycle traces** (:func:`lifecycle_tracer`): every
  request's arrival -> admission verdict -> enqueue -> (preempt)* ->
  dispatch -> completion, as JSON Lines (``.jsonl``,
  :class:`JsonlTraceSink`) or as a Chrome ``trace_event`` JSON file
  (``.json``, :class:`ChromeTraceSink`) that opens directly in Perfetto
  / ``chrome://tracing`` — one track per chip, one per tenant queue,
  instant tracks for scale/throttle/preempt/reject.  Memory is bounded
  by one chunk plus the open queue spans, never by the request count.
* **windowed time series** (:class:`MetricsRecorder`): throughput,
  queue depth, chip utilization, power draw, backlog and rejection rate
  sampled on a fixed simulated-time grid, written as CSV or JSON.  The
  windowed generalization of the cumulative rolling p99 of
  :class:`repro.serve.streaming.StreamingMetrics` (same percentile
  interpolation, same no-wall-clock rule).
* **trace reconstruction** (:func:`summarize_trace`): per-phase latency
  breakdowns (queue vs service vs preemption-wasted) recomputed from a
  JSONL trace alone.  Latency floats round-trip through JSON at full
  ``repr`` precision and the percentile interpolation is shared with
  :func:`repro.serve.metrics.summarize`, so a trace summary agrees with
  the run's :class:`~repro.serve.metrics.ServingReport` to float
  equality.  A ``cmp`` event is a *prefill* completion: on a decode run
  the summary's total latency is the report's time to first token
  (``ttft_p50_ms`` / ``ttft_p99_ms``), not its end-to-end latency; the
  summary does not read the decode iterations (``dit`` events).

Event tuples (``t`` is simulated nanoseconds, ``rids`` a list of request
ids, ``arrivals`` their arrival stamps)::

    (BEGIN, cluster)
    (ARR, t, rid, model, tenant)                        arrival
    (ENQ, t, rid, model, tenant)                        admitted
    (REJ, t, rid, model, tenant, final, attempts)       shed
    (DSP, t, chip, model, tenant, rids, finish, overhead)
    (CMP, t, chip, model, tenant, rids, arrivals, dispatch, energy)
    (PRE, t, chip, model, tenant, rids, wasted, by_tenant, finish)
    (DIT, t, chip, model, n, ctx, finish)               decode iteration
    (SCALE, t, kind, n)                                 elastic
    (THROTTLE, t, group, engaged)                       governor
    (POWER, t, watts)                                   governor draw

JSONL schema (one self-contained object per line; ``t`` is simulated
nanoseconds, ``tn`` omitted for the anonymous tenant ``""``)::

    {"ev":"begin","chips":4,"models":["resnet18"]}
    {"ev":"arr","t":123.5,"rid":7,"m":"resnet18"}         arrival
    {"ev":"enq","t":123.5,"rid":7,"m":"resnet18"}         admitted
    {"ev":"rej","t":…,"rid":…,"m":…,"final":true,"n":1}   shed
    {"ev":"dsp","t":…,"chip":2,"m":…,"rids":[7,8],"fin":…,"ov":…}
    {"ev":"cmp","t":…,"chip":2,"m":…,"rids":[7,8],"d":…,"e":…}
    {"ev":"pre","t":…,"chip":…,"m":…,"rids":[…],"w":…,"by":…,"fin":…}
    {"ev":"scale","t":…,"kind":"up","n":2}                elastic
    {"ev":"throttle","t":…,"grp":"yoco","on":true}        governor
    {"ev":"dit","t":…,"chip":…,"m":…,"n":4,"ctx":144,"fin":…}  decode iter
    {"ev":"end","t":makespan}

``dsp.fin`` is the precomputed finish instant (so busy time is known at
dispatch), ``cmp.d`` the dispatch instant and ``cmp.e`` the per-request
energy share in pJ; ``pre.w`` is the wasted service so far and
``pre.fin`` the victim's now-cancelled finish instant.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from typing import IO, Dict, List, Optional, Sequence, Tuple

from repro.serve.served import _percentiles_from_sorted

#: Event kind codes, the first field of every event tuple.
BEGIN, ARR, ENQ, REJ, DSP, CMP, PRE, DIT, SCALE, THROTTLE, POWER = range(11)

#: Events the log buffers before it hands them to its renderers.
CHUNK_EVENTS = 8192


class EventLog:
    """One run's lifecycle events, handed to renderers chunk by chunk.

    The engine calls :meth:`begin` once as the run starts,
    :meth:`append` once per event and :meth:`close` once with the
    makespan.  A renderer is any object with a ``write(chunk)`` /
    ``close(makespan_ns)`` pair; chunks arrive in event order, so
    timestamps are monotone non-decreasing across one run.  ``BEGIN``
    is handed over alone, at once: each trace renderer opens its file
    on it, so an unwritable path fails before anything is simulated and
    a run that raises part way leaves its file begun.
    """

    def __init__(self, renderers: Sequence) -> None:
        self.renderers = tuple(renderers)
        self._events: List[tuple] = []

    def begin(self, cluster) -> None:
        self._events.append((BEGIN, cluster))
        self._flush()

    def append(self, event: tuple) -> None:
        events = self._events
        events.append(event)
        if len(events) >= CHUNK_EVENTS:
            self._flush()

    def _flush(self) -> None:
        chunk, self._events = self._events, []
        for renderer in self.renderers:
            renderer.write(chunk)

    def close(self, makespan_ns: float) -> None:
        self._flush()
        for renderer in self.renderers:
            renderer.close(makespan_ns)


# ---------------------------------------------------------------------------
# Lifecycle trace renderers
# ---------------------------------------------------------------------------


class _Quoted(dict):
    """name -> JSON-quoted name, quoted once: model/tenant/group names
    repeat millions of times per trace."""

    def __missing__(self, name: str) -> str:
        quoted = self[name] = json.dumps(name)
        return quoted


class _TenantField(dict):
    """tenant -> its JSONL ``,"tn":…`` fragment (empty for ``""``)."""

    def __missing__(self, tenant: str) -> str:
        frag = self[tenant] = f',"tn":{json.dumps(tenant)}' if tenant else ""
        return frag


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


class JsonlTraceSink:
    """Render the log as JSON Lines (schema in the module docstring).

    Each chunk lands as one file write; across chunks the sink keeps
    only its name caches, so tracing a million-request run costs file
    bytes, not resident memory.  ``n_events`` / ``bytes_written`` are
    the guard-rail counters (deterministic, no wall clock) the scale
    tests assert linearity on.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._f: Optional[IO[str]] = None
        self._names = _Quoted()
        self._tn = _TenantField()
        self.n_events = 0
        self.bytes_written = 0

    def _land(self, lines: List[str], n_events: int) -> None:
        text = "".join(lines)
        self._f.write(text)
        self.n_events += n_events
        self.bytes_written += len(text)

    def write(self, chunk: Sequence[tuple]) -> None:
        names, tn = self._names, self._tn
        lines: List[str] = []
        add = lines.append
        for ev in chunk:
            k = ev[0]
            if k == ARR or k == ENQ:
                _, t, rid, m, tenant = ev
                add(
                    f'{{"ev":"{"arr" if k == ARR else "enq"}","t":{t!r},'
                    f'"rid":{rid},"m":{names[m]}{tn[tenant]}}}\n'
                )
            elif k == DSP:
                _, t, chip, m, tenant, rids, fin, ov = ev
                ov_field = f',"ov":{ov!r}' if ov else ""
                add(
                    f'{{"ev":"dsp","t":{t!r},"chip":{chip},'
                    f'"m":{names[m]}{tn[tenant]},'
                    f'"rids":[{",".join(map(str, rids))}],"fin":{fin!r}'
                    f'{ov_field}}}\n'
                )
            elif k == CMP:
                _, t, chip, m, tenant, rids, _, d, e = ev
                add(
                    f'{{"ev":"cmp","t":{t!r},"chip":{chip},'
                    f'"m":{names[m]}{tn[tenant]},'
                    f'"rids":[{",".join(map(str, rids))}],"d":{d!r},"e":{e!r}}}\n'
                )
            elif k == DIT:
                _, t, chip, m, n, ctx, fin = ev
                add(
                    f'{{"ev":"dit","t":{t!r},"chip":{chip},"m":{names[m]},'
                    f'"n":{n},"ctx":{ctx},"fin":{fin!r}}}\n'
                )
            elif k == REJ:
                _, t, rid, m, tenant, final, attempts = ev
                add(
                    f'{{"ev":"rej","t":{t!r},"rid":{rid},'
                    f'"m":{names[m]}{tn[tenant]},'
                    f'"final":{_bool(final)},"n":{attempts}}}\n'
                )
            elif k == PRE:
                _, t, chip, m, tenant, rids, w, by, fin = ev
                add(
                    f'{{"ev":"pre","t":{t!r},"chip":{chip},'
                    f'"m":{names[m]}{tn[tenant]},'
                    f'"rids":[{",".join(map(str, rids))}],"w":{w!r},'
                    f'"by":{names[by]},"fin":{fin!r}}}\n'
                )
            elif k == SCALE:
                _, t, kind, n = ev
                add(f'{{"ev":"scale","t":{t!r},"kind":"{kind}","n":{n}}}\n')
            elif k == THROTTLE:
                _, t, group, engaged = ev
                add(
                    f'{{"ev":"throttle","t":{t!r},"grp":{names[group]},'
                    f'"on":{_bool(engaged)}}}\n'
                )
            elif k == BEGIN:
                cluster = ev[1]
                self._f = open(self.path, "w")
                add(
                    json.dumps(
                        {
                            "ev": "begin",
                            "chips": cluster.n_chips,
                            "models": list(cluster.models),
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
        self._land(lines, len(lines))

    def close(self, makespan_ns: float) -> None:
        self._land([f'{{"ev":"end","t":{makespan_ns!r}}}\n'], 1)
        self._f.close()
        self._f = None


#: Chrome trace_event process ids: chip tracks, tenant-queue tracks, and
#: the instant-event tracks.  No engine event lands on the spill track;
#: its metadata line keeps every file's layout unchanged.
_PID_CHIPS, _PID_QUEUES, _PID_EVENTS = 1, 2, 3
_INSTANT_TIDS = {
    "scale": 1,
    "throttle": 2,
    "preempt": 3,
    "reject": 4,
    "spill": 5,
}


def _compact(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _meta(pid: int, tid: int, what: str, name: str) -> str:
    return _compact(
        {"ph": "M", "pid": pid, "tid": tid, "name": what, "args": {"name": name}}
    )


def _instant(track: str, t_ns: float, name: str, args: dict) -> str:
    return _compact(
        {
            "ph": "i",
            "ts": t_ns / 1e3,
            "pid": _PID_EVENTS,
            "tid": _INSTANT_TIDS[track],
            "name": name,
            "s": "p",
            "args": args,
        }
    )


class ChromeTraceSink:
    """Render the log as Chrome ``trace_event`` JSON.

    The output opens directly in Perfetto / ``chrome://tracing``: pid 1
    holds one thread per chip (each batch a complete ``X`` span from
    dispatch to finish), pid 2 one thread per tenant queue (each
    request's enqueue-to-dispatch wait), pid 3 the instant tracks.
    Across chunks the sink keeps only the open-span bookkeeping — one
    entry per *queued* request and one per busy chip — so memory is
    bounded by peak queue depth, not by trace length
    (``max_open_spans`` is the guard-rail counter).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._f: Optional[IO[str]] = None
        self._first = True
        # (tenant, model, rid) -> queue-span start; re-opened on preempt.
        self._open: Dict[Tuple[str, str, int], float] = {}
        # chip -> that batch's span keys (for preempt re-opening).
        self._inflight: Dict[int, List[Tuple[str, str, int]]] = {}
        self._tenant_tid: Dict[str, int] = {}
        self._names = _Quoted()
        self.n_events = 0
        self.bytes_written = 0
        self.max_open_spans = 0

    def write(self, chunk: Sequence[tuple]) -> None:
        opened, inflight, names = self._open, self._inflight, self._names
        spans: List[str] = []
        add = spans.append
        for ev in chunk:
            k = ev[0]
            if k == ENQ:
                _, t, rid, m, tenant = ev
                opened[(tenant, m, rid)] = t
                if len(opened) > self.max_open_spans:
                    self.max_open_spans = len(opened)
            elif k == DSP:
                _, t, chip, m, tenant, rids, _, _ = ev
                tid = self._tenant_tid.get(tenant)
                if tid is None:
                    tid = self._tenant_tid[tenant] = len(self._tenant_tid)
                    add(
                        _meta(
                            _PID_QUEUES, tid, "thread_name",
                            f"queue {tenant}" if tenant else "queue",
                        )
                    )
                name = names[m]
                keys = [(tenant, m, rid) for rid in rids]
                starts = [opened.pop(key, t) for key in keys]
                spans.extend([
                    f'{{"ph":"X","ts":{start / 1e3!r},'
                    f'"dur":{(t - start) / 1e3!r},'
                    f'"pid":{_PID_QUEUES},"tid":{tid},"name":{name},'
                    f'"args":{{"rid":{rid}}}}}'
                    for start, rid in zip(starts, rids)
                ])
                inflight[chip] = keys
            elif k == CMP:
                _, t, chip, m, tenant, rids, _, d, e = ev
                n = len(rids)
                add(
                    f'{{"ph":"X","ts":{d / 1e3!r},"dur":{(t - d) / 1e3!r},'
                    f'"pid":{_PID_CHIPS},"tid":{chip},'
                    f'"name":{names[f"{m} x{n}"]},'
                    f'"args":{{"n":{n},"tenant":{names[tenant]},'
                    f'"energy_pj_per_req":{e!r}}}}}'
                )
                inflight.pop(chip, None)
            elif k == DIT:
                # Each iteration is its own complete X span on the chip's
                # track: a decoding chip renders as a dense run of short
                # spans, visually distinct from the long prefill spans.
                _, t, chip, m, n, ctx, fin = ev
                add(
                    f'{{"ph":"X","ts":{t / 1e3!r},"dur":{(fin - t) / 1e3!r},'
                    f'"pid":{_PID_CHIPS},"tid":{chip},'
                    f'"name":{names[f"decode {m} x{n}"]},'
                    f'"args":{{"n":{n},"ctx":{ctx}}}}}'
                )
            elif k == REJ:
                _, t, rid, m, tenant, final, _ = ev
                if final:
                    add(
                        _instant(
                            "reject", t, f"reject {m}",
                            {"rid": rid, "tenant": tenant},
                        )
                    )
            elif k == PRE:
                # The killed batch shows as its own (shorter) chip span,
                # and its requests go back to waiting: their queue spans
                # re-open now.
                _, t, chip, m, tenant, rids, wasted, by, _ = ev
                add(
                    f'{{"ph":"X","ts":{(t - wasted) / 1e3!r},'
                    f'"dur":{wasted / 1e3!r},'
                    f'"pid":{_PID_CHIPS},"tid":{chip},'
                    f'"name":{json.dumps(f"preempted {m} x{len(rids)}")},'
                    f'"args":{{"by":{json.dumps(by)}}}}}'
                )
                add(
                    _instant(
                        "preempt", t, f"preempt {tenant or m}",
                        {"chip": chip, "by": by, "wasted_ns": wasted},
                    )
                )
                for key in inflight.pop(chip, ()):
                    opened[key] = t
                if len(opened) > self.max_open_spans:
                    self.max_open_spans = len(opened)
            elif k == SCALE:
                _, t, kind, n = ev
                add(_instant("scale", t, f"scale {kind}", {"n": n}))
            elif k == THROTTLE:
                _, t, group, engaged = ev
                add(
                    _instant(
                        "throttle", t,
                        f"throttle {'engage' if engaged else 'release'}",
                        {"group": group},
                    )
                )
            elif k == BEGIN:
                cluster = ev[1]
                self._f = open(self.path, "w")
                self._f.write('{"traceEvents":[\n')
                add(_meta(_PID_CHIPS, 0, "process_name", "chips"))
                add(_meta(_PID_QUEUES, 0, "process_name", "tenant queues"))
                add(_meta(_PID_EVENTS, 0, "process_name", "events"))
                for name, tid in _INSTANT_TIDS.items():
                    add(_meta(_PID_EVENTS, tid, "thread_name", name))
                for c in range(cluster.n_chips):
                    add(
                        _meta(
                            _PID_CHIPS, c, "thread_name",
                            f"chip {c} ({cluster.chip_type(c)})",
                        )
                    )
        if spans:
            data = ("" if self._first else ",\n") + ",\n".join(spans)
            self._first = False
            self._f.write(data)
            self.n_events += len(spans)
            self.bytes_written += len(data)

    def close(self, makespan_ns: float) -> None:
        self._f.write('\n],"displayTimeUnit":"ms"}\n')
        self._f.close()
        self._f = None


def lifecycle_tracer(path: str):
    """Build the lifecycle-trace renderer a path asks for.

    ``.json`` means Chrome ``trace_event`` format (Perfetto-loadable);
    anything else — ``.jsonl`` canonically — means the JSON Lines schema
    that :func:`summarize_trace` reads back.
    """
    if str(path).endswith(".json"):
        return ChromeTraceSink(path)
    return JsonlTraceSink(path)


# ---------------------------------------------------------------------------
# Windowed time-series metrics
# ---------------------------------------------------------------------------


class MetricsRecorder:
    """Sample run health on a fixed simulated-time grid.

    Each window of ``window_ms`` simulated milliseconds yields one row:
    offered arrivals, completions (and the implied throughput), final
    rejections, queue depth at the window boundary (the backlog), mean
    chip utilization inside the window (dispatch-time busy credit, so a
    batch spanning windows is split exactly), governor power draw
    (time-weighted mean; blank without a governor) and in-window
    completion latency percentiles — the same interpolation
    :func:`repro.serve.metrics.summarize` uses on the whole run.  A
    completion is a ``cmp`` event, which on a decode run is the prefill
    landing: there, completions and throughput count first tokens and
    ``p50_ms`` / ``p99_ms`` are time-to-first-token percentiles.

    Across chunks the recorder carries the open window's accumulators
    and one row per closed window, never per-request state.  ``close``
    lands the rows at ``path`` (if given) as CSV, or as JSON for a
    ``.json`` path.
    """

    COLUMNS = (
        "t_ms",
        "arrivals",
        "completions",
        "throughput_rps",
        "rejected",
        "queue_depth",
        "utilization",
        "power_w",
        "p50_ms",
        "p99_ms",
    )

    def __init__(self, window_ms: float, path: Optional[str] = None) -> None:
        if not window_ms > 0:
            raise ValueError(
                f"metrics window must be positive, got {window_ms!r} ms"
            )
        self.window_ns = window_ms * 1e6
        self.path = path
        self.rows: List[dict] = []
        self._w = 0  # current (open) window index
        self._edge = self.window_ns  # its end: (_w + 1) * window_ns
        self._n_chips = 0
        self._depth = 0
        self._arrivals = 0
        self._completions = 0
        self._rejected = 0
        self._lat_ms: List[float] = []  # completions inside current window
        self._busy: Dict[int, float] = {}  # window index -> busy ns credit
        self._pw: Dict[int, float] = {}  # window index -> integral(W dt)
        self._pw_t = 0.0
        self._pw_last: Optional[float] = None
        self._has_power = False

    def _flush(self) -> None:
        """Close the current window into a row and open the next."""
        w = self._w
        end_ns = (w + 1) * self.window_ns
        busy = self._busy.pop(w, 0.0)
        window_s = self.window_ns * 1e-9
        util = (
            busy / (self.window_ns * self._n_chips) if self._n_chips else 0.0
        )
        if self._lat_ms:
            ordered = sorted(self._lat_ms)
            p50, p99 = _percentiles_from_sorted(ordered, (50, 99))
        else:
            p50 = p99 = None
        power = (
            self._pw.pop(w, 0.0) / self.window_ns if self._has_power else None
        )
        self.rows.append(
            {
                "t_ms": end_ns * 1e-6,
                "arrivals": self._arrivals,
                "completions": self._completions,
                "throughput_rps": self._completions / window_s,
                "rejected": self._rejected,
                "queue_depth": self._depth,
                "utilization": util,
                "power_w": power,
                "p50_ms": p50,
                "p99_ms": p99,
            }
        )
        self._arrivals = self._completions = self._rejected = 0
        self._lat_ms = []
        self._w += 1
        self._edge = (self._w + 1) * self.window_ns

    def _credit(self, a: float, b: float, sign: float) -> None:
        """Spread chip-busy nanoseconds [a, b) across window buckets."""
        w = int(a // self.window_ns)
        while a < b:
            end = (w + 1) * self.window_ns
            seg = (b if b < end else end) - a
            self._busy[w] = self._busy.get(w, 0.0) + sign * seg
            a = end
            w += 1

    def _power(self, t_ns: float, watts: float) -> None:
        """Integrate the draw held since the last sample up to ``t_ns``;
        draw is piecewise constant between events, so the segment may
        straddle windows about to close."""
        self._has_power = True
        if self._pw_last is not None and t_ns > self._pw_t:
            a, w = self._pw_t, int(self._pw_t // self.window_ns)
            while a < t_ns:
                end = (w + 1) * self.window_ns
                seg = (t_ns if t_ns < end else end) - a
                self._pw[w] = self._pw.get(w, 0.0) + self._pw_last * seg
                a = end
                w += 1
        self._pw_t = t_ns
        self._pw_last = watts

    def write(self, chunk: Sequence[tuple]) -> None:
        for ev in chunk:
            k = ev[0]
            if k == SCALE or k == THROTTLE:
                continue  # no window state moves
            if k == BEGIN:
                self._n_chips = ev[1].n_chips
                continue
            t = ev[1]
            if k == POWER:
                self._power(t, ev[2])  # integrate before closing windows
            while self._edge <= t:
                self._flush()
            if k == ARR:
                self._arrivals += 1
            elif k == ENQ:
                self._depth += 1
            elif k == DSP:
                self._depth -= len(ev[5])
                self._credit(t, ev[6], 1.0)
            elif k == CMP:
                self._completions += len(ev[5])
                self._lat_ms.extend([(t - a) * 1e-6 for a in ev[6]])
            elif k == DIT:
                # Decode iterations occupy chips without a dispatch, so
                # utilization credit lands here (queue depth is
                # untouched: the requests left the queues at their
                # prefill dispatch).
                self._credit(t, ev[6], 1.0)
            elif k == REJ:
                if ev[5]:
                    self._rejected += 1
            elif k == PRE:
                # The victims queue again, and the chip-time their batch
                # would still have burned [now, finish) never happens —
                # uncredit it.
                self._depth += len(ev[5])
                self._credit(t, ev[8], -1.0)

    def close(self, makespan_ns: float) -> None:
        if self._pw_last is not None and makespan_ns > self._pw_t:
            self._power(makespan_ns, self._pw_last)
        while self._w * self.window_ns < makespan_ns:
            self._flush()
        if self.path:
            self._save(self.path)

    def _save(self, path: str) -> None:
        """Land the rows as ``.json`` (list of row objects) or CSV."""
        if str(path).endswith(".json"):
            with open(path, "w") as f:
                json.dump(self.rows, f, indent=1)
                f.write("\n")
            return
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(self.COLUMNS)
            for row in self.rows:
                writer.writerow(
                    "" if row[c] is None else row[c] for c in self.COLUMNS
                )


# ---------------------------------------------------------------------------
# Trace reconstruction (repro trace-summary)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PhaseStats:
    """Per-phase latency reconstruction for one (tenant, model) lane.

    ``queue`` is arrival to *final* dispatch (re-dispatch after a
    preemption counts as queueing, exactly as the engine's
    ``ServedRequest.queue_ns`` sees it), ``service`` final dispatch to
    completion, ``total`` their sum — float-identical to the report's
    latency because every timestamp round-trips JSON at full precision.
    On a decode run the completion is the prefill's, so ``total`` is the
    report's time to first token and ``service`` the prefill alone.
    """

    tenant: str
    model: str
    n: int
    queue_p50_ms: float
    queue_p99_ms: float
    queue_mean_ms: float
    service_p50_ms: float
    service_p99_ms: float
    service_mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    wasted_ms: float  # preempted service this lane's batches burned
    n_preempted: int  # batches of this lane killed mid-service
    n_rejected: int  # final rejections


@dataclasses.dataclass(frozen=True)
class TraceSummary:
    """Everything :func:`summarize_trace` reconstructs from one JSONL trace."""

    path: str
    n_events: int
    n_requests: int
    n_rejected: int
    makespan_ns: float
    lanes: Tuple[PhaseStats, ...]  # one per (tenant, model), first-seen order
    per_model: Dict[str, PhaseStats]  # tenant-pooled, keyed by model

    @property
    def has_tenants(self) -> bool:
        return any(lane.tenant for lane in self.lanes)


def _phase_stats(
    tenant: str,
    model: str,
    rows: List[Tuple[float, int, float, float, float]],
    wasted_ms: float,
    n_preempted: int,
    n_rejected: int,
) -> PhaseStats:
    # Arrival order (arrival, rid) is the order `summarize` sums latency
    # lists in, so the mean here is bit-identical to the report's.
    rows.sort(key=lambda r: (r[0], r[1]))
    total = [r[2] for r in rows]
    queue = [r[3] for r in rows]
    service = [r[4] for r in rows]
    ordered = sorted(total)
    p50, p95, p99 = _percentiles_from_sorted(ordered, (50, 95, 99))
    q50, q99 = _percentiles_from_sorted(sorted(queue), (50, 99))
    s50, s99 = _percentiles_from_sorted(sorted(service), (50, 99))
    n = len(rows)
    return PhaseStats(
        tenant=tenant,
        model=model,
        n=n,
        queue_p50_ms=q50,
        queue_p99_ms=q99,
        queue_mean_ms=sum(queue) / n,
        service_p50_ms=s50,
        service_p99_ms=s99,
        service_mean_ms=sum(service) / n,
        p50_ms=p50,
        p95_ms=p95,
        p99_ms=p99,
        mean_ms=sum(total) / n,
        max_ms=ordered[-1],
        wasted_ms=wasted_ms,
        n_preempted=n_preempted,
        n_rejected=n_rejected,
    )


def summarize_trace(path: str) -> TraceSummary:
    """Reconstruct per-phase latency breakdowns from a JSONL trace alone.

    Reads the :class:`JsonlTraceSink` schema; a Chrome-format trace
    (``--trace-out file.json``) is for Perfetto, not for this parser,
    and raises a pointed error.
    """
    arrivals: Dict[Tuple[str, str, int], float] = {}
    dispatched: Dict[Tuple[str, str, int], float] = {}
    # (tenant, model) -> [(arrival_ns, rid, total_ms, queue_ms, service_ms)]
    lanes: Dict[Tuple[str, str], List] = {}
    wasted: Dict[Tuple[str, str], float] = {}
    preempts: Dict[Tuple[str, str], int] = {}
    rejected: Dict[Tuple[str, str], int] = {}
    n_events = 0
    n_rejected = 0
    makespan = 0.0
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if n_events == 0 and line.startswith('{"traceEvents"'):
                raise ValueError(
                    f"{path} is a Chrome trace_event file (made for "
                    "Perfetto); trace-summary reads the JSONL format — "
                    "re-run with --trace-out FILE.jsonl"
                )
            n_events += 1
            ev = json.loads(line)
            kind = ev["ev"]
            if kind == "arr":
                key = (ev.get("tn", ""), ev["m"], ev["rid"])
                # A retried request re-arrives; its original stamp wins
                # (latency is client-perceived across attempts).
                arrivals.setdefault(key, ev["t"])
            elif kind == "dsp":
                tn, m, t = ev.get("tn", ""), ev["m"], ev["t"]
                for rid in ev["rids"]:
                    dispatched[(tn, m, rid)] = t
            elif kind == "cmp":
                tn, m, t = ev.get("tn", ""), ev["m"], ev["t"]
                lane = lanes.setdefault((tn, m), [])
                for rid in ev["rids"]:
                    key = (tn, m, rid)
                    arr = arrivals.pop(key, t)
                    dsp = dispatched.pop(key, t)
                    lane.append(
                        (
                            arr,
                            rid,
                            (t - arr) * 1e-6,
                            (dsp - arr) * 1e-6,
                            (t - dsp) * 1e-6,
                        )
                    )
            elif kind == "pre":
                lane = (ev.get("tn", ""), ev["m"])
                wasted[lane] = wasted.get(lane, 0.0) + ev["w"] * 1e-6
                preempts[lane] = preempts.get(lane, 0) + 1
            elif kind == "rej":
                if ev.get("final", True):
                    lane = (ev.get("tn", ""), ev["m"])
                    rejected[lane] = rejected.get(lane, 0) + 1
                    n_rejected += 1
            elif kind == "end":
                makespan = ev["t"]
    lane_stats = tuple(
        _phase_stats(
            tn,
            m,
            rows,
            wasted.get((tn, m), 0.0),
            preempts.get((tn, m), 0),
            rejected.get((tn, m), 0),
        )
        for (tn, m), rows in lanes.items()
    )
    by_model: Dict[str, List] = {}
    for (tn, m), rows in lanes.items():
        by_model.setdefault(m, []).extend(rows)
    per_model = {
        m: _phase_stats(
            "",
            m,
            rows,
            sum(w for (tn, wm), w in wasted.items() if wm == m),
            sum(c for (tn, wm), c in preempts.items() if wm == m),
            sum(c for (tn, wm), c in rejected.items() if wm == m),
        )
        for m, rows in by_model.items()
    }
    return TraceSummary(
        path=str(path),
        n_events=n_events,
        n_requests=sum(lane.n for lane in lane_stats),
        n_rejected=n_rejected,
        makespan_ns=makespan,
        lanes=lane_stats,
        per_model=per_model,
    )


def format_trace_summary(summary: TraceSummary) -> str:
    """Render a :class:`TraceSummary` as the trace-summary CLI report."""
    lines = [
        f"trace              : {summary.path}",
        f"events             : {summary.n_events}",
        f"requests completed : {summary.n_requests}"
        + (f" (+{summary.n_rejected} rejected)" if summary.n_rejected else ""),
        f"horizon            : {summary.makespan_ns * 1e-6:.3f} ms",
        "",
        "per-phase latency (ms): queue = arrival->dispatch, service = "
        "dispatch->completion",
    ]
    header = (
        f"{'tenant':<12} {'model':<18} {'requests':>8} "
        f"{'queue p50':>10} {'queue p99':>10} "
        f"{'service p50':>12} {'service p99':>12} "
        f"{'total p50':>10} {'total p99':>10} {'wasted ms':>10}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for lane in summary.lanes:
        lines.append(
            f"{lane.tenant or '-':<12} {lane.model:<18} {lane.n:>8} "
            f"{lane.queue_p50_ms:>10.4f} {lane.queue_p99_ms:>10.4f} "
            f"{lane.service_p50_ms:>12.4f} {lane.service_p99_ms:>12.4f} "
            f"{lane.p50_ms:>10.4f} {lane.p99_ms:>10.4f} "
            f"{lane.wasted_ms:>10.4f}"
        )
    if summary.has_tenants and len(summary.per_model) > 0:
        lines.append("")
        lines.append("pooled per model:")
        for model, stats in summary.per_model.items():
            lines.append(
                f"{'*':<12} {model:<18} {stats.n:>8} "
                f"{stats.queue_p50_ms:>10.4f} {stats.queue_p99_ms:>10.4f} "
                f"{stats.service_p50_ms:>12.4f} "
                f"{stats.service_p99_ms:>12.4f} "
                f"{stats.p50_ms:>10.4f} {stats.p99_ms:>10.4f} "
                f"{stats.wasted_ms:>10.4f}"
            )
    return "\n".join(lines)


def format_engine_profile(stats) -> str:
    """Render ``EngineStats`` (+ optional profile detail) as a table."""
    lines = [
        f"events processed   : {stats.n_events}",
        f"dispatch rounds    : {stats.n_dispatch_rounds}",
        f"slot scans         : {stats.n_slot_scans}",
        f"batches committed  : {stats.n_batches}",
    ]
    prof = getattr(stats, "profile", None)
    if prof is not None:
        by_kind = ", ".join(f"{k}={n}" for k, n in prof.events_by_kind)
        lines.append(f"events by kind     : {by_kind}")
        lines.append(f"event-heap peak    : {prof.heap_peak}")
        if prof.dispatch_scan_hist:
            hist = ", ".join(
                f"{size}:{count}" for size, count in prof.dispatch_scan_hist
            )
            lines.append(f"dispatch scan hist : {{{hist}}} (dirty slots: rounds)")
    return "\n".join(lines)
