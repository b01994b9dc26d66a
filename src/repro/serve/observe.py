"""Opt-in observability for the serving engine: spans, metrics, profiles.

Three consumers share one :class:`Observer` hook protocol, threaded
through both engine paths (general and turbo) behind a single
``if obs is not None`` branch per event — with observers off the loops
run the exact pre-observability instruction stream and every golden
differential replays byte for byte:

* **request-lifecycle tracing** (:func:`lifecycle_tracer`): every
  request's arrival -> admission verdict -> enqueue -> (preempt)* ->
  dispatch -> completion, streamed incrementally to a JSONL sink
  (``.jsonl``) or a Chrome ``trace_event`` JSON file (``.json``) that
  opens directly in Perfetto / ``chrome://tracing`` — one track per
  chip, one per tenant queue, instant tracks for scale/throttle/spill/
  preempt/reject.  Neither sink retains an event list: memory is bounded
  by the in-flight span count, never by the request count.
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
  equality.

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
    {"ev":"spill","t":…,"src":"r0","dst":"r1"}            regions
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
from typing import (
    IO,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.serve.metrics import _percentiles_from_sorted
from repro.serve.traces import Request


class Observer:
    """No-op base for engine observers: override the hooks you need.

    Every hook receives the event's simulated timestamp first; the
    engine calls them in event order, so timestamps are monotone
    non-decreasing across one run.  ``begin`` fires once before the
    first event, ``finish`` once after the last with the run's
    makespan.  Hooks must not mutate their arguments — the engine
    passes live ``Request`` tuples, and the observers-on run is
    contractually object-for-object identical to the observers-off run.
    """

    def begin(self, cluster, policy) -> None:
        pass

    def arrival(self, t_ns: float, request: Request) -> None:
        pass

    def enqueue(self, t_ns: float, request: Request) -> None:
        pass

    def reject(
        self, t_ns: float, request: Request, final: bool, attempts: int
    ) -> None:
        pass

    def dispatch(
        self,
        t_ns: float,
        chip_id: int,
        model: str,
        tenant: str,
        requests: Sequence[Request],
        finish_ns: float,
        overhead_ns: float,
    ) -> None:
        pass

    def complete(
        self,
        t_ns: float,
        chip_id: int,
        model: str,
        tenant: str,
        requests: Sequence[Request],
        dispatch_ns: float,
        energy_pj_per_req: float,
    ) -> None:
        pass

    def preempt(
        self,
        t_ns: float,
        chip_id: int,
        model: str,
        tenant: str,
        requests: Sequence[Request],
        wasted_ns: float,
        by_tenant: str,
        finish_ns: float,
    ) -> None:
        pass

    def decode_iter(
        self,
        t_ns: float,
        chip_id: int,
        model: str,
        n: int,
        ctx: int,
        finish_ns: float,
    ) -> None:
        """One decode iteration dispatched: ``n`` requests at the
        page-rounded context ``ctx``, occupying ``chip_id`` until
        ``finish_ns``.  Carries no request ids on purpose — a long
        decode run emits millions of iterations."""

    def scale(self, t_ns: float, kind: str, n: int) -> None:
        pass

    def throttle(self, t_ns: float, group: str, engaged: bool) -> None:
        pass

    def power(self, t_ns: float, watts: float) -> None:
        pass

    def spill(self, t_ns: float, src: str, dst: str) -> None:
        pass

    def finish(self, makespan_ns: float) -> None:
        pass


class MultiObserver(Observer):
    """Fan one engine hook stream out to several observers, in order."""

    def __init__(self, observers: Sequence[Observer]) -> None:
        self.observers = tuple(observers)

    def begin(self, cluster, policy) -> None:
        for o in self.observers:
            o.begin(cluster, policy)

    def arrival(self, t_ns, request) -> None:
        for o in self.observers:
            o.arrival(t_ns, request)

    def enqueue(self, t_ns, request) -> None:
        for o in self.observers:
            o.enqueue(t_ns, request)

    def reject(self, t_ns, request, final, attempts) -> None:
        for o in self.observers:
            o.reject(t_ns, request, final, attempts)

    def dispatch(
        self, t_ns, chip_id, model, tenant, requests, finish_ns, overhead_ns
    ) -> None:
        for o in self.observers:
            o.dispatch(
                t_ns, chip_id, model, tenant, requests, finish_ns, overhead_ns
            )

    def complete(
        self, t_ns, chip_id, model, tenant, requests, dispatch_ns, energy
    ) -> None:
        for o in self.observers:
            o.complete(
                t_ns, chip_id, model, tenant, requests, dispatch_ns, energy
            )

    def preempt(
        self, t_ns, chip_id, model, tenant, requests, wasted, by, finish_ns
    ) -> None:
        for o in self.observers:
            o.preempt(
                t_ns, chip_id, model, tenant, requests, wasted, by, finish_ns
            )

    def decode_iter(self, t_ns, chip_id, model, n, ctx, finish_ns) -> None:
        for o in self.observers:
            o.decode_iter(t_ns, chip_id, model, n, ctx, finish_ns)

    def scale(self, t_ns, kind, n) -> None:
        for o in self.observers:
            o.scale(t_ns, kind, n)

    def throttle(self, t_ns, group, engaged) -> None:
        for o in self.observers:
            o.throttle(t_ns, group, engaged)

    def power(self, t_ns, watts) -> None:
        for o in self.observers:
            o.power(t_ns, watts)

    def spill(self, t_ns, src, dst) -> None:
        for o in self.observers:
            o.spill(t_ns, src, dst)

    def finish(self, makespan_ns) -> None:
        for o in self.observers:
            o.finish(makespan_ns)


def compose_observers(observers: Sequence[Observer]) -> Optional[Observer]:
    """Collapse an observer list to None / the observer / a fan-out."""
    observers = [o for o in observers if o is not None]
    if not observers:
        return None
    if len(observers) == 1:
        return observers[0]
    return MultiObserver(observers)


# ---------------------------------------------------------------------------
# Lifecycle tracing sinks
# ---------------------------------------------------------------------------


def _jname(cache: Dict[str, str], name: str) -> str:
    """JSON-quote a name once; model/tenant/group names repeat millions
    of times per trace, so the hot emitters interpolate the cached quoted
    form instead of calling json.dumps per event."""
    quoted = cache.get(name)
    if quoted is None:
        quoted = cache[name] = json.dumps(name)
    return quoted


class JsonlTraceSink(Observer):
    """Stream lifecycle events as JSON Lines (schema in module docstring).

    Every event is formatted and written immediately — the sink holds no
    event list, so tracing a million-request run costs file bytes, not
    resident memory.  ``n_events`` / ``bytes_written`` are the
    guard-rail counters (deterministic, no wall clock) the scale tests
    assert linearity on.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._f: Optional[IO[str]] = None
        self._names: Dict[str, str] = {}
        self._tn: Dict[str, str] = {"": ""}
        self.n_events = 0
        self.bytes_written = 0

    def _write(self, line: str) -> None:
        if self._f is None:  # standalone use (e.g. regions spill feed)
            self._f = open(self.path, "w")
        self._f.write(line)
        self.n_events += 1
        self.bytes_written += len(line)

    def _tenant(self, tenant: str) -> str:
        frag = self._tn.get(tenant)
        if frag is None:
            frag = self._tn[tenant] = f',"tn":{json.dumps(tenant)}'
        return frag

    def begin(self, cluster, policy) -> None:
        if self._f is None:
            self._f = open(self.path, "w")
        self._write(
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

    def arrival(self, t_ns, request) -> None:
        self._write(
            f'{{"ev":"arr","t":{t_ns!r},"rid":{request.request_id},'
            f'"m":{_jname(self._names, request.model)}'
            f"{self._tenant(request.tenant)}}}\n"
        )

    def enqueue(self, t_ns, request) -> None:
        self._write(
            f'{{"ev":"enq","t":{t_ns!r},"rid":{request.request_id},'
            f'"m":{_jname(self._names, request.model)}'
            f"{self._tenant(request.tenant)}}}\n"
        )

    def reject(self, t_ns, request, final, attempts) -> None:
        self._write(
            f'{{"ev":"rej","t":{t_ns!r},"rid":{request.request_id},'
            f'"m":{_jname(self._names, request.model)}'
            f"{self._tenant(request.tenant)},"
            f'"final":{"true" if final else "false"},"n":{attempts}}}\n'
        )

    def dispatch(
        self, t_ns, chip_id, model, tenant, requests, finish_ns, overhead_ns
    ) -> None:
        rids = ",".join(str(r.request_id) for r in requests)
        ov = f',"ov":{overhead_ns!r}' if overhead_ns else ""
        self._write(
            f'{{"ev":"dsp","t":{t_ns!r},"chip":{chip_id},'
            f'"m":{_jname(self._names, model)}{self._tenant(tenant)},'
            f'"rids":[{rids}],"fin":{finish_ns!r}{ov}}}\n'
        )

    def complete(
        self, t_ns, chip_id, model, tenant, requests, dispatch_ns, energy
    ) -> None:
        rids = ",".join(str(r.request_id) for r in requests)
        self._write(
            f'{{"ev":"cmp","t":{t_ns!r},"chip":{chip_id},'
            f'"m":{_jname(self._names, model)}{self._tenant(tenant)},'
            f'"rids":[{rids}],"d":{dispatch_ns!r},"e":{energy!r}}}\n'
        )

    def preempt(
        self, t_ns, chip_id, model, tenant, requests, wasted, by, finish_ns
    ) -> None:
        rids = ",".join(str(r.request_id) for r in requests)
        self._write(
            f'{{"ev":"pre","t":{t_ns!r},"chip":{chip_id},'
            f'"m":{_jname(self._names, model)}{self._tenant(tenant)},'
            f'"rids":[{rids}],"w":{wasted!r},"by":{json.dumps(by)},'
            f'"fin":{finish_ns!r}}}\n'
        )

    def decode_iter(self, t_ns, chip_id, model, n, ctx, finish_ns) -> None:
        self._write(
            f'{{"ev":"dit","t":{t_ns!r},"chip":{chip_id},'
            f'"m":{_jname(self._names, model)},"n":{n},"ctx":{ctx},'
            f'"fin":{finish_ns!r}}}\n'
        )

    def scale(self, t_ns, kind, n) -> None:
        self._write(f'{{"ev":"scale","t":{t_ns!r},"kind":"{kind}","n":{n}}}\n')

    def throttle(self, t_ns, group, engaged) -> None:
        self._write(
            f'{{"ev":"throttle","t":{t_ns!r},'
            f'"grp":{_jname(self._names, group)},'
            f'"on":{"true" if engaged else "false"}}}\n'
        )

    def spill(self, t_ns, src, dst) -> None:
        self._write(
            f'{{"ev":"spill","t":{t_ns!r},"src":{json.dumps(src)},'
            f'"dst":{json.dumps(dst)}}}\n'
        )

    def finish(self, makespan_ns) -> None:
        self._write(f'{{"ev":"end","t":{makespan_ns!r}}}\n')
        if self._f is not None:
            self._f.close()
            self._f = None


#: Chrome trace_event process ids: chip tracks, tenant-queue tracks, and
#: the instant-event tracks (scale / throttle / preempt / reject / spill).
_PID_CHIPS, _PID_QUEUES, _PID_EVENTS = 1, 2, 3
_INSTANT_TIDS = {
    "scale": 1,
    "throttle": 2,
    "preempt": 3,
    "reject": 4,
    "spill": 5,
}


class ChromeTraceSink(Observer):
    """Stream lifecycle events as Chrome ``trace_event`` JSON.

    The output opens directly in Perfetto / ``chrome://tracing``: pid 1
    holds one thread per chip (each batch a complete ``X`` span from
    dispatch to finish), pid 2 one thread per tenant queue (each
    request's enqueue-to-dispatch wait), pid 3 the instant tracks.
    Events stream to the file as they happen; the only retained state is
    the open-span bookkeeping — one entry per *queued* request and one
    per busy chip — so memory is bounded by peak queue depth, not by
    trace length (``max_open_spans`` is the guard-rail counter).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._f: Optional[IO[str]] = None
        self._first = True
        # (tenant, model, rid) -> queue-span start; re-opened on preempt.
        self._open: Dict[Tuple[str, str, int], float] = {}
        # chip -> that batch's span keys (for preempt re-opening).
        self._inflight: Dict[int, Tuple[Tuple[str, str, int], ...]] = {}
        self._tenant_tid: Dict[str, int] = {}
        self.n_events = 0
        self.bytes_written = 0
        self.max_open_spans = 0

    def _emit(self, text: str) -> None:
        prefix = "" if self._first else ",\n"
        self._first = False
        data = prefix + text
        self._f.write(data)
        self.n_events += 1
        self.bytes_written += len(data)

    def _emit_obj(self, obj: dict) -> None:
        self._emit(json.dumps(obj, separators=(",", ":")))

    def _meta(self, pid: int, tid: int, what: str, name: str) -> None:
        self._emit_obj(
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": what,
                "args": {"name": name},
            }
        )

    def _queue_tid(self, tenant: str) -> int:
        tid = self._tenant_tid.get(tenant)
        if tid is None:
            tid = self._tenant_tid[tenant] = len(self._tenant_tid)
            self._meta(
                _PID_QUEUES, tid, "thread_name",
                f"queue {tenant}" if tenant else "queue",
            )
        return tid

    def begin(self, cluster, policy) -> None:
        self._f = open(self.path, "w")
        self._f.write('{"traceEvents":[\n')
        self._meta(_PID_CHIPS, 0, "process_name", "chips")
        self._meta(_PID_QUEUES, 0, "process_name", "tenant queues")
        self._meta(_PID_EVENTS, 0, "process_name", "events")
        for name, tid in _INSTANT_TIDS.items():
            self._meta(_PID_EVENTS, tid, "thread_name", name)
        for c in range(cluster.n_chips):
            self._meta(
                _PID_CHIPS, c, "thread_name",
                f"chip {c} ({cluster.chip_type(c)})",
            )

    def _instant(self, track: str, t_ns: float, name: str, args: dict) -> None:
        self._emit_obj(
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

    def enqueue(self, t_ns, request) -> None:
        self._open[(request.tenant, request.model, request.request_id)] = t_ns
        if len(self._open) > self.max_open_spans:
            self.max_open_spans = len(self._open)

    def reject(self, t_ns, request, final, attempts) -> None:
        if final:
            self._instant(
                "reject", t_ns, f"reject {request.model}",
                {"rid": request.request_id, "tenant": request.tenant},
            )

    def dispatch(
        self, t_ns, chip_id, model, tenant, requests, finish_ns, overhead_ns
    ) -> None:
        tid = self._queue_tid(tenant)
        keys = []
        for r in requests:
            key = (tenant, model, r.request_id)
            keys.append(key)
            start = self._open.pop(key, t_ns)
            self._emit(
                f'{{"ph":"X","ts":{start / 1e3!r},'
                f'"dur":{(t_ns - start) / 1e3!r},'
                f'"pid":{_PID_QUEUES},"tid":{tid},'
                f'"name":{json.dumps(model)},'
                f'"args":{{"rid":{r.request_id}}}}}'
            )
        self._inflight[chip_id] = tuple(keys)

    def complete(
        self, t_ns, chip_id, model, tenant, requests, dispatch_ns, energy
    ) -> None:
        n = len(requests)
        self._emit(
            f'{{"ph":"X","ts":{dispatch_ns / 1e3!r},'
            f'"dur":{(t_ns - dispatch_ns) / 1e3!r},'
            f'"pid":{_PID_CHIPS},"tid":{chip_id},'
            f'"name":{json.dumps(f"{model} x{n}")},'
            f'"args":{{"n":{n},"tenant":{json.dumps(tenant)},'
            f'"energy_pj_per_req":{energy!r}}}}}'
        )
        self._inflight.pop(chip_id, None)

    def preempt(
        self, t_ns, chip_id, model, tenant, requests, wasted, by, finish_ns
    ) -> None:
        # The killed batch shows as its own (shorter) chip span, and its
        # requests go back to waiting: their queue spans re-open now.
        self._emit(
            f'{{"ph":"X","ts":{(t_ns - wasted) / 1e3!r},'
            f'"dur":{wasted / 1e3!r},'
            f'"pid":{_PID_CHIPS},"tid":{chip_id},'
            f'"name":{json.dumps(f"preempted {model} x{len(requests)}")},'
            f'"args":{{"by":{json.dumps(by)}}}}}'
        )
        self._instant(
            "preempt", t_ns, f"preempt {tenant or model}",
            {"chip": chip_id, "by": by, "wasted_ns": wasted},
        )
        for key in self._inflight.pop(chip_id, ()):
            self._open[key] = t_ns
        if len(self._open) > self.max_open_spans:
            self.max_open_spans = len(self._open)

    def decode_iter(self, t_ns, chip_id, model, n, ctx, finish_ns) -> None:
        # Each iteration is its own complete X span on the chip's track:
        # a decoding chip renders as a dense run of short spans, visually
        # distinct from the long prefill spans.
        self._emit(
            f'{{"ph":"X","ts":{t_ns / 1e3!r},'
            f'"dur":{(finish_ns - t_ns) / 1e3!r},'
            f'"pid":{_PID_CHIPS},"tid":{chip_id},'
            f'"name":{json.dumps(f"decode {model} x{n}")},'
            f'"args":{{"n":{n},"ctx":{ctx}}}}}'
        )

    def scale(self, t_ns, kind, n) -> None:
        self._instant("scale", t_ns, f"scale {kind}", {"n": n})

    def throttle(self, t_ns, group, engaged) -> None:
        self._instant(
            "throttle", t_ns,
            f"throttle {'engage' if engaged else 'release'}",
            {"group": group},
        )

    def spill(self, t_ns, src, dst) -> None:
        self._instant("spill", t_ns, f"spill {src}->{dst}", {"src": src, "dst": dst})

    def finish(self, makespan_ns) -> None:
        if self._f is not None:
            self._f.write('\n],"displayTimeUnit":"ms"}\n')
            self._f.close()
            self._f = None


def lifecycle_tracer(path: str):
    """Build the lifecycle-trace sink a path asks for.

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


class MetricsRecorder(Observer):
    """Sample run health on a fixed simulated-time grid.

    Each window of ``window_ms`` simulated milliseconds yields one row:
    offered arrivals, completions (and the implied throughput), final
    rejections, queue depth at the window boundary (the backlog), mean
    chip utilization inside the window (dispatch-time busy credit, so a
    batch spanning windows is split exactly), governor power draw
    (time-weighted mean; blank without a governor) and in-window
    completion latency percentiles — the same interpolation
    :func:`repro.serve.metrics.summarize` uses on the whole run.

    Rows accumulate in memory (one per window, never per request) and
    :meth:`write` lands them as CSV (default) or JSON by ``path``
    extension; passing ``path`` up front makes ``finish`` write
    automatically.
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
        self._w = 0  # current (unflushed) window index
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

    def begin(self, cluster, policy) -> None:
        self._n_chips = cluster.n_chips

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

    def _tick(self, t_ns: float) -> None:
        while (self._w + 1) * self.window_ns <= t_ns:
            self._flush()

    def _credit(self, a: float, b: float, sign: float) -> None:
        """Spread chip-busy nanoseconds [a, b) across window buckets."""
        w = int(a // self.window_ns)
        while a < b:
            end = (w + 1) * self.window_ns
            seg = (b if b < end else end) - a
            self._busy[w] = self._busy.get(w, 0.0) + sign * seg
            a = end
            w += 1

    def arrival(self, t_ns, request) -> None:
        self._tick(t_ns)
        self._arrivals += 1

    def enqueue(self, t_ns, request) -> None:
        self._tick(t_ns)
        self._depth += 1

    def reject(self, t_ns, request, final, attempts) -> None:
        self._tick(t_ns)
        if final:
            self._rejected += 1

    def dispatch(
        self, t_ns, chip_id, model, tenant, requests, finish_ns, overhead_ns
    ) -> None:
        self._tick(t_ns)
        self._depth -= len(requests)
        self._credit(t_ns, finish_ns, 1.0)

    def complete(
        self, t_ns, chip_id, model, tenant, requests, dispatch_ns, energy
    ) -> None:
        self._tick(t_ns)
        self._completions += len(requests)
        lat = self._lat_ms
        for r in requests:
            lat.append((t_ns - r.arrival_ns) * 1e-6)

    def preempt(
        self, t_ns, chip_id, model, tenant, requests, wasted, by, finish_ns
    ) -> None:
        # The victims queue again, and the chip-time their batch would
        # still have burned [now, finish) never happens — uncredit it.
        self._tick(t_ns)
        self._depth += len(requests)
        self._credit(t_ns, finish_ns, -1.0)

    def decode_iter(self, t_ns, chip_id, model, n, ctx, finish_ns) -> None:
        # Decode iterations occupy chips without a dispatch hook, so
        # utilization credit lands here (queue depth is untouched: the
        # requests left the queues at their prefill dispatch).
        self._tick(t_ns)
        self._credit(t_ns, finish_ns, 1.0)

    def power(self, t_ns, watts) -> None:
        # Integrate *before* ticking: draw is piecewise constant between
        # events, and the segment may straddle windows about to close.
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
        self._tick(t_ns)

    def finish(self, makespan_ns) -> None:
        if self._pw_last is not None and makespan_ns > self._pw_t:
            self.power(makespan_ns, self._pw_last)
        while self._w * self.window_ns < makespan_ns:
            self._flush()
        if self.path:
            self.write(self.path)

    def write(self, path: str) -> None:
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
