"""Span conservation (hypothesis): every request's event stream is well-formed.

Each run's JSONL lifecycle trace is regrouped into every request's full
lifecycle, and the properties assert the span grammar the trace formats
rely on::

    arr -> [rej]* (rej_final | enq (pre -> dsp)* dsp cmp)

* exactly one terminal event per offered request — a completion or a
  final rejection, never both, never two of either (no horizon-drops in
  these open-loop runs: the engine drains its queues);
* dispatch never precedes enqueue, and a request is enqueued before its
  first dispatch (same-instant is legal: zero-window batching dispatches
  at the arrival edge);
* every preemption is followed by a re-dispatch — dispatch count is
  exactly ``1 + preempt count`` for every completed request;
* per-request event timestamps are monotone non-decreasing.

Swept across the admission × tenancy × elastic composition grid (the
banned combinations — preemption under elastic scaling — are excluded,
matching the engine's own validation).  Engine runs are deterministic,
so every property is exact.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_probe import traced_run

from repro.serve import (
    FleetConfig,
    PolicyConfig,
    ServingConfig,
    WorkloadConfig,
)

_DURATION_S = 0.01

#: label -> per-group ServingConfig overrides — the composition axes.  Tenant
#: rate= limits exercise the per-tenant token-bucket rejection path, the
#: preempting config replays the tenancy suite's saturated-chip
#: scenario, and elastic runs scale a 1:4 band mid-run.
_MODES = {
    "plain": {},
    "tenants": dict(
        workload=dict(
            tenants="chat:interactive:w=4:poisson@2000,"
            "bulk:batch:poisson@20000:rate=8000",
        ),
        policy=dict(scheduler="weighted-fair"),
    ),
    "tenants-preempt": dict(
        workload=dict(
            tenants="chat:interactive:w=4:poisson@2000:deadline=0.08,"
            "bulk:batch:poisson@60000",
        ),
        policy=dict(scheduler="strict-priority", preemption=True),
        fleet=dict(fleet="yoco:1"),
    ),
    "elastic": dict(fleet=dict(elastic="1:4", fleet="yoco:4")),
}


def _config(mode, seed=0, rps=2000.0, admission=None):
    groups = _MODES[mode]
    return ServingConfig(
        workload=WorkloadConfig(
            models=("resnet18",),
            rps=rps,
            duration_s=_DURATION_S,
            seed=seed,
            **groups.get("workload", {}),
        ),
        fleet=FleetConfig(**{"fleet": "yoco:2", **groups.get("fleet", {})}),
        policy=PolicyConfig(admission=admission, **groups.get("policy", {})),
    )

_ADMISSIONS = (None, "queue-cap:8", "token-bucket:20000:16", "slo-aware")


class SpanCollector:
    """Per-request event sequences, regrouped from a lifecycle trace."""

    def __init__(self, events):
        self.spans = {}  # rid -> [(t_ns, kind)]
        self.n_scale = 0
        for ev in events:
            kind = ev["ev"]
            if kind in ("arr", "enq"):
                self._add(ev["rid"], ev["t"], kind)
            elif kind == "rej":
                self._add(ev["rid"], ev["t"], "rej_final" if ev["final"] else "rej")
            elif kind in ("dsp", "cmp", "pre"):
                for rid in ev["rids"]:
                    self._add(rid, ev["t"], kind)
            elif kind == "scale":
                self.n_scale += 1

    def _add(self, rid, t_ns, kind):
        self.spans.setdefault(rid, []).append((t_ns, kind))


def _assert_well_formed(spans):
    for rid, events in spans.items():
        kinds = [k for _, k in events]
        times = [t for t, _ in events]
        label = f"rid {rid}: {kinds}"
        assert times == sorted(times), f"non-monotone timestamps, {label}"
        assert kinds[0] == "arr", f"first event must be arrival, {label}"
        # Exactly one terminal event, and it is the last one.
        terminals = [k for k in kinds if k in ("cmp", "rej_final")]
        assert len(terminals) == 1, f"want one terminal event, {label}"
        assert kinds[-1] in ("cmp", "rej_final"), label
        n_dsp = kinds.count("dsp")
        n_pre = kinds.count("pre")
        if kinds[-1] == "cmp":
            # Preempts pair with re-dispatches, completion follows the
            # final dispatch.
            assert n_dsp == 1 + n_pre, f"unpaired preemption, {label}"
            assert "enq" in kinds, f"dispatched without enqueue, {label}"
            assert kinds.index("enq") < kinds.index("dsp"), label
        else:
            assert n_dsp == n_pre == 0, f"rejected yet dispatched, {label}"


@pytest.mark.parametrize("mode", sorted(_MODES))
class TestSpanConservation:
    @given(
        seed=st.integers(0, 2**20),
        rps=st.floats(5_000.0, 40_000.0),
        admission=st.sampled_from(_ADMISSIONS),
    )
    @settings(max_examples=15, deadline=None)
    def test_every_request_span_is_well_formed(
        self, mode, seed, rps, admission
    ):
        _, result, events = traced_run(_config(mode, seed, rps, admission))
        collector = SpanCollector(events)
        _assert_well_formed(collector.spans)
        # Conservation: every offered request's span terminates, and the
        # terminal tallies equal the engine's own accounting.
        terminal = [events[-1][1] for events in collector.spans.values()]
        assert terminal.count("cmp") == len(result.served)
        assert terminal.count("rej_final") == result.n_rejections
        assert len(collector.spans) == len(result.served) + result.n_rejections


class TestPreemptionPairing:
    """Deterministic counterweight: preemptions genuinely appear."""

    def _spans(self):
        _, result, events = traced_run(_config("tenants-preempt"))
        return SpanCollector(events), result

    def test_preempted_spans_redispatch_and_complete(self):
        collector, result = self._spans()
        preempted = {
            rid: [k for _, k in events]
            for rid, events in collector.spans.items()
            if any(k == "pre" for _, k in events)
        }
        assert result.n_preemptions > 0 and preempted
        for rid, kinds in preempted.items():
            assert kinds[-1] == "cmp"
            assert kinds.count("dsp") == 1 + kinds.count("pre")

    def test_elastic_scale_events_fire(self):
        _, _, events = traced_run(
            ServingConfig(
                workload=WorkloadConfig(
                    models=("resnet18",), rps=30_000.0, duration_s=0.05
                ),
                fleet=FleetConfig(fleet="yoco:4", elastic="1:4"),
            )
        )
        collector = SpanCollector(events)
        assert collector.n_scale > 0
        _assert_well_formed(collector.spans)
