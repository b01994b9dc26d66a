"""Golden guard for same-timestamp ordering in the general event loop.

Eight runs whose events pile up at identical instants, pinned bit for bit
by a sha256 digest over every served record, the per-chip busy time, the
preemption records, the rejected requests and the elastic scaling trace:

* ``decode_bursts`` — a ``yoco:4`` decode run with fixed output lengths
  and arrivals in bursts at identical timestamps, so several chips finish
  their prefill batches and decode iterations at the same instant;
* ``decode_overfull_ties`` — eight decode requests at one instant on
  ``yoco:2`` under a batch cap of 1, so both chips finish decode
  iterations together while the decode FIFO holds more than one batch:
  the first completion of the instant must re-form two iterations;
* ``decode_walk_ties`` — two models' decode streams on ``yoco:4`` whose
  completions share their instant with a trace arrival, a window timer,
  a prefill completion on a lower-id chip and a second decode stream's
  completion (:func:`decode_walk_ties`);
* ``decode_walk_pending`` — one instant launches a long prefill batch
  and then a short decode iteration under ``prefill-decode`` on
  ``yoco:1,yoco:1``, so the iteration's completion pops before the
  held prefill completion, which its decode stream must not run past;
* ``decode_page_edges`` — one decode stream under 2-token KV pages on
  a ``prefill-decode`` ``yoco:1,yoco:1`` fleet: at one instant a member
  crosses a page, another finishes and a prefill completion adds a
  joiner; later a joiner arrives mid-iteration of a one-member stream
  that no page edge or leaver would otherwise re-form
  (:func:`decode_page_edges`);
* ``elastic_diurnal`` — a diurnal ``1:8`` autoscaled run whose
  controller drains chips while they are still busy (they park at their
  completion instant);
* ``wfq_preempt_mixed`` — weighted-fair scheduling with preemption on a
  mixed ``yoco:2,isaac:2`` fleet;
* ``buckets_preempt_shed`` — two tenants with sampled sequence lengths on
  one chip, so preempted batches re-queue into seqlen buckets while
  slo-aware admission sheds arrivals.

Regenerate the goldens only on an intentional behaviour change::

    PYTHONPATH=src python tests/test_tie_goldens.py --write
"""

import functools
import hashlib
import json
import pathlib
import sys

import pytest

from repro.models import get_workload
from repro.serve import (
    BatchingPolicy,
    Cluster,
    DecodeConfig,
    Request,
    ServingEngine,
    simulate_serving,
)
from repro.serve.config import (
    FleetConfig,
    PolicyConfig,
    ServingConfig,
    WorkloadConfig,
)
from repro.serve.observe import ARR, CMP, DIT, DSP, EventLog

DIGESTS = pathlib.Path(__file__).parent / "data" / "golden_tie_digests.json"


def _decode_bursts():
    # 24 bursts of 8 identical-timestamp arrivals; batches of 2 fill all
    # four chips at once, so their completions tie.
    trace = [
        Request(i, "mobilebert", (i // 8) * 40_000.0, decode_tokens=6)
        for i in range(192)
    ]
    engine = ServingEngine(
        Cluster([get_workload("mobilebert")], fleet="yoco:4"),
        BatchingPolicy(max_batch_size=2, window_ns=0.0),
        decode=DecodeConfig(dist="fixed", mean_tokens=6),
    )
    return engine.run(trace)


def _decode_overfull_ties():
    trace = [Request(i, "mobilebert", 0.0, decode_tokens=6) for i in range(8)]
    engine = ServingEngine(
        Cluster([get_workload("mobilebert")], fleet="yoco:2"),
        BatchingPolicy(max_batch_size=1, window_ns=0.0),
        decode=DecodeConfig(dist="fixed", mean_tokens=6),
    )
    return engine.run(trace)


_WALK_WINDOW_NS = 48_000.0

#: (model, arrival ns, decode tokens) of the ``decode_walk_ties`` trace.
#: Every mobilebert and qdqbert price on ``yoco`` is a multiple of 48 ns,
#: so each instant below is exact.
_WALK_TIES = (
    # A lone mobilebert request waits out its 48 us window and prefills on
    # chip 1 (a qdqbert pair without decode took chip 0 at 14,688 ns); it
    # decodes on chip 1 from 188,160 ns.
    ("mobilebert", 0, 60),
    # The pair's prefill finishes at 14,688 + 370,944 = 385,632 ns, the
    # stream's 34th decode completion: a prefill completes on a lower-id
    # chip at a decode completion, and the stream moves down to chip 0.
    ("qdqbert", 14_688, 0),
    ("qdqbert", 14_688, 0),
    # Arrives alone; its window expires at 410,016 ns, a decode completion.
    ("mobilebert", 362_016, 24),
    # A pair arrives at 397,824 ns, a decode completion; it decodes later
    # as a stream of its own.
    ("qdqbert", 397_824, 12),
    ("qdqbert", 397_824, 12),
    # Two prefill batches finish together at 840,336 ns and decode as two
    # streams in lockstep on chips 0 and 1, completing at the same
    # instants.  The 10-token member leaves its stream early, which
    # breaks the lockstep; the chip-0 stream then ends mid-iteration of
    # the chip-1 one, which moves down to chip 0 at its next completion.
    ("mobilebert", 560_016, 10),
    ("mobilebert", 560_016, 16),
    ("mobilebert", 560_016, 16),
    ("mobilebert", 560_016, 16),
)


def decode_walk_ties(profile: bool = False, log=None):
    """Run the ``decode_walk_ties`` trace (see :data:`_WALK_TIES`)."""
    trace = [
        Request(i, model, float(t), decode_tokens=tokens)
        for i, (model, t, tokens) in enumerate(_WALK_TIES)
    ]
    engine = ServingEngine(
        Cluster(
            [get_workload("mobilebert"), get_workload("qdqbert")],
            fleet="yoco:4",
        ),
        BatchingPolicy(max_batch_size=2, window_ns=_WALK_WINDOW_NS),
        profile=profile,
        decode=DecodeConfig(dist="fixed", mean_tokens=16),
    )
    return engine.run(trace, log=log)


def _decode_walk_pending():
    # A lone qdqbert request waits out its window while a mobilebert pair
    # prefills on chip 0.  When the pair finishes at 280,416 ns, the scan
    # launches the older qdqbert request's prefill there first (the held
    # completion, at 465,888 ns), then the pair's first decode iteration
    # on chip 1, the only decode chip; the pair's stream then decodes
    # past 465,888 ns, when the qdqbert request joins its FIFO and waits
    # for chip 1.
    trace = [
        Request(0, "qdqbert", 0.0, decode_tokens=5),
        Request(1, "mobilebert", 96.0, decode_tokens=30),
        Request(2, "mobilebert", 96.0, decode_tokens=30),
    ]
    engine = ServingEngine(
        Cluster(
            [get_workload("mobilebert"), get_workload("qdqbert")],
            fleet="yoco:1,yoco:1", placement="prefill-decode",
        ),
        BatchingPolicy(max_batch_size=2, window_ns=48_000.0),
        decode=DecodeConfig(dist="fixed", mean_tokens=30),
    )
    return engine.run(trace)


#: (arrival ns, decode tokens) of the ``decode_page_edges`` mobilebert
#: trace, at the native 128-token context.
_PAGE_EDGES = (
    # A pair prefills on chip 0 until 234,240 ns, then decodes on chip 1
    # with both contexts on one parity, so every other iteration crosses
    # a 2-token page for both.
    (0, 24),
    # Leaves at its 15th iteration's completion, 359,328 ns, where the
    # partner's context crosses from the 142- to the 144-token page.
    (0, 15),
    # Alone, prefills on chip 0 from its window's end (242,208 ns) to
    # 359,328 ns, and joins the FIFO at the same instant.
    (194_208, 30),
    # Prefills from 367,880 ns to 485,000 ns and joins mid-iteration of
    # the previous request's one-member stream, which holds an odd
    # context: no page edge and no leaver re-form that stream's batch.
    (319_880, 8),
)


def decode_page_edges(profile: bool = False, log=None):
    """Run the ``decode_page_edges`` trace (see :data:`_PAGE_EDGES`)."""
    trace = [
        Request(i, "mobilebert", float(t), decode_tokens=tokens)
        for i, (t, tokens) in enumerate(_PAGE_EDGES)
    ]
    engine = ServingEngine(
        Cluster(
            [get_workload("mobilebert")],
            fleet="yoco:1,yoco:1", placement="prefill-decode",
        ),
        BatchingPolicy(max_batch_size=2, window_ns=48_000.0),
        profile=profile,
        decode=DecodeConfig(dist="fixed", mean_tokens=8, page_tokens=2),
    )
    return engine.run(trace, log=log)


def _elastic_diurnal():
    return simulate_serving(
        ServingConfig(
            workload=WorkloadConfig(
                models=("mobilebert",), rps=20000.0, duration_s=0.1,
                trace_kind="diurnal", seed=0,
            ),
            fleet=FleetConfig(fleet="yoco:8", elastic="1:8"),
        )
    )[1]


def _wfq_preempt_mixed():
    return simulate_serving(
        ServingConfig(
            workload=WorkloadConfig(
                models=("resnet18", "mobilebert"), duration_s=0.05, seed=0,
                tenants=(
                    "chat:interactive:w=4:model=resnet18:poisson@3000,"
                    "bulk:best-effort:model=mobilebert:poisson@20000"
                ),
            ),
            fleet=FleetConfig(fleet="yoco:2,isaac:2"),
            policy=PolicyConfig(scheduler="weighted-fair", preemption=True),
        )
    )[1]


def _buckets_preempt_shed():
    return simulate_serving(
        ServingConfig(
            workload=WorkloadConfig(
                models=("mobilebert",), duration_s=0.02, seed=0,
                tenants=(
                    "chat:interactive:w=4:poisson@1000:deadline=0.5:"
                    "seqlen=lognormal,"
                    "bulk:batch:poisson@20000:seqlen=uniform"
                ),
            ),
            fleet=FleetConfig(fleet="yoco:1"),
            policy=PolicyConfig(
                scheduler="weighted-fair", preemption=True,
                admission="slo-aware",
            ),
        )
    )[1]


SCENARIOS = {
    "buckets_preempt_shed": _buckets_preempt_shed,
    "decode_bursts": _decode_bursts,
    "decode_overfull_ties": _decode_overfull_ties,
    "decode_page_edges": decode_page_edges,
    "decode_walk_pending": _decode_walk_pending,
    "decode_walk_ties": decode_walk_ties,
    "elastic_diurnal": _elastic_diurnal,
    "wfq_preempt_mixed": _wfq_preempt_mixed,
}


@functools.lru_cache(maxsize=None)
def _run(scenario: str):
    return SCENARIOS[scenario]()


def tie_digest(result) -> str:
    """Bit-exact fingerprint of a run; ``repr`` keeps full float precision."""
    lines = [
        f"{s.request.request_id} {s.request.model} {s.request.tenant} "
        f"{s.chip_id} {s.batch_size} {s.dispatch_ns!r} {s.finish_ns!r} "
        f"{s.energy_pj!r} {s.padded_seq_len} {s.first_token_ns!r} "
        f"{s.decode_tokens} {s.kv_bytes!r} {s.kv_overflow_bytes!r}"
        for s in result.served
    ]
    lines.append("busy " + " ".join(repr(b) for b in result.chip_busy_ns))
    lines.append(f"makespan {result.makespan_ns!r} batches {result.n_batches}")
    lines.append(f"iters {result.n_decode_iters} tokens {result.n_decode_tokens}")
    lines.extend(repr(p) for p in result.preempted)
    lines.extend(repr(r) for r in result.rejected)
    if result.elastic is not None:
        lines.extend(repr(a) for a in result.elastic.actions)
        lines.append(repr(result.elastic.timeline))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden_digests():
    with open(DIGESTS) as f:
        return json.load(f)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_tie_run_reproduces_golden(scenario, golden_digests):
    assert tie_digest(_run(scenario)) == golden_digests[scenario]


class TestScenariosStressTies:
    """Each golden exercises the equal-timestamp behaviour it claims."""

    def test_decode_chips_finish_at_the_same_instant(self):
        # More requests than one batch of 2 share a prefill dispatch and
        # first-token instant, so several chips finished together.
        result = _run("decode_bursts")
        stamps = {}
        for s in result.served:
            key = (s.dispatch_ns, s.first_token_ns)
            stamps[key] = stamps.get(key, 0) + 1
        assert max(stamps.values()) > 2
        assert result.n_decode_iters > 0

    def test_decode_iterations_finish_together_on_both_chips(self):
        # A batch cap of 1 makes each iteration one request, so requests
        # finishing at one instant on both chips are tied iterations.
        result = _run("decode_overfull_ties")
        chips_at = {}
        for s in result.served:
            chips_at.setdefault(s.finish_ns, set()).add(s.chip_id)
        assert {0, 1} in chips_at.values()
        assert result.n_decode_iters == 8 * 6

    def test_decode_completions_share_their_instants(self):
        # The logged run replays the unlogged one; its events show what
        # each decode completion instant shares.
        events = _Events()
        assert decode_walk_ties(log=EventLog([events])) == _run(
            "decode_walk_ties"
        )
        done = {}  # decode completion instant -> chips
        arrivals, arrived, windows, prefills = set(), {}, set(), []
        for e in events.events:
            if e[0] == DIT:
                done.setdefault(e[6], []).append(e[2])
            elif e[0] == ARR:
                arrivals.add(e[1])
                arrived[e[2]] = e[1]
            elif e[0] == DSP and len(e[5]) == 1:
                if arrived[e[5][0]] + _WALK_WINDOW_NS == e[1]:
                    windows.add(e[1])
            elif e[0] == CMP:
                prefills.append((e[1], e[2]))
        assert arrivals & done.keys()
        assert windows & done.keys()
        assert any(
            c < max(done.get(t, [-1])) for t, c in prefills
        )
        assert any(len(set(chips)) > 1 for chips in done.values())

    def test_decode_stream_runs_past_a_held_prefill(self):
        result = _run("decode_walk_pending")
        qdq, pair = result.served[0], result.served[1]
        assert qdq.dispatch_ns == pair.first_token_ns == 280_416.0
        # The pair decodes on chip 1 until after the qdqbert prefill ends;
        # qdqbert's own decode takes chip 1 only later.
        assert pair.chip_id == qdq.chip_id == 1
        assert qdq.first_token_ns == 465_888.0 < pair.finish_ns

    def test_decode_stream_meets_page_edges_leavers_and_joiners(self):
        events = _Events()
        assert decode_page_edges(log=EventLog([events])) == _run(
            "decode_page_edges"
        )
        # DIT events: (kind, start, chip, model, take, ctx_pad, finish).
        iters = [e for e in events.events if e[0] == DIT]
        a, b, c, d = _run("decode_page_edges").served
        # At 359,328 ns the pair's iteration at the 142-token page ends:
        # one member leaves, the other's next iteration pads to 144, and
        # a prefill completion adds a joiner.
        edge = b.finish_ns
        assert edge == c.first_token_ns == 359_328.0
        (ended,) = [e for e in iters if e[6] == edge]
        assert ended[4] == 2 and ended[5] == 142
        assert [e[5] for e in iters if e[1] > edge and e[4] == 2][0] == 144
        # The last joiner lands strictly inside a one-member iteration and
        # enters the very next one.
        (during,) = [e for e in iters if e[1] < d.first_token_ns < e[6]]
        (after,) = [e for e in iters if e[1] == during[6]]
        assert during[4] == 1 and after[4] == 2
        assert a.finish_ns < d.first_token_ns

    def test_elastic_run_drains_busy_chips(self):
        # An idle drained chip parks at the decision instant; a busy one
        # parks later, at its completion.
        elastic = _run("elastic_diurnal").elastic
        drains = {a.t_ns for a in elastic.actions if a.kind == "drain"}
        parks = [
            t for (t, n), (_, before) in zip(
                elastic.timeline[1:], elastic.timeline
            )
            if n < before
        ]
        assert drains
        assert any(t not in drains for t in parks)

    def test_bucketed_run_preempts_and_sheds(self):
        result = _run("buckets_preempt_shed")
        assert result.preempted and result.rejected
        assert len(set(result.served.column("padded_seq_len").tolist())) > 1

    def test_mixed_fleet_preempts(self):
        result = _run("wfq_preempt_mixed")
        assert result.preempted
        assert {s.chip_id for s in result.served} == {0, 1, 2, 3}


class _Events:
    """An event-log renderer that keeps every event."""

    def __init__(self):
        self.events = []

    def write(self, chunk):
        self.events.extend(chunk)

    def close(self, makespan_ns):
        pass


def _write() -> None:
    digests = {name: tie_digest(_run(name)) for name in sorted(SCENARIOS)}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_tie_goldens.py --write")
    _write()
