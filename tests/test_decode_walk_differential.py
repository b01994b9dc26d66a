"""Differential check of the decode loop's kept-chip and in-place paths.

A decode completion may relaunch its FIFO on the chip it holds, and,
while no event log and no power governor is attached, complete the
following iterations in place instead of through the event heap.  An
event log turns the in-place walk off; an unconstrained power governor
does too, while kept-chip relaunches stay on.  Hypothesis draws decode
configs (uniform ``yoco:N`` fleets, the priced ``yoco:2,isaac:2``,
``prefill-decode``, one or two models, every batch cap from 1 to 8, KV
page sizes, output-length caps, and offered rates up to about the fleet's
capacity) and runs each three ways.  The results must be object for
object the same, and so must the engine's work counters, profile
included.
"""

import dataclasses
import os
import tempfile

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.serve import (
    DECODE_DISTS,
    DecodeConfig,
    FleetConfig,
    ObserveConfig,
    PolicyConfig,
    PowerConfig,
    ServingConfig,
    WorkloadConfig,
    simulate_serving,
)

#: (fleet, placement, chips)
FLEETS = (
    ("yoco:1", "replicated", 1),
    ("yoco:2", "replicated", 2),
    ("yoco:4", "replicated", 4),
    ("yoco:2,isaac:2", "replicated", 4),
    ("yoco:2,isaac:2", "prefill-decode", 4),
    ("yoco:1,yoco:2", "prefill-decode", 3),
)

#: Rough mobilebert decode-run capacity per chip, in requests/s, at the
#: means drawn below (a ~140 us prefill plus ~6 us per token).
PER_CHIP_RPS = 3000.0


@st.composite
def decode_configs(draw):
    fleet, placement, chips = draw(st.sampled_from(FLEETS))
    models = draw(st.sampled_from((("mobilebert",), ("mobilebert", "qdqbert"))))
    load = draw(st.floats(0.2, 1.0))
    workload = WorkloadConfig(
        models=models,
        rps=load * PER_CHIP_RPS * chips / len(models),
        duration_s=0.02,
        seed=draw(st.integers(0, 2**16)),
    )
    policy = PolicyConfig(
        max_batch_size=draw(st.integers(1, 8)),
        window_ms=draw(st.sampled_from((0.0, 0.05, 0.2))),
    )
    decode = DecodeConfig(
        dist=draw(st.sampled_from(DECODE_DISTS)),
        mean_tokens=draw(st.integers(4, 32)),
        max_tokens=draw(st.one_of(st.none(), st.integers(1, 48))),
        page_tokens=draw(st.sampled_from((1, 4, 16, 32))),
    )
    return ServingConfig(
        workload=workload,
        fleet=FleetConfig(fleet=fleet, placement=placement),
        policy=policy,
        observe=ObserveConfig(profile_engine=True),
        decode=decode,
    )


def _with(config, section, **changes):
    return dataclasses.replace(
        config, **{section: dataclasses.replace(getattr(config, section), **changes)}
    )


@given(config=decode_configs())
@settings(max_examples=40, deadline=None)
def test_log_and_governor_leave_the_decode_run_unchanged(config):
    _, plain = simulate_serving(config)
    assume(plain.n_decode_iters > 0)
    with tempfile.TemporaryDirectory() as tmp:
        _, logged = simulate_serving(
            _with(config, "observe", trace_file=os.path.join(tmp, "t.jsonl"))
        )
    _, governed = simulate_serving(_with(config, "fleet", power=PowerConfig()))
    assert governed.power is not None
    assert logged == plain
    assert dataclasses.replace(governed, power=None) == plain
    assert logged.stats == plain.stats
    assert governed.stats == plain.stats
