"""Differential guard for the simulator's per-instance cost memo.

``ArchitectureSimulator`` prices each distinct layer shape, mapping plan
and workload roll-up once per instance.  A simulator that has already
priced other workloads — in shuffled order, on every zoo model, chip type,
residency, sequence length and batch size — must return exactly what a
fresh simulator returns, and two simulators must share no memo state.
"""

import dataclasses
import random

import pytest

import repro.arch.simulator as simulator_module
from repro.arch import ArchitectureSimulator
from repro.models import BENCHMARK_MODELS, TRANSFORMER_MODELS, get_workload
from repro.models.workload import (
    DecodeTemplate, GemmShape, LayerKind, LayerSpec, ModelKind, WorkloadSpec,
    at_seq_len,
)
from repro.serve.fleet import CHIP_TYPES

BATCH_SIZES = (1, 3, 8)


def _variants():
    """Every zoo model at its native shape and two re-derived lengths."""
    out = []
    for name in BENCHMARK_MODELS:
        native = get_workload(name)
        out.append(native)
        if native.seq_len:
            out += [
                at_seq_len(native, native.seq_len // 2),
                at_seq_len(native, 2 * native.seq_len),
            ]
    return out


def _price(sim, workload):
    """Every public output the serving layer and the benches read."""
    replicas = sim.replication_budget(workload)
    return (
        sim.run(workload),
        [sim.run_batch(workload, b) for b in BATCH_SIZES],
        sim.run_layer_pipelined(workload),
        [
            sim.simulate_layer(layer, overflow, n)
            for layer in workload.layers
            for overflow in (False, True)
            for n in (1, replicas)
        ],
    )


@pytest.mark.parametrize("resident", (True, False), ids=("resident", "streaming"))
@pytest.mark.parametrize("chip_type", sorted(CHIP_TYPES))
def test_warm_simulator_matches_fresh(chip_type, resident):
    spec = CHIP_TYPES[chip_type]()
    workloads = _variants()
    order = list(range(len(workloads)))
    random.Random(f"{chip_type}-{resident}").shuffle(order)
    warm = ArchitectureSimulator(spec, weights_resident=resident)
    for i in order:
        _price(warm, workloads[i])
    # Re-read in a second shuffled order, then on an equal-but-distinct
    # copy, so both memo hits and identity misses are compared.
    random.Random(f"{resident}-{chip_type}").shuffle(order)
    for i in order:
        workload = workloads[i]
        fresh = ArchitectureSimulator(spec, weights_resident=resident)
        expected = _price(fresh, workload)
        assert _price(warm, workload) == expected
        assert _price(warm, dataclasses.replace(workload)) == expected


@pytest.mark.parametrize("resident", (True, False), ids=("resident", "streaming"))
@pytest.mark.parametrize("chip_type", sorted(CHIP_TYPES))
@pytest.mark.parametrize("name", TRANSFORMER_MODELS)
def test_warm_decode_contexts_price_a_new_context_like_fresh(
    name, chip_type, resident
):
    # Decode contexts of one template share every layer object but the
    # attention layers, so a simulator warm from other contexts copies
    # the shared layers' costs; a new context must still price exactly as
    # on a fresh simulator, also after prefill shapes came in between.
    spec = CHIP_TYPES[chip_type]()
    native = get_workload(name)
    template = DecodeTemplate(native)
    warm = ArchitectureSimulator(spec, weights_resident=resident)
    for context_len in (1, 64, native.seq_len, 3 * native.seq_len):
        _price(warm, template.at(context_len))
    _price(warm, native)
    _price(warm, at_seq_len(native, native.seq_len // 2))
    for context_len in (2, native.seq_len + 1):
        workload = template.at(context_len)
        fresh = ArchitectureSimulator(spec, weights_resident=resident)
        assert _price(warm, workload) == _price(fresh, workload)


@pytest.mark.parametrize("resident", (True, False), ids=("resident", "streaming"))
def test_a_shared_first_layer_under_another_budget_is_costed_afresh(resident):
    # Two workloads that start with one layer object but differ in total
    # weights get different replica budgets (and overflow sets), so the
    # second may copy nothing from the first.
    first = LayerSpec("l0", LayerKind.FC, GemmShape(4096, 256, 256))
    small = WorkloadSpec("w", ModelKind.CNN, (
        first, LayerSpec("l1", LayerKind.FC, GemmShape(1, 256, 256)),
    ))
    large = WorkloadSpec("w", ModelKind.CNN, (
        first, LayerSpec("l1", LayerKind.FC, GemmShape(1, 16384, 16384)),
        LayerSpec("l2", LayerKind.FC, GemmShape(1, 16384, 16384)),
    ))
    same_length = dataclasses.replace(large, layers=large.layers[:2])
    warm = ArchitectureSimulator(weights_resident=resident)
    assert warm.replication_budget(small) != warm.replication_budget(large)
    # The budget changes the first layer's own cost.
    assert warm.simulate_layer(first, False, warm.replication_budget(small)) != (
        warm.simulate_layer(first, False, warm.replication_budget(large))
    )
    for workload in (small, large, same_length, dataclasses.replace(small)):
        fresh = ArchitectureSimulator(weights_resident=resident)
        assert _price(warm, workload) == _price(fresh, workload)


def test_a_new_decode_context_costs_only_its_attention_layers(monkeypatch):
    native = get_workload("mobilebert")
    template = DecodeTemplate(native)
    sim = ArchitectureSimulator()
    sim.run_batch(template.at(64), 2)
    costed = []
    real = sim.simulate_layer

    def counting(layer, *args):
        costed.append(layer.kind)
        return real(layer, *args)

    monkeypatch.setattr(sim, "simulate_layer", counting)
    sim.run_batch(template.at(65), 2)
    attention = {LayerKind.ATTENTION_SCORE, LayerKind.ATTENTION_CONTEXT}
    assert set(costed) == attention
    assert len(costed) == sum(layer.kind in attention for layer in native.layers)


def test_run_batch_one_is_run_on_a_warm_simulator():
    sim = ArchitectureSimulator()
    workloads = _variants()
    for workload in workloads:
        sim.run_batch(workload, 8)
    for workload in workloads:
        batch = sim.run_batch(workload, 1)
        run = sim.run(workload)
        assert batch.run == run
        assert batch.latency_ns == run.latency_ns
        assert batch.energy_pj == run.energy_pj


def test_shared_shape_keeps_each_layer_name():
    layers = [
        layer for layer in get_workload("mobilebert").layers
        if layer.gemm == get_workload("mobilebert").layers[0].gemm
    ]
    assert len(layers) > 1
    sim = ArchitectureSimulator()
    costs = [sim.simulate_layer(layer) for layer in layers]
    assert [c.layer_name for c in costs] == [layer.name for layer in layers]
    first = costs[0]
    for cost in costs[1:]:
        assert dataclasses.replace(cost, layer_name=first.layer_name) == first


def test_cost_key_covers_every_layer_field_but_the_name():
    # simulate_layer keys its memo on these fields; a new LayerSpec field
    # must join the key, or two layers differing only in it would share
    # one cost.
    fields = {f.name for f in dataclasses.fields(LayerSpec)}
    assert fields == {"name", "kind", "gemm", "static_weights", "repeat"}


@pytest.mark.parametrize("chip_type", sorted(CHIP_TYPES))
def test_layers_differing_in_one_field_are_priced_apart(chip_type):
    # The zoo ties static_weights to kind and rarely repeats a GEMM at two
    # repeat counts, so probe each key field on its own.
    base = LayerSpec("l0", LayerKind.PROJECTION, GemmShape(4, 96, 40))
    variants = [
        base,
        dataclasses.replace(base, name="l1", kind=LayerKind.FFN),
        dataclasses.replace(base, name="l2", static_weights=False),
        dataclasses.replace(base, name="l3", repeat=3),
        dataclasses.replace(base, name="l4", gemm=GemmShape(4, 96, 41)),
        dataclasses.replace(base, name="l5", gemm=GemmShape(5, 96, 40)),
    ]
    spec = CHIP_TYPES[chip_type]()
    warm = ArchitectureSimulator(spec)
    for layer in variants:
        for overflow in (False, True):
            for replicas in (1, 2):
                fresh = ArchitectureSimulator(spec)
                assert warm.simulate_layer(
                    layer, overflow, replicas
                ) == fresh.simulate_layer(layer, overflow, replicas)


def test_simulators_share_no_memo_state(monkeypatch):
    calls = []
    real = simulator_module.map_layer

    def counting(layer, spec):
        calls.append(layer)
        return real(layer, spec)

    monkeypatch.setattr(simulator_module, "map_layer", counting)
    workload = get_workload("mobilebert")
    a = ArchitectureSimulator()
    b = ArchitectureSimulator()
    memo_a = {k: v for k, v in vars(a).items() if isinstance(v, dict)}
    memo_b = {k: v for k, v in vars(b).items() if isinstance(v, dict)}
    assert memo_a and memo_a.keys() == memo_b.keys()
    for key in memo_a:
        assert memo_a[key] is not memo_b[key]

    a.run_batch(workload, 4)
    mapped_by_a = len(calls)
    assert 0 < mapped_by_a < len(workload.layers)  # one map per shape
    assert all(not memo for memo in memo_b.values())
    a.run_batch(workload, 2)
    assert len(calls) == mapped_by_a  # warm: nothing re-mapped
    b.run_batch(workload, 4)
    assert len(calls) == 2 * mapped_by_a  # b priced it from scratch
