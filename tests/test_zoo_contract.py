"""The serve contract, swept across the entire model zoo.

`repro.serve` consumes exactly three `ArchitectureSimulator` outputs plus
two capacity hooks (see the simulator module docstring).  The existing
serve tests pin the contract on two models; this sweep asserts it for
*every* zoo model under *both* residency accountings, so a future arch
refactor cannot silently break serving for the eight models the serve
suite never instantiates:

* ``run_batch(w, 1) == run(w)`` — exact float equality, not approx: the
  engine's batch-1 energy accounting is defined as *identical* to the
  single-inference roll-up — and not just for YOCO: every registered
  fleet chip type (the ISAAC/TIMELY/RAELLA baseline re-models behind
  :func:`repro.serve.fleet.backend_for`) must honor it, because a
  heterogeneous cluster's energy accounting leans on the invariant for
  whichever backend a batch happens to route to;
* ``replication_budget`` / ``overflow_layers`` are consistent with the
  spec's weight capacity and with each other;
* ``run_batch(w, B)`` equals, bit for bit, the per-layer loop it is
  defined by (:func:`_reference_run_batch`), at every batch size;
* a decode step derives exactly as re-deriving at the context length and
  then collapsing the token axis (:func:`_reference_decode_step`).
"""

import dataclasses
import math

import pytest

from repro.arch import ArchitectureSimulator, yoco_spec
from repro.arch.mapper import map_layer
from repro.models import BENCHMARK_MODELS, TRANSFORMER_MODELS, get_workload
from repro.models.workload import (
    DecodeTemplate, GemmShape, LayerKind, LayerSpec, at_decode_step, at_seq_len,
)
from repro.serve.fleet import CHIP_TYPES, backend_for, fleet_group

BATCH_SIZES = (1, 2, 3, 8, 17)


def _reference_run_batch(sim, workload, batch_size):
    """``(latency_ns, energy_pj)`` of a batch, one layer at a time.

    The simulator's definition of a batch: each layer issues its
    ``batch_size x vmm_count`` VMMs in waves over its replicated tiles,
    dynamic operands are written per inference, overflow weights stream
    once per batch, and the per-layer costs add up in layer order.
    """
    spec = sim.spec
    fresh = ArchitectureSimulator(spec, weights_resident=sim.weights_resident)
    replicas = fresh.replication_budget(workload)
    overflow = fresh.overflow_layers(workload)
    latency = 0.0
    energy = 0.0
    for layer in workload.layers:
        plan = map_layer(layer, spec)
        cost = fresh.simulate_layer(layer, layer.name in overflow, replicas)
        layer_replicas = replicas if layer.static_weights else 1
        effective_units = min(
            spec.n_units, plan.tiles_per_instance * max(1, layer_replicas)
        )
        waves = math.ceil(batch_size * plan.vmm_count / effective_units)
        compute_ns = waves * spec.unit_vmm_latency_ns
        if not layer.static_weights:
            rows = min(layer.gemm.k, spec.unit_input_dim)
            compute_ns += batch_size * rows * spec.dynamic_write_ns_per_row
        offchip_pj = 0.0
        if layer.name in overflow:
            offchip_pj = layer.weight_bytes * 8 * spec.offchip_pj_per_bit
        latency += max(compute_ns, cost.data_latency_ns)
        energy += batch_size * cost.energy_pj - (batch_size - 1) * offchip_pj
    return latency, energy


def _reference_decode_step(workload, context_len):
    """A decode step in two steps: re-derive the workload at
    ``context_len``, then collapse every token axis to one new token,
    deciding what is a token axis on the native layer."""
    ctx = at_seq_len(workload, context_len)
    layers = []
    for layer, native in zip(ctx.layers, workload.layers):
        gemm = layer.gemm
        if layer.kind in (LayerKind.PROJECTION, LayerKind.FFN):
            if native.gemm.m != workload.seq_len:
                layers.append(layer)
                continue
            new_gemm = GemmShape(m=1, k=gemm.k, n=gemm.n)
        elif layer.kind == LayerKind.ATTENTION_SCORE:
            new_gemm = GemmShape(m=1, k=gemm.k, n=context_len)
        elif layer.kind == LayerKind.ATTENTION_CONTEXT:
            new_gemm = GemmShape(m=1, k=context_len, n=gemm.n)
        else:
            layers.append(layer)
            continue
        layers.append(LayerSpec(
            layer.name, layer.kind, new_gemm, layer.static_weights,
            layer.repeat,
        ))
    return dataclasses.replace(ctx, layers=tuple(layers), seq_len=context_len)


@pytest.fixture(scope="module")
def workloads():
    return {name: get_workload(name) for name in BENCHMARK_MODELS}


@pytest.mark.parametrize("chip_type", sorted(CHIP_TYPES))
@pytest.mark.parametrize("name", BENCHMARK_MODELS)
@pytest.mark.parametrize("resident", (True, False), ids=("resident", "streaming"))
class TestBatchOneContract:
    def test_run_batch_one_is_run_exactly(
        self, name, resident, chip_type, workloads
    ):
        workload = workloads[name]
        sim = backend_for(
            fleet_group(chip_type, n_chips=1), weights_resident=resident
        )
        run = sim.run(workload)
        batch = sim.run_batch(workload, 1)
        # Exact equality — by construction, not within tolerance.
        assert batch.latency_ns == run.latency_ns
        assert batch.energy_pj == run.energy_pj
        assert batch.run == run
        assert batch.batch_size == 1
        assert batch.energy_per_inference_pj == run.energy_pj
        assert batch.latency_per_inference_ns == run.latency_ns

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_run_batch_is_the_per_layer_loop_exactly(
        self, name, resident, chip_type, workloads, batch_size
    ):
        workload = workloads[name]
        sim = backend_for(
            fleet_group(chip_type, n_chips=1), weights_resident=resident
        )
        batch = sim.run_batch(workload, batch_size)
        assert (batch.latency_ns, batch.energy_pj) == _reference_run_batch(
            sim, workload, batch_size
        )
        assert type(batch.latency_ns) is float
        assert type(batch.energy_pj) is float

    def test_pipelined_stream_is_consistent(
        self, name, resident, chip_type, workloads
    ):
        """The third contract output, for every backend a group may run
        ``pipelined``: energy rides on the same batch-1 roll-up and the
        steady interval can never beat the pipeline fill."""
        workload = workloads[name]
        sim = backend_for(
            fleet_group(chip_type, n_chips=1), weights_resident=resident
        )
        stream = sim.run_layer_pipelined(workload)
        assert stream.run == sim.run(workload)
        assert stream.interval_ns > 0
        assert stream.fill_ns > 0
        assert stream.oversubscription >= 1.0
        if stream.oversubscription == 1.0:
            # With no unit time-sharing the steady interval (slowest layer,
            # or the serialized off-chip stream) cannot beat the fill.
            assert stream.interval_ns <= stream.fill_ns


@pytest.mark.parametrize("name", BENCHMARK_MODELS)
class TestCapacityHooks:
    def test_replication_budget_matches_capacity(self, name, workloads):
        workload = workloads[name]
        spec = yoco_spec()
        sim = ArchitectureSimulator(spec)
        budget = sim.replication_budget(workload)
        assert budget >= 1
        weights = workload.total_weight_bytes
        if weights == 0:
            assert budget == spec.n_units
        else:
            # floor(capacity / weights), floored at one copy.
            assert budget == max(1, spec.weight_capacity_bytes // weights)
            if weights <= spec.weight_capacity_bytes:
                assert budget * weights <= spec.weight_capacity_bytes

    def test_overflow_layers_consistency(self, name, workloads):
        workload = workloads[name]
        spec = yoco_spec()
        resident = ArchitectureSimulator(spec, weights_resident=True)
        streaming = ArchitectureSimulator(spec, weights_resident=False)
        # The paper's methodology never overflows.
        assert resident.overflow_layers(workload) == set()
        overflow = streaming.overflow_layers(workload)
        layer_by_name = {l.name: l for l in workload.layers}
        assert overflow <= set(layer_by_name)
        # Only weight-carrying (static) layers can overflow.
        assert all(layer_by_name[n].weight_bytes > 0 for n in overflow)
        fits = workload.total_weight_bytes <= spec.weight_capacity_bytes
        if fits:
            assert overflow == set()
        else:
            assert overflow
            # First-fit conservation: what stayed on chip fits the capacity.
            pinned = sum(
                l.weight_bytes for l in workload.layers if l.name not in overflow
            )
            assert pinned <= spec.weight_capacity_bytes

    def test_overflow_costs_are_visible_in_energy(self, name, workloads):
        """Streaming accounting must cost at least as much as resident —
        strictly more exactly when some layer overflows."""
        workload = workloads[name]
        resident = ArchitectureSimulator(yoco_spec(), weights_resident=True)
        streaming = ArchitectureSimulator(yoco_spec(), weights_resident=False)
        e_resident = resident.run(workload).energy_pj
        e_streaming = streaming.run(workload).energy_pj
        if streaming.overflow_layers(workload):
            assert e_streaming > e_resident
        else:
            assert e_streaming == e_resident


def test_an_overflowing_llama_is_swept():
    # The streaming sweep must cover a batch whose overflow weights are
    # fetched once: llama3_7b does not fit one YOCO chip.
    sim = ArchitectureSimulator(yoco_spec(), weights_resident=False)
    assert sim.overflow_layers(get_workload("llama3_7b"))


@pytest.mark.parametrize("name", TRANSFORMER_MODELS)
class TestDecodeDerivation:
    @staticmethod
    def _contexts(workload):
        native = workload.seq_len
        # The MobileBERT hazard: contexts equal to a hidden width, which a
        # value-matching rewrite would confuse with a weight shape.
        hidden = {layer.gemm.k for layer in workload.layers if layer.static_weights}
        return sorted({1, native // 2, native, 2 * native} | hidden)

    def test_one_pass_equals_the_two_step_derivation(self, name):
        workload = get_workload(name)
        for context_len in self._contexts(workload):
            derived = at_decode_step(workload, context_len)
            assert derived == _reference_decode_step(workload, context_len)
            assert derived.total_weight_bytes == workload.total_weight_bytes

    def test_contexts_share_every_layer_but_attention(self, name):
        template = DecodeTemplate(get_workload(name))
        short, long = template.at(3), template.at(700)
        attention = (LayerKind.ATTENTION_SCORE, LayerKind.ATTENTION_CONTEXT)
        for a, b in zip(short.layers, long.layers):
            assert (a is b) == (a.kind not in attention)
