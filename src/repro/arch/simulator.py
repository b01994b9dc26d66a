"""Architecture simulator: workload specs -> energy / latency roll-ups,
plus ISAAC-style inter-layer pipelining for streaming inference.

The timeloop/accelergy stand-in.  For each layer the simulator combines the
mapper's plan with the accelerator's cost coefficients:

* **compute** — unit-VMM count x per-VMM energy, scaled by the active
  fraction when the design power-gates partial tiles
  (:func:`repro.core.config.gated_vmm_energy_pj`, YOCO's one price of a
  partly used IMA);
* **weight writes** — dynamic operands (attention K/Q/V) are programmed
  into units every inference at the design's write cost; static weights are
  programmed once and amortized away (all designs), but static weights
  *beyond* the on-chip capacity stream from off-chip every inference;
* **data movement** — input/output activations through eDRAM-class
  buffers, inter-tile traffic over the NoC;
* **latency** — VMM issue over the unit pool, overlapped (double-buffered)
  with data movement; dynamic-write latency serialises with compute for
  designs whose compute cells must be reprogrammed mid-inference.

The request-level serving simulator (:mod:`repro.serve`) builds on this
module and consumes exactly three outputs, which form the contract between
the two layers:

* :meth:`ArchitectureSimulator.run` — the batch-1 energy/latency roll-up;
  a serving batch of one request must cost exactly this much
  (``run_batch(w, 1)`` equals ``run(w)`` by construction);
* :meth:`ArchitectureSimulator.run_batch` — service time and energy of a
  size-``B`` batch: waves amortize over the unit pool (sub-linear latency)
  while energy stays linear in ``B`` (every request moves its own
  activations and programs its own dynamic operands);
* :meth:`ArchitectureSimulator.run_layer_pipelined` — the streaming mode;
  the serving cluster models a pipelined chip as ``fill_ns`` for the first
  request of a batch plus ``interval_ns`` for each subsequent one.

:meth:`ArchitectureSimulator.replication_budget` and
:meth:`ArchitectureSimulator.overflow_layers` are the public capacity hooks
the cluster planner uses for capacity-aware placement.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.arch.accelerator import AcceleratorSpec, yoco_spec
from repro.arch.mapper import MappingPlan, map_layer
from repro.arch.result import LayerResult, RunResult
from repro.core.config import gated_vmm_energy_pj
from repro.models.workload import LayerSpec, WorkloadSpec


@dataclasses.dataclass(frozen=True)
class PipelinedRunResult:
    """Streaming (inter-layer pipelined) execution of one workload.

    All layers are resident simultaneously (no weight replication budget);
    inferences stream through, so the steady-state issue interval is the
    slowest layer — scaled up when the layers' combined tile demand
    oversubscribes the unit pool and stages must time-share.
    """

    run: RunResult  # the per-inference (batch-1) roll-up, for energy
    interval_ns: float  # steady-state time between finished inferences
    fill_ns: float  # pipeline fill latency (first inference)
    oversubscription: float  # combined tiles / available units (>= 1)

    @property
    def steady_throughput_tops(self) -> float:
        return self.run.total_ops / (self.interval_ns * 1e-9) / 1e12

    @property
    def steady_inferences_per_second(self) -> float:
        return 1e9 / self.interval_ns

    @property
    def speedup_over_sequential(self) -> float:
        """Streaming gain over running the same resident layers in series.

        ``fill_ns`` *is* the sequential (unreplicated, layer-by-layer) pass,
        so this is the classic sum-over-max pipeline ratio, shrunk by any
        unit oversubscription.  Note that a *replicated* batch-1 execution
        (``ArchitectureSimulator.run``) can beat streaming on models far
        below the weight-capacity limit — replication and layer-pipelining
        compete for the same units.
        """
        return self.fill_ns / self.interval_ns


@dataclasses.dataclass(frozen=True)
class BatchRunResult:
    """Batched (multi-inference) execution of one workload on one chip.

    Latency is sub-linear in batch size: the ``ceil(vmm / units)`` wave
    count amortizes over more work, and — the big win for models beyond
    the on-chip weight capacity — overflow weights stream from off-chip
    *once per batch* and are reused by every inference in it.  Energy is
    linear per inference except for that same off-chip weight traffic.
    Activations and dynamic-operand programming repeat per inference.
    At ``batch_size == 1`` both numbers equal the :class:`RunResult`
    roll-up exactly.
    """

    run: RunResult  # the per-inference (batch-1) roll-up
    batch_size: int
    latency_ns: float  # service time of the whole batch
    energy_pj: float  # energy of the whole batch

    @property
    def energy_per_inference_pj(self) -> float:
        return self.energy_pj / self.batch_size

    @property
    def latency_per_inference_ns(self) -> float:
        return self.latency_ns / self.batch_size

    @property
    def throughput_tops(self) -> float:
        ops = self.run.total_ops * self.batch_size
        return ops / (self.latency_ns * 1e-9) / 1e12

    @property
    def batching_speedup(self) -> float:
        """Per-inference service-time gain over running batch-1 in series."""
        return self.run.latency_ns / self.latency_per_inference_ns


class _WorkloadCosts(NamedTuple):
    """Everything the simulator derives from one workload, computed once.

    ``workload`` anchors the identity key: the record keeps its workload
    alive, so the ``id`` it is filed under cannot be reused.  ``columns``
    holds :meth:`ArchitectureSimulator.run_batch`'s per-layer inputs, one
    column per layer in workload order and one row per quantity: the
    layer's VMM count, the units its waves issue over, its dynamic-operand
    rows written per inference (0 for static weights), its data latency,
    its batch-1 energy and the off-chip energy of its overflow weights (0
    unless it overflows).  Every count is far below 2**53, so float64
    holds it exactly.
    """

    workload: WorkloadSpec
    run: RunResult
    replicas: int
    overflow: Set[str]
    plans: Tuple[MappingPlan, ...]
    columns: np.ndarray



class ArchitectureSimulator:
    """Evaluate workloads on one accelerator model.

    Parameters
    ----------
    spec:
        The accelerator; defaults to YOCO's Table II derivation.
    weights_resident:
        When True (default), static weights are assumed pre-loaded before
        the inference — the timeloop/accelergy methodology the paper uses,
        where each layer is mapped with its weights in place.  When False,
        static weights beyond the on-chip capacity stream over the off-chip
        link every inference (a harsher, deployment-style accounting; see
        the capacity-ablation benchmark).

    Costs are pure functions of the spec and the layer shape, so each
    instance prices every distinct thing once: a layer shape (every
    :class:`LayerSpec` field but ``name``, plus its overflow flag and
    replica budget), a mapping plan per ``(gemm, repeat)``, and a
    workload's batch-1 roll-up plus its :meth:`run_batch` cost columns.
    A workload that shares layer objects with the last one costed from
    the same first layer (a decode context shares all but its attention
    layers with the contexts before it) copies their costs and columns
    instead of re-costing them.  Each record holds its workload, so an
    ``id`` it is filed under is never recycled.  The memo lives and dies
    with the instance.

    Whole-workload sums run left to right in layer order, in :meth:`run`
    (``RunResult``'s ``sum``) as in :meth:`run_batch`
    (``np.add.accumulate``, never pairwise ``np.sum`` or a compensated
    ``sum``), so ``run_batch(w, 1) == run(w)`` holds bit for bit and a
    cost never depends on how it was summed.
    """

    def __init__(
        self,
        spec: Optional[AcceleratorSpec] = None,
        weights_resident: bool = True,
    ) -> None:
        self._spec = spec if spec is not None else yoco_spec()
        self._weights_resident = weights_resident
        self._layer_costs: Dict[tuple, tuple] = {}
        self._plans: Dict[tuple, MappingPlan] = {}
        # The last workload costed per first-layer object (its record
        # holds the workload, so the id is never recycled).
        self._by_first_layer: Dict[int, _WorkloadCosts] = {}
        self._workloads: Dict[int, _WorkloadCosts] = {}

    @property
    def spec(self) -> AcceleratorSpec:
        return self._spec

    @property
    def weights_resident(self) -> bool:
        return self._weights_resident

    # -- per-layer ------------------------------------------------------------------
    def simulate_layer(
        self,
        layer: LayerSpec,
        static_overflow: bool = False,
        max_replicas: int = 1,
    ) -> LayerResult:
        """Cost one layer.

        Parameters
        ----------
        static_overflow:
            True when this layer's static weights did not fit on-chip and
            must stream over the off-chip link each inference.
        max_replicas:
            How many copies of the layer's weight tiles the chip can afford
            to pin (capacity-bounded weight replication for throughput —
            the standard timeloop/ISAAC technique).  Dynamic operands never
            replicate: a copy would have to be written per inference.
        """
        key = (
            layer.kind, layer.gemm, layer.static_weights, layer.repeat,
            static_overflow, max_replicas,
        )
        fields = self._layer_costs.get(key)
        if fields is None:
            plan = self._plan(layer)
            replicas = 1 if not layer.static_weights else max(1, max_replicas)
            data, data_ns = self._data_movement(layer, static_overflow)
            fields = self._layer_costs[key] = (
                plan.vmm_count,
                self._compute_energy_pj(plan),
                self._weight_write_energy_pj(layer),
                data,
                self._compute_latency_ns(layer, plan, replicas),
                data_ns,
                plan.utilization,
            )
        # Every LayerResult field after the name, in declaration order.
        return LayerResult(layer.name, *fields)

    def _plan(self, layer: LayerSpec) -> MappingPlan:
        """The layer's mapping, shared by every layer of its (gemm, repeat).

        A shared plan's ``layer`` may be another layer of the same shape,
        so the cost components take the layer itself and never read it.
        """
        key = (layer.gemm, layer.repeat)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = map_layer(layer, self._spec)
        return plan

    # -- whole network ----------------------------------------------------------------
    def run(self, workload: WorkloadSpec) -> RunResult:
        """Cost a full inference of one workload."""
        return self._costs(workload).run

    def _costs(self, workload: WorkloadSpec) -> _WorkloadCosts:
        """The workload's memo record, built on first use.

        Workloads derived from one template — every decode context of a
        model — start with the same layer object and share every layer
        their context does not change.  So a workload whose first layer
        starts the last workload costed under the same replica budget and
        overflow set copies that workload's per-layer costs wherever the
        two hold the very same layer object, and costs only the rest.
        Workloads that share no first layer (CNNs, prefill sequence
        lengths) cost every layer.
        """
        costs = self._workloads.get(id(workload))
        if costs is not None and costs.workload is workload:
            return costs
        overflow = self._overflow_layers(workload)
        replicas = self._replication_budget(workload)
        layers = workload.layers
        n = len(layers)
        kin = self._by_first_layer.get(id(layers[0]))
        if (
            kin is not None
            and len(kin.plans) == n
            and kin.replicas == replicas
            and kin.overflow == overflow
        ):
            shared = kin.workload.layers
            results, plans = list(kin.run.layers), list(kin.plans)
            columns = kin.columns.copy()
        else:
            shared = (None,) * n
            results, plans = [None] * n, [None] * n
            columns = np.empty((6, n))
        fresh = [i for i, layer in enumerate(layers) if layer is not shared[i]]
        rows = []
        for i in fresh:
            layer = layers[i]
            static_overflow = layer.name in overflow
            result = results[i] = self.simulate_layer(
                layer, static_overflow, replicas
            )
            plan = plans[i] = self._plan(layer)
            rows.append(
                self._column_entries(layer, result, plan, static_overflow, replicas)
            )
        if rows:
            columns[:, fresh] = np.array(rows, dtype=np.float64).T
        run = RunResult(
            accelerator=self._spec.name,
            workload=workload.name,
            total_ops=workload.total_ops,
            layers=tuple(results),
        )
        costs = _WorkloadCosts(
            workload, run, replicas, overflow, tuple(plans), columns
        )
        self._workloads[id(workload)] = costs
        self._by_first_layer[id(layers[0])] = costs
        return costs

    def _column_entries(
        self,
        layer: LayerSpec,
        result: LayerResult,
        plan: MappingPlan,
        static_overflow: bool,
        replicas: int,
    ) -> tuple:
        """One layer's :meth:`run_batch` inputs, in ``columns`` row order."""
        spec = self._spec
        static = layer.static_weights
        units = min(
            spec.n_units,
            plan.tiles_per_instance * (max(1, replicas) if static else 1),
        )
        write_rows = 0 if static else min(layer.gemm.k, spec.unit_input_dim)
        offchip_pj = 0.0
        if static_overflow:
            offchip_pj = layer.weight_bytes * 8 * spec.offchip_pj_per_bit
        return (
            plan.vmm_count, units, write_rows, result.data_latency_ns,
            result.energy_pj, offchip_pj,
        )

    def _replication_budget(self, workload: WorkloadSpec) -> int:
        """Weight copies the chip can pin: floor(capacity / model weights)."""
        weights = workload.total_weight_bytes
        if weights == 0:
            return self._spec.n_units
        return max(1, self._spec.weight_capacity_bytes // weights)

    # -- public capacity hooks (consumed by repro.serve.cluster) -------------------
    def replication_budget(self, workload: WorkloadSpec) -> int:
        """How many weight copies the chip can pin for this workload."""
        return self._replication_budget(workload)

    def overflow_layers(self, workload: WorkloadSpec) -> "set[str]":
        """Layer names whose static weights stream off-chip each inference."""
        return self._overflow_layers(workload)

    # -- batched execution ---------------------------------------------------------
    def run_batch(self, workload: WorkloadSpec, batch_size: int) -> BatchRunResult:
        """Cost a batch of ``batch_size`` inferences run back to back.

        Each layer issues its ``batch_size x vmm_count`` VMMs in waves over
        the same replicated tile set, so partially filled waves amortize;
        activations and dynamic-operand programming repeat per inference.
        Overflow weights (layers past the on-chip capacity under the
        deployment-style accounting) stream from off-chip once per batch
        and serve every inference in it — the weight-reuse effect that
        makes batching pay for LLM-scale models.  ``run_batch(w, 1)``
        reproduces :meth:`run` exactly — the contract the serving engine's
        energy accounting relies on.

        Priced with numpy from the workload's cost columns, elementwise in
        the same float operations as one layer at a time, then summed left
        to right in layer order (``np.add.accumulate``; pairwise
        ``np.sum`` or a compensated ``sum`` would round differently), so
        every batch size prices bit for bit like a per-layer loop.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        spec = self._spec
        costs = self._costs(workload)
        vmm, units, write_rows, data_ns, energy_pj, offchip_pj = costs.columns
        # ceil of the true quotient, as math.ceil(B * vmm / units): both
        # operands are exact in float64, so the division rounds alike.
        compute_ns = np.ceil(batch_size * vmm / units) * spec.unit_vmm_latency_ns
        # Dynamic operands are written per inference (0 rows when static).
        compute_ns += (batch_size * write_rows) * spec.dynamic_write_ns_per_row
        latency = np.add.accumulate(np.maximum(compute_ns, data_ns))[-1]
        # B*e - (B-1)*o, not B*(e-o)+o: algebraically identical, but this
        # form collapses to exactly the layer's energy at B=1, so the
        # run_batch(w, 1) == run(w) contract is exact by construction
        # instead of by floating-point coincidence.  Off-chip overflow
        # weights are fetched once and reused batch-wide.
        energy = np.add.accumulate(
            batch_size * energy_pj - (batch_size - 1) * offchip_pj
        )[-1]
        return BatchRunResult(
            run=costs.run,
            batch_size=batch_size,
            latency_ns=float(latency),
            energy_pj=float(energy),
        )

    # -- streaming execution -------------------------------------------------------
    def run_layer_pipelined(self, workload: WorkloadSpec) -> PipelinedRunResult:
        """Stream inferences through all layers concurrently (ISAAC-style).

        Every layer keeps its weights resident and processes inference
        ``i`` while its successor processes ``i-1``; the steady interval is
        the slowest layer's per-inference latency.  When the layers'
        combined tile footprint exceeds the unit pool, stages time-share
        and the interval stretches by the oversubscription factor.

        Under the deployment-style accounting (``weights_resident=False``)
        overflow layers must re-stream their weights over the single
        off-chip link every inference; that serialized traffic bounds the
        steady interval and lengthens the fill.  With the default resident
        methodology no layer carries data latency and nothing changes.
        """
        costs = self._costs(workload)
        plans, run = costs.plans, costs.run
        total_tiles = sum(plan.tiles_per_instance for plan in plans)
        oversubscription = max(1.0, total_tiles / self._spec.n_units)
        # Per-layer latency with exactly one copy of each layer resident.
        latencies = [
            self._compute_latency_ns(layer, plan, max_replicas=1)
            for layer, plan in zip(workload.layers, plans)
        ]
        # Off-chip overflow streaming shares one link across all stages, so
        # it serializes: each inference needs the *sum* of the stages'
        # weight-stream times regardless of pipeline overlap.
        stream_ns = sum(layer.data_latency_ns for layer in run.layers)
        interval = max(max(latencies) * oversubscription, stream_ns)
        return PipelinedRunResult(
            run=run,
            interval_ns=interval,
            fill_ns=sum(latencies) + stream_ns,
            oversubscription=oversubscription,
        )

    # -- cost components ---------------------------------------------------------------
    def _compute_energy_pj(self, plan: MappingPlan) -> float:
        spec = self._spec
        if spec.power_gating:
            return gated_vmm_energy_pj(
                spec.unit_vmm_energy_pj, plan.active_mac_fraction, plan.vmm_count
            )
        return plan.vmm_count * spec.unit_vmm_energy_pj

    def _weight_write_energy_pj(self, layer: LayerSpec) -> float:
        if layer.static_weights:
            return 0.0  # programmed once; amortized over the deployment
        bits = layer.dynamic_weight_bytes * 8
        return bits * self._spec.dynamic_write_pj_per_bit

    def _data_movement(
        self, layer: LayerSpec, static_overflow: bool
    ) -> Tuple[float, float]:
        spec = self._spec
        # Inputs are fetched once per K-tile row and multicast across
        # N-tiles; outputs written once; both traverse eDRAM + NoC.
        input_bits = layer.input_bytes * 8
        output_bits = layer.output_bytes * 8
        act_bits = input_bits + output_bits
        energy = act_bits * (spec.edram_pj_per_bit + spec.noc_pj_per_bit)
        latency_ns = 0.0
        if static_overflow:
            weight_bits = layer.weight_bytes * 8
            energy += weight_bits * spec.offchip_pj_per_bit
            latency_ns += (weight_bits / 8.0) / spec.offchip_gbps  # bytes / (GB/s) = ns
        return energy, latency_ns

    def _compute_latency_ns(
        self, layer: LayerSpec, plan: MappingPlan, max_replicas: int
    ) -> float:
        spec = self._spec
        # Parallelism is bounded by how many units hold (a copy of) this
        # layer's tiles, never by more units than exist.
        effective_units = min(spec.n_units, plan.tiles_per_instance * max_replicas)
        waves = math.ceil(plan.vmm_count / effective_units)
        latency = waves * spec.unit_vmm_latency_ns
        if not layer.static_weights:
            # Dynamic operands must be programmed before compute; rows of
            # each tile write in parallel across units.
            rows = min(layer.gemm.k, spec.unit_input_dim)
            latency += rows * spec.dynamic_write_ns_per_row
        return latency

    def _overflow_layers(self, workload: WorkloadSpec) -> "set[str]":
        """Greedy first-fit of static weights into on-chip capacity.

        Layers that do not fit stream from off-chip each inference — this
        is what makes LLaMA-7B behave differently from the small models.
        Under the default weights-resident methodology no layer overflows.
        """
        if self._weights_resident:
            return set()
        remaining = self._spec.weight_capacity_bytes
        overflow: "set[str]" = set()
        for layer in workload.layers:
            need = layer.weight_bytes
            if need == 0:
                continue
            if need <= remaining:
                remaining -= need
            else:
                overflow.add(layer.name)
        return overflow
