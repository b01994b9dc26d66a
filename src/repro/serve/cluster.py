"""Multi-chip cluster model: placement and per-chip service costs.

A cluster is a *fleet* of named chip groups (see
:class:`repro.serve.fleet.FleetSpec`) serving a set of model workloads;
``n`` copies of one :class:`AcceleratorSpec` is the single-group fleet
(:func:`repro.serve.fleet.homogeneous_fleet`).  Placement strategies:

* ``replicated`` — every chip of every group hosts every model (pure
  data parallelism);
* ``partitioned`` — greedy capacity-aware bin packing *within each
  group*: heaviest models claim the emptiest chips first, then idle
  chips replicate the most compute-hungry models;
* ``cost-latency`` / ``cost-energy`` — the heterogeneous placer: a
  per-(model, chip-type) cost table built from each group's backend
  ranks groups by batch-1 latency or energy, and models are packed
  greedily onto their best-ranked groups under per-chip capacity and
  per-group replication accounting.  Models that fit no chip are
  reported on :attr:`ClusterPlan.unplaceable` instead of silently
  dropped.

Capacity awareness reuses the architecture simulator's own hooks
(:meth:`ArchitectureSimulator.replication_budget` /
:meth:`ArchitectureSimulator.overflow_layers`): chips whose resident model
set fits on-chip split the weight capacity evenly (so each model's
replication budget shrinks when it shares a die), while chips whose set
overflows fall back to the deployment-style ``weights_resident=False``
accounting where overflow weights stream over the off-chip link every
inference.

Two execution modes per chip group:

* ``batched`` — each dispatched batch runs via
  :meth:`ArchitectureSimulator.run_batch` (wave-amortized latency);
* ``pipelined`` — the chip streams inferences ISAAC-style via
  :meth:`ArchitectureSimulator.run_layer_pipelined`: a size-``B`` batch
  costs one pipeline fill plus ``B - 1`` steady-state intervals.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.arch.accelerator import AcceleratorSpec
from repro.arch.simulator import ArchitectureSimulator
from repro.models.workload import (
    DecodeTemplate, LayerKind, WorkloadSpec, at_seq_len,
)
from repro.serve.fleet import FleetGroup, FleetSpec, backend_for, parse_fleet

PLACEMENTS = (
    "replicated",
    "partitioned",
    "cost-latency",
    "cost-energy",
    "prefill-decode",
)

#: The default latency SLO, in batch-1 floors
#: (:meth:`Cluster.reference_latency_ns`): the one rule the report's SLO
#: and the slo-aware shedder's deadline both read.
DEFAULT_SLO_MULTIPLE = 10.0

#: Per-chip service-cost cache key: the group name pins the backend (two
#: chip types may share capacity and residency yet cost very differently),
#: then the effective capacity and residency split rows within a group.
ChipKey = Tuple[str, int, bool]


@dataclasses.dataclass(frozen=True)
class ChipPlan:
    """What one chip of the cluster hosts."""

    chip_id: int
    models: Tuple[str, ...]
    weight_bytes: int
    fits: bool  # resident model set fits the on-chip weight capacity
    chip_type: str = ""  # hosting fleet group's name


@dataclasses.dataclass(frozen=True)
class ClusterPlan:
    """Placement of every model onto every chip.

    ``unplaceable`` names models the cost-aware placer could not fit on
    any chip (they appear in no chip's model set and must be surfaced to
    the operator, never silently dropped); the replicated/partitioned
    strategies always place everything.
    """

    n_chips: int
    chips: Tuple[ChipPlan, ...]
    placements: Dict[str, Tuple[int, ...]]  # model -> hosting chip ids
    unplaceable: Tuple[str, ...] = ()

    def replicas(self, model: str, chip_type: str = "") -> int:
        """Hosting chips of one model, optionally within one group."""
        hosts = self.placements.get(model, ())
        if not chip_type:
            return len(hosts)
        return sum(1 for c in hosts if self.chips[c].chip_type == chip_type)


def plan_fleet(
    workloads: Sequence[WorkloadSpec],
    fleet: FleetSpec,
    placement: str = "replicated",
) -> ClusterPlan:
    """Assign models to every chip group under the chosen strategy."""
    if not workloads:
        raise ValueError("cluster needs at least one workload")
    names = [w.name for w in workloads]
    if len(set(names)) != len(names):
        raise ValueError("duplicate workload names in cluster")
    unplaceable: Tuple[str, ...] = ()
    if placement in ("replicated", "prefill-decode"):
        # prefill-decode replicates every model onto every chip; the
        # cost tables (ServiceCostTable.hosts) pick which group runs
        # prefill vs decode (capacity and replication accounting are
        # phase-blind — weight footprints are invariant under the decode
        # re-derivation).
        assigned: List[List[str]] = [list(names) for _ in range(fleet.n_chips)]
    elif placement == "partitioned":
        assigned = []
        for group in fleet.groups:
            assigned.extend(_partition(workloads, group.n_chips, group.spec))
    elif placement in ("cost-latency", "cost-energy"):
        objective = placement.split("-", 1)[1]
        assigned, unplaceable = _cost_aware(workloads, fleet, objective)
    else:
        raise ValueError(
            f"unknown placement {placement!r}; available: {PLACEMENTS}"
        )
    by_name = {w.name: w for w in workloads}
    groups = fleet.groups
    chip_groups = fleet.chip_groups
    chips = tuple(
        ChipPlan(
            chip_id=chip_id,
            models=tuple(models),
            weight_bytes=sum(by_name[m].total_weight_bytes for m in models),
            fits=sum(by_name[m].total_weight_bytes for m in models)
            <= groups[chip_groups[chip_id]].spec.weight_capacity_bytes,
            chip_type=groups[chip_groups[chip_id]].name,
        )
        for chip_id, models in enumerate(assigned)
    )
    placements = {}
    for name in names:
        hosts = tuple(c.chip_id for c in chips if name in c.models)
        if not hosts:
            if name in unplaceable:
                continue  # explicitly reported, not silently dropped
            raise RuntimeError(f"model {name!r} placed on no chip")
        placements[name] = hosts
    return ClusterPlan(
        n_chips=fleet.n_chips,
        chips=chips,
        placements=placements,
        unplaceable=unplaceable,
    )


def _partition(
    workloads: Sequence[WorkloadSpec], n_chips: int, spec: AcceleratorSpec
) -> List[List[str]]:
    """Greedy capacity-aware packing, then replicate hot models onto idle chips."""
    assigned: List[List[str]] = [[] for _ in range(n_chips)]
    remaining = [float(spec.weight_capacity_bytes)] * n_chips
    # Heaviest first onto the chip with the most free capacity.
    for w in sorted(workloads, key=lambda w: (-w.total_weight_bytes, w.name)):
        chip = max(range(n_chips), key=lambda c: (remaining[c], -c))
        assigned[chip].append(w.name)
        remaining[chip] -= w.total_weight_bytes
    _fill_idle_chips(assigned, workloads, lambda chip, names: names)
    return assigned


def _fill_idle_chips(
    assigned: List[List[str]],
    workloads: Sequence[WorkloadSpec],
    eligible,
) -> None:
    """Turn idle chips into data-parallel replicas of the hottest models.

    The shared replication rule of both packers: each idle chip takes the
    model with the most compute per existing replica (name as tiebreak),
    drawn from ``eligible(chip_id, placed_names)`` — the hook where the
    cost-aware placer applies its capacity prefilter.  Mutates
    ``assigned`` in place; chips already hosting something are untouched.
    """
    placed = [w for w in workloads if any(w.name in a for a in assigned)]
    if not placed:
        return
    hosts = {w.name: sum(w.name in a for a in assigned) for w in placed}
    ops = {w.name: w.total_ops for w in placed}
    names = list(ops)
    for chip in range(len(assigned)):
        if assigned[chip]:
            continue
        pool = eligible(chip, names) or names
        name = max(pool, key=lambda m: (ops[m] / hosts[m], m))
        assigned[chip].append(name)
        hosts[name] += 1


def fleet_cost_table(
    workloads: Sequence[WorkloadSpec], fleet: FleetSpec
) -> Dict[Tuple[str, str], "ChipService"]:
    """Batch-1 (latency, energy) of every model on every chip group.

    The ranking signal of the cost-aware placer, keyed by
    ``(model, group name)``; costs come from each group's own backend
    under the resident accounting, so they reflect exactly the designs'
    per-inference personalities and nothing about cluster state.
    """
    table: Dict[Tuple[str, str], ChipService] = {}
    for group in fleet.groups:
        backend = backend_for(group)
        for w in workloads:
            run = backend.run(w)
            table[w.name, group.name] = ChipService(
                latency_ns=run.latency_ns, energy_pj=run.energy_pj
            )
    return table


def _cost_aware(
    workloads: Sequence[WorkloadSpec], fleet: FleetSpec, objective: str
) -> Tuple[List[List[str]], Tuple[str, ...]]:
    """Greedy cost-ranked packing across chip groups.

    Heaviest models place first; each tries its groups in objective order
    (batch-1 latency or energy from :func:`fleet_cost_table`), landing on
    the chip with the most remaining capacity.  A model too large for even
    an empty chip of its best group claims a whole die and streams its
    overflow (the chip is then sealed against co-residents).  Idle chips
    finish as data-parallel replicas of the hottest models they can hold.
    Models that fit nowhere are returned as unplaceable.
    """
    groups = fleet.groups
    table = fleet_cost_table(workloads, fleet)
    cost = (
        (lambda name, g: table[name, g.name].latency_ns)
        if objective == "latency"
        else (lambda name, g: table[name, g.name].energy_pj)
    )
    chip_groups = fleet.chip_groups
    n = len(chip_groups)
    assigned: List[List[str]] = [[] for _ in range(n)]
    remaining = [float(groups[gi].spec.weight_capacity_bytes) for gi in chip_groups]
    sealed = [False] * n  # overflow singletons accept no co-residents
    unplaceable: List[str] = []
    for w in sorted(workloads, key=lambda w: (-w.total_weight_bytes, w.name)):
        ranked = sorted(
            range(len(groups)), key=lambda gi: (cost(w.name, groups[gi]), gi)
        )
        placed = False
        for gi in ranked:
            chips = [
                c for c in range(n) if chip_groups[c] == gi and not sealed[c]
            ]
            fitting = [c for c in chips if remaining[c] >= w.total_weight_bytes]
            if fitting:
                chip = max(fitting, key=lambda c: (remaining[c], -c))
                assigned[chip].append(w.name)
                remaining[chip] -= w.total_weight_bytes
                placed = True
                break
            if w.total_weight_bytes > groups[gi].spec.weight_capacity_bytes:
                empty = [c for c in chips if not assigned[c]]
                if empty:
                    chip = min(empty)
                    assigned[chip].append(w.name)
                    remaining[chip] = 0.0
                    sealed[chip] = True
                    placed = True
                    break
        if not placed:
            unplaceable.append(w.name)
    weights = {w.name: w.total_weight_bytes for w in workloads}

    def fitting(chip: int, names: List[str]) -> List[str]:
        capacity = groups[chip_groups[chip]].spec.weight_capacity_bytes
        return [m for m in names if weights[m] <= capacity]

    _fill_idle_chips(assigned, workloads, fitting)
    return assigned, tuple(unplaceable)


@dataclasses.dataclass(frozen=True)
class ChipService:
    """Cost of serving one batch on one chip."""

    latency_ns: float
    energy_pj: float


class ServiceCostTable:
    """The cluster's cost memo for one model and phase.

    The engine prices the same (chip, batch size, bucket) combination
    millions of times per run.  This table is the only place those prices
    are kept: one row per (distinct cost key, sequence length), indexed
    by batch size.  A miss calls the pricer once — :meth:`Cluster.service`,
    or :meth:`Cluster.decode_service` with ``decode=True``, where the
    row's sequence length is the page-rounded context — and stores the
    row.  A prefill row at the model's native sequence length is the
    ``seq_len=0`` row: both name the native shape.

    The pricer is read off the cluster instance when the table is built,
    so a wrapped ``Cluster.service`` (a call counter, a tracer) sees every
    priced row.

    ``hosts`` is the one answer to "which chips run this model in this
    phase", in ascending id order: the model's hosting chips
    (:meth:`Cluster.chips_for`), except that the ``prefill-decode``
    placement runs prefill on fleet group 0 and decode on groups 1+.
    The engine's host sets, the default SLO floor and the admission
    predictor all read it.

    ``uniform`` is True when every host shares one cost key — the
    homogeneous case where cost-aware routing provably degenerates to the
    lowest free chip id and per-chip pricing can be skipped entirely.  A
    decode table also requires one KV capacity, since a decode price adds
    the KV bytes that overflow the chip.
    """

    def __init__(
        self, cluster: "Cluster", model: str, decode: bool = False
    ) -> None:
        self._model = model
        self._price = cluster.decode_service if decode else cluster.service
        self._native = None if decode else cluster.native_seq_len(model)
        distinct: Dict[ChipKey, int] = {}
        self._key_of = tuple(
            distinct.setdefault(key, len(distinct))
            for key in cluster._chip_keys
        )
        hosts = cluster.chips_for(model)
        if cluster.placement == "prefill-decode":
            group = cluster.chip_group_indices
            hosts = tuple(c for c in hosts if (group[c] != 0) == decode)
        self.hosts: Tuple[int, ...] = hosts
        self.uniform = len({self._key_of[c] for c in hosts}) == 1 and (
            not decode
            or len({cluster.kv_capacity_bytes(c) for c in hosts}) == 1
        )
        self._rows: Dict[Tuple[int, int], List[Optional[ChipService]]] = {}

    def get(
        self, chip_id: int, batch_size: int, seq_len: int = 0
    ) -> ChipService:
        row = self._rows.get((self._key_of[chip_id], seq_len))
        if row is not None and batch_size < len(row):
            cost = row[batch_size]
            if cost is not None:
                return cost
        return self._fill(chip_id, batch_size, seq_len)

    def _fill(
        self, chip_id: int, batch_size: int, seq_len: int
    ) -> ChipService:
        key = self._key_of[chip_id]
        shape = 0 if seq_len == self._native else seq_len
        row = self._rows.setdefault((key, shape), [])
        self._rows[key, seq_len] = row  # the native shape's two names
        if batch_size >= len(row):
            row.extend([None] * (batch_size + 1 - len(row)))
        cost = row[batch_size]
        if cost is None:
            cost = self._price(chip_id, self._model, batch_size, shape)
            row[batch_size] = cost
        return cost


class Cluster:
    """A fleet of accelerator chips plus the placement over them.

    The serving engine treats this object as a pure cost oracle: one cost
    table per model and phase (:meth:`service_table`, :meth:`decode_table`)
    says which chips serve it and what a size-``B`` batch costs on each.
    Each row is priced once — the discrete-event loop stays free of
    simulator calls.

    ``fleet`` is a :class:`FleetSpec` or its string form (``"yoco:4"``,
    ``"yoco:8,isaac:4:pipelined"``); it is the one description of the
    hardware, and each group carries its own chip count, spec and
    execution mode.

    For LLM traffic the oracle is sequence-length aware: ``service`` takes
    the (bucket) sequence length the batch runs at, and the cost table is
    built per (model, chip group, bucket) by re-deriving the transformer
    workload at that length (:meth:`workload_at`) — weight footprints are
    invariant under the re-derivation, so placement and capacity
    accounting never change across buckets.
    """

    def __init__(
        self,
        workloads: Sequence[WorkloadSpec],
        fleet: Union[FleetSpec, str],
        placement: str = "replicated",
    ) -> None:
        if fleet is None:
            from repro.serve.config import MSG_NEED_FLEET

            raise ValueError(MSG_NEED_FLEET)
        if isinstance(fleet, str):
            fleet = parse_fleet(fleet)
        if placement == "prefill-decode" and len(fleet.groups) < 2:
            from repro.serve.config import MSG_PD_NEEDS_GROUPS

            raise ValueError(MSG_PD_NEEDS_GROUPS)
        self._placement = placement
        self._fleet = fleet
        self._chip_groups = fleet.chip_groups
        self._workloads = {w.name: w for w in workloads}
        self._plan = plan_fleet(workloads, fleet, placement)
        if self._plan.unplaceable:
            raise ValueError(
                f"models {list(self._plan.unplaceable)} fit on no chip of "
                f"fleet [{fleet.label}]; shrink the model set or grow the fleet"
            )
        self._chip_specs = tuple(
            self._effective_spec(chip) for chip in self._plan.chips
        )
        # Same-group chips with the same effective capacity and residency
        # are identical; cache by this cost-relevant key, not chip id, so
        # an 8-chip group simulates each model once.  The group name is
        # part of the key: two chip types can share capacity and residency
        # yet cost very differently, and a mixed fleet must never read a
        # stale wrong-backend entry.
        self._chip_keys: Tuple[ChipKey, ...] = tuple(
            (chip.chip_type, eff.weight_capacity_bytes, chip.fits)
            for eff, chip in zip(self._chip_specs, self._plan.chips)
        )
        self._simulators: Dict[ChipKey, ArchitectureSimulator] = {}
        self._stream_cache: Dict[Tuple[ChipKey, str, int], object] = {}
        # The cost memo: one table per (model, is-decode), and the batch-1
        # floor per (model, seq_len) read off it.
        self._tables: Dict[Tuple[str, bool], ServiceCostTable] = {}
        self._floors: Dict[Tuple[str, int], float] = {}
        # Workloads re-derived per sequence length, shared across chips —
        # a bucketed LLM run costs one derivation per (model, bucket), not
        # one per batch.
        self._seqlen_workloads: Dict[Tuple[str, int], WorkloadSpec] = {}
        # Decode-phase caches: each model's context-free decode template,
        # the single-token iteration workloads derived from it per
        # (model, page-rounded context), and each model's KV bytes per
        # cached token.
        self._decode_templates: Dict[str, DecodeTemplate] = {}
        self._decode_workloads: Dict[Tuple[str, int], WorkloadSpec] = {}
        self._kv_per_token: Dict[str, int] = {}

    # -- accessors -----------------------------------------------------------------
    @property
    def fleet(self) -> FleetSpec:
        return self._fleet

    @property
    def heterogeneous(self) -> bool:
        return self._fleet.heterogeneous

    @property
    def spec(self) -> AcceleratorSpec:
        """The first group's spec (the only one for homogeneous fleets)."""
        return self._fleet.groups[0].spec

    @property
    def n_chips(self) -> int:
        return self._plan.n_chips

    @property
    def models(self) -> Tuple[str, ...]:
        return tuple(self._workloads)

    @property
    def chip_types(self) -> Tuple[str, ...]:
        """Group names in declaration order."""
        return tuple(g.name for g in self._fleet.groups)

    @property
    def chip_group_indices(self) -> Tuple[int, ...]:
        """Fleet group index of every global chip id, in id order.

        The O(1) chip-to-group map consumers with per-group state (the
        power governor, per-type metrics) index into on the hot path.
        """
        return self._chip_groups

    def group_of(self, chip_id: int) -> FleetGroup:
        return self._fleet.groups[self._chip_groups[chip_id]]

    def chip_type(self, chip_id: int) -> str:
        """The fleet group name hosting this chip."""
        return self.group_of(chip_id).name

    def chips_of_type(self, chip_type: str) -> Tuple[int, ...]:
        """Global chip ids belonging to one fleet group."""
        ids = tuple(
            c
            for c in range(self.n_chips)
            if self._fleet.groups[self._chip_groups[c]].name == chip_type
        )
        if not ids:
            raise ValueError(
                f"unknown chip type {chip_type!r}; fleet has {self.chip_types}"
            )
        return ids

    def workload(self, model: str) -> WorkloadSpec:
        return self._workloads[model]

    def native_seq_len(self, model: str) -> int:
        """The model's own sequence length (0 for CNNs)."""
        return self._workloads[model].seq_len

    def workload_at(self, model: str, seq_len: int = 0) -> WorkloadSpec:
        """The model's workload re-derived at ``seq_len`` (0 = native).

        Cached per (model, seq_len); the native shape is the workload
        itself, bit-for-bit, so fixed-seqlen serving reproduces the
        original cost model exactly.
        """
        native = self._workloads[model]
        if seq_len == 0 or seq_len == native.seq_len:
            return native
        key = (model, seq_len)
        derived = self._seqlen_workloads.get(key)
        if derived is None:
            derived = at_seq_len(native, seq_len)
            self._seqlen_workloads[key] = derived
        return derived

    def chips_for(self, model: str) -> Tuple[int, ...]:
        """Chip ids hosting (a replica of) this model."""
        return self._plan.placements[model]

    # -- prefill/decode disaggregation ---------------------------------------------
    @property
    def placement(self) -> str:
        return self._placement

    def decode_workload(self, model: str, context_len: int) -> WorkloadSpec:
        """One decode iteration of ``model`` at ``context_len`` (cached).

        Built from the model's :class:`~repro.models.workload.DecodeTemplate`
        (one per model, made on first use): the token axis collapses to a
        single new token and only the attention layers are new per
        context, so every context shares the template's other layer
        objects and the simulator re-costs only what the context changes.
        Weight bytes are invariant, so placement never changes between
        phases.  Layers keep the native order, the order in which the
        simulator sums their costs bit for bit.
        """
        key = (model, context_len)
        derived = self._decode_workloads.get(key)
        if derived is None:
            template = self._decode_templates.get(model)
            if template is None:
                template = DecodeTemplate(self._workloads[model])
                self._decode_templates[model] = template
            derived = template.at(context_len)
            self._decode_workloads[key] = derived
        return derived

    def decode_service(
        self, chip_id: int, model: str, batch_size: int, context_len: int
    ) -> ChipService:
        """Latency/energy of one decode iteration batch on ``chip_id``.

        ``context_len`` is the (page-rounded) context the longest batch
        member attends over.  Decode batches always run wave-batched
        (``run_batch``), even on pipelined groups: continuous batching
        re-forms the batch every iteration, so there is never a stable
        stream to pipeline.  Prices one row, uncached: the memo is
        :meth:`decode_table`.
        """
        if chip_id not in self.chips_for(model):
            raise ValueError(f"chip {chip_id} does not host model {model!r}")
        batch = self._simulator(chip_id).run_batch(
            self.decode_workload(model, context_len), batch_size
        )
        return ChipService(latency_ns=batch.latency_ns, energy_pj=batch.energy_pj)

    def kv_bytes_per_token(self, model: str) -> int:
        """KV-cache footprint one cached token adds (8-bit K + V rows).

        Read off the attention GEMMs of the *native* workload: each
        score layer caches a ``head_dim`` K-row per head per token
        (``gemm.k * repeat``), each context layer a ``head_dim`` V-row
        (``gemm.n * repeat``).  CNNs carry no attention and return 0.
        """
        cached = self._kv_per_token.get(model)
        if cached is None:
            w = self._workloads[model]
            cached = sum(
                layer.gemm.k * layer.repeat
                for layer in w.layers
                if layer.kind == LayerKind.ATTENTION_SCORE
            ) + sum(
                layer.gemm.n * layer.repeat
                for layer in w.layers
                if layer.kind == LayerKind.ATTENTION_CONTEXT
            )
            self._kv_per_token[model] = cached
        return cached

    def kv_capacity_bytes(self, chip_id: int) -> int:
        """On-chip bytes left for KV pages after the resident weights.

        Reuses the overflow-weights capacity accounting: a chip whose
        resident set already overflows streams its weights, so no KV
        residency is available either (everything streams — capacity 0).
        """
        chip = self._plan.chips[chip_id]
        if not chip.fits:
            return 0
        spec = self.group_of(chip_id).spec
        return max(0, spec.weight_capacity_bytes - chip.weight_bytes)

    def kv_overflow_service(
        self, chip_id: int, overflow_bytes: float
    ) -> ChipService:
        """Stream cost of KV bytes that exceed the chip's residual capacity.

        Priced exactly like overflow weights in the architecture
        simulator: bits cross the off-chip link at ``offchip_gbps`` /
        ``offchip_pj_per_bit``, once per decode iteration they miss.
        """
        spec = self.group_of(chip_id).spec
        return ChipService(
            latency_ns=overflow_bytes / spec.offchip_gbps,
            energy_pj=overflow_bytes * 8.0 * spec.offchip_pj_per_bit,
        )

    # -- cost oracle ---------------------------------------------------------------
    def service(
        self, chip_id: int, model: str, batch_size: int, seq_len: int = 0
    ) -> ChipService:
        """Latency/energy of one size-``batch_size`` batch on ``chip_id``.

        ``seq_len`` selects the sequence length the batch runs at (a bucket
        boundary, usually); 0 keeps the model's native shape — the CNN and
        fixed-seqlen path, which reproduces the original per-model cost.

        Prices one row, uncached: the memo is :meth:`service_table`, whose
        rows are deliberately tenant-blind — a batch's cost depends only
        on (chip type, model, batch size, sequence length), so ten tenants
        calling one model cost no more simulator probes than one does.
        """
        if chip_id not in self.chips_for(model):
            raise ValueError(f"chip {chip_id} does not host model {model!r}")
        sim = self._simulator(chip_id)
        workload = self.workload_at(model, seq_len)
        if self.group_of(chip_id).mode == "pipelined":
            stream_key = (self._chip_keys[chip_id], model, seq_len)
            stream = self._stream_cache.get(stream_key)
            if stream is None:
                stream = sim.run_layer_pipelined(workload)
                self._stream_cache[stream_key] = stream
            latency = stream.fill_ns + (batch_size - 1) * stream.interval_ns
            return ChipService(
                latency_ns=latency, energy_pj=batch_size * stream.run.energy_pj
            )
        batch = sim.run_batch(workload, batch_size)
        return ChipService(latency_ns=batch.latency_ns, energy_pj=batch.energy_pj)

    def service_table(self, model: str) -> ServiceCostTable:
        """One model's prefill cost memo (rows priced by :meth:`service`).

        Cached per model, shared across runs on this cluster.
        """
        return self._table(model, False)

    def decode_table(self, model: str) -> ServiceCostTable:
        """One model's decode cost memo (rows priced by :meth:`decode_service`).

        Rows are keyed by (cost key, page-rounded context) and indexed by
        batch size; cached per model like :meth:`service_table`.
        """
        return self._table(model, True)

    def _table(self, model: str, decode: bool) -> ServiceCostTable:
        table = self._tables.get((model, decode))
        if table is None:
            if model not in self._workloads:
                raise ValueError(f"cluster does not host model {model!r}")
            table = ServiceCostTable(self, model, decode)
            self._tables[model, decode] = table
        return table

    def reference_latency_ns(self, model: str, seq_len: int = 0) -> float:
        """Batch-1 service latency — the no-queueing, no-batching floor.

        The floor is taken over the model's *best* prefill host
        (:attr:`ServiceCostTable.hosts`), so on a unified placement derived
        quantities like the default SLO (:data:`DEFAULT_SLO_MULTIPLE` times
        this floor) never depend on fleet group declaration order:
        ``yoco:2,isaac:2`` and ``isaac:2,yoco:2`` anchor to the same number.
        Under ``prefill-decode`` it is group 0's floor, since only group 0
        runs prefill.  Read off :meth:`service_table` once per
        (model, seq_len).
        """
        floor = self._floors.get((model, seq_len))
        if floor is None:
            table = self.service_table(model)
            floor = min(
                table.get(chip, 1, seq_len).latency_ns for chip in table.hosts
            )
            self._floors[model, seq_len] = floor
        return floor

    def predicted_latency_ns(
        self, model: str, queued_ahead: int, max_batch_size: int = 1
    ) -> float:
        """First-order completion-time prediction for admission control.

        A request arriving with ``queued_ahead`` same-model requests
        already waiting must let those drain first: they form
        ``ceil(queued_ahead / max_batch_size)`` batches spread over the
        model's prefill hosts, i.e. ``ceil(batches / hosts)`` serial
        waves, before the request's own batch runs.  Each wave is priced
        at the batch-1 floor of the model's *best* prefill host
        (:meth:`reference_latency_ns` — the same per-(model, chip-group)
        cost tables the placer and the default SLO read), so the estimate
        is deliberately optimistic: a request this predictor already
        condemns is dead on arrival under any schedule.
        """
        if queued_ahead < 0:
            raise ValueError("queued_ahead must be non-negative")
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        service_ns = self.reference_latency_ns(model)
        hosts = len(self.service_table(model).hosts)
        batches_ahead = -(-queued_ahead // max_batch_size)  # ceil div
        waves = -(-batches_ahead // hosts)
        return (waves + 1) * service_ns

    # -- capacity-aware per-chip simulators ---------------------------------------
    def _effective_spec(self, chip: ChipPlan) -> AcceleratorSpec:
        """The chip's spec with capacity split among its resident models.

        Co-resident models that fit share the weight capacity evenly, so
        each one's replication budget shrinks accordingly; a chip whose set
        overflows keeps the full capacity and pays streaming costs instead.
        """
        spec = self._fleet.groups[self._chip_groups[chip.chip_id]].spec
        if len(chip.models) <= 1 or not chip.fits or chip.weight_bytes == 0:
            return spec
        return dataclasses.replace(
            spec,
            weight_capacity_bytes=spec.weight_capacity_bytes
            // len(chip.models),
        )

    def _simulator(self, chip_id: int) -> ArchitectureSimulator:
        chip = self._plan.chips[chip_id]
        key = self._chip_keys[chip_id]
        sim = self._simulators.get(key)
        if sim is None:
            sim = ArchitectureSimulator(
                self._chip_specs[chip_id], weights_resident=chip.fits
            )
            self._simulators[key] = sim
        return sim
