"""Property tests (hypothesis) for the cost-aware fleet placer and routing.

Three guarantees the heterogeneous serving stack must hold for *any*
fleet composition, model mix and objective — not just the handful of
hand-picked cases in the unit suite:

* **replication accounting** — no model ever gets more replicas in a
  group than the group's ``replication_budget`` (one per chip), no chip
  hosts the same model twice, and every chip's resident set either fits
  its weight capacity or is an overflow singleton;
* **total placement** — every model either lands on at least one chip or
  is explicitly reported on ``ClusterPlan.unplaceable``; nothing is
  silently dropped, and a plan is deterministic for fixed inputs;
* **routing neutrality** — the routing policy decides *where* batches
  run, never *whether* they run: for a fixed seed, all three policies
  complete exactly the same requests (their latency/energy may differ).

Synthetic workloads keep the mapper cheap while spanning the regimes
that matter: tiny (co-resident), mid-size (capacity pressure) and
oversized (overflows every registered chip type).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.workload import (
    GemmShape,
    LayerKind,
    LayerSpec,
    ModelKind,
    WorkloadSpec,
)
from repro.serve import Cluster, FleetSpec, ROUTING_POLICIES, ServingEngine
from repro.serve.cluster import plan_fleet
from repro.serve.fleet import CHIP_TYPES, chip_spec, fleet_group
from repro.serve.traces import poisson_trace

#: The largest registered chip capacity (RAELLA, ~262 MB); "huge" models
#: are sized past it so they overflow every chip type.
_MAX_CAPACITY = max(chip_spec(name).weight_capacity_bytes for name in CHIP_TYPES)


def _fc_workload(name: str, k: int, n: int, layers: int = 2) -> WorkloadSpec:
    return WorkloadSpec(
        name=name,
        kind=ModelKind.CNN,
        layers=tuple(
            LayerSpec(
                name=f"{name}_l{i}",
                kind=LayerKind.FC,
                gemm=GemmShape(m=4, k=k, n=n),
            )
            for i in range(layers)
        ),
    )


#: Pool of candidate models: 2 tiny, 2 mid-size, 2 past every capacity.
_POOL = (
    _fc_workload("tiny_a", 256, 256),  # ~128 KB
    _fc_workload("tiny_b", 512, 256),  # ~256 KB
    _fc_workload("mid_a", 4096, 4096),  # ~32 MB
    _fc_workload("mid_b", 8192, 4096),  # ~64 MB
    _fc_workload("huge_a", 16384, 12288),  # ~384 MB > every chip
    _fc_workload("huge_b", 20480, 12288),  # ~480 MB > every chip
)
assert _POOL[-1].total_weight_bytes > _MAX_CAPACITY

_FLEETS = st.lists(
    st.tuples(st.sampled_from(sorted(CHIP_TYPES)), st.integers(1, 3)),
    min_size=1,
    max_size=3,
)
_MODELS = st.lists(
    st.sampled_from(_POOL), min_size=1, max_size=4, unique_by=lambda w: w.name
)
_OBJECTIVES = st.sampled_from(("cost-latency", "cost-energy"))


def _build_fleet(groups) -> FleetSpec:
    return FleetSpec(
        tuple(
            fleet_group(chip_type, n_chips, name=f"{chip_type}-{i}")
            for i, (chip_type, n_chips) in enumerate(groups)
        )
    )


class TestPlacerProperties:
    @given(groups=_FLEETS, models=_MODELS, objective=_OBJECTIVES)
    @settings(max_examples=40, deadline=None)
    def test_capacity_and_replication_accounting(
        self, groups, models, objective
    ):
        fleet = _build_fleet(groups)
        plan = plan_fleet(models, fleet, objective)
        by_name = {w.name: w for w in models}
        for chip in plan.chips:
            # No chip hosts the same model twice.
            assert len(set(chip.models)) == len(chip.models)
            # Resident set fits on-chip, or the chip is an overflow
            # singleton (a whole die streaming its weights).
            assert chip.fits or len(chip.models) == 1
        for group in fleet.groups:
            for w in models:
                assert plan.replicas(w.name, group.name) <= (
                    group.replication_budget(w)
                )
        # weight_bytes bookkeeping matches the placed models.
        for chip in plan.chips:
            assert chip.weight_bytes == sum(
                by_name[m].total_weight_bytes for m in chip.models
            )

    @given(groups=_FLEETS, models=_MODELS, objective=_OBJECTIVES)
    @settings(max_examples=40, deadline=None)
    def test_every_model_placed_or_reported_unplaceable(
        self, groups, models, objective
    ):
        fleet = _build_fleet(groups)
        plan = plan_fleet(models, fleet, objective)
        names = {w.name for w in models}
        placed = set(plan.placements)
        unplaceable = set(plan.unplaceable)
        assert placed | unplaceable == names
        assert placed.isdisjoint(unplaceable)
        for model, hosts in plan.placements.items():
            assert hosts  # placed means at least one hosting chip
            for chip_id in hosts:
                assert model in plan.chips[chip_id].models

    @given(groups=_FLEETS, models=_MODELS, objective=_OBJECTIVES)
    @settings(max_examples=20, deadline=None)
    def test_plan_is_deterministic(self, groups, models, objective):
        fleet = _build_fleet(groups)
        assert plan_fleet(models, fleet, objective) == plan_fleet(
            models, fleet, objective
        )


class TestRoutingNeutrality:
    @given(
        seed=st.integers(0, 2**16),
        groups=st.lists(
            st.tuples(st.sampled_from(("yoco", "isaac")), st.integers(1, 2)),
            min_size=1,
            max_size=2,
        ),
    )
    @settings(max_examples=15, deadline=None)
    def test_policy_never_changes_which_requests_complete(self, seed, groups):
        models = [_POOL[0], _POOL[1]]
        fleet = _build_fleet(groups)
        trace = tuple(
            sorted(
                poisson_trace("tiny_a", 4000.0, 0.01, seed=seed)
                + poisson_trace("tiny_b", 4000.0, 0.01, seed=seed + 1),
                key=lambda r: (r.arrival_ns, r.model, r.request_id),
            )
        )
        completed = {}
        for routing in ROUTING_POLICIES:
            cluster = Cluster(models, fleet=fleet)
            result = ServingEngine(cluster, routing=routing).run(trace)
            completed[routing] = {
                (s.request.model, s.request.request_id) for s in result.served
            }
            assert len(result.served) == len(trace)
        baseline = completed[ROUTING_POLICIES[0]]
        for routing, done in completed.items():
            assert done == baseline, routing
