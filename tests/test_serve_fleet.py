"""Fleet specification, heterogeneous cluster mechanics, cache-key safety."""

import dataclasses
import re

import pytest

from repro.arch import ArchitectureSimulator, yoco_spec
from repro.models import get_workload
from repro.serve import (
    Cluster,
    FleetConfig,
    FleetSpec,
    ServingConfig,
    ServingEngine,
    WorkloadConfig,
    parse_fleet,
    simulate_serving,
)
from repro.serve.cluster import fleet_cost_table, plan_fleet
from repro.serve.config import MSG_NEED_FLEET
from repro.serve.fleet import (
    CHIP_TYPES,
    FleetGroup,
    backend_for,
    chip_spec,
    fleet_group,
    homogeneous_fleet,
)
from repro.serve.traces import poisson_trace


@pytest.fixture(scope="module")
def resnet():
    return get_workload("resnet18")


@pytest.fixture(scope="module")
def llama():
    return get_workload("llama3_7b")


class TestFleetSpec:
    def test_parse_counts_and_modes(self):
        fleet = parse_fleet("yoco:8,isaac:4:pipelined")
        assert [g.chip_type for g in fleet.groups] == ["yoco", "isaac"]
        assert [g.n_chips for g in fleet.groups] == [8, 4]
        assert [g.mode for g in fleet.groups] == ["batched", "pipelined"]
        assert fleet.n_chips == 12
        assert fleet.heterogeneous
        assert fleet.label == "8 x yoco + 4 x isaac"

    def test_parse_repeated_chip_types_get_unique_names(self):
        fleet = parse_fleet("yoco:2,yoco:2:pipelined")
        assert [g.name for g in fleet.groups] == ["yoco", "yoco-2"]
        assert [g.mode for g in fleet.groups] == ["batched", "pipelined"]

    def test_chip_groups_follow_declaration_order(self):
        fleet = parse_fleet("yoco:2,isaac:3")
        assert fleet.chip_groups == (0, 0, 1, 1, 1)

    @pytest.mark.parametrize(
        "bad",
        ["", "yoco", "yoco:two", "yoco:1:warp", "warpcore:4", "yoco:0"],
    )
    def test_parse_rejects_malformed_entries(self, bad):
        with pytest.raises(ValueError):
            parse_fleet(bad)

    def test_duplicate_group_names_rejected(self):
        group = fleet_group("yoco", 1)
        with pytest.raises(ValueError):
            FleetSpec((group, group))

    def test_every_registered_chip_type_builds(self):
        for name in CHIP_TYPES:
            group = fleet_group(name, 2)
            assert group.spec.name == name
            assert group.replication_budget(get_workload("alexnet")) == 2
            assert isinstance(backend_for(group), ArchitectureSimulator)

    def test_homogeneous_fleet_mirrors_legacy_shape(self):
        fleet = homogeneous_fleet(yoco_spec(), 4, "pipelined")
        assert not fleet.heterogeneous
        assert fleet.n_chips == 4
        assert fleet.groups[0].mode == "pipelined"
        assert fleet == parse_fleet("yoco:4:pipelined")


class TestHeteroCluster:
    def test_chip_ids_run_group_by_group(self, resnet):
        cluster = Cluster([resnet], fleet="yoco:2,isaac:3")
        assert cluster.n_chips == 5
        assert cluster.chip_types == ("yoco", "isaac")
        assert cluster.chips_of_type("yoco") == (0, 1)
        assert cluster.chips_of_type("isaac") == (2, 3, 4)
        assert [cluster.chip_type(c) for c in range(5)] == [
            "yoco", "yoco", "isaac", "isaac", "isaac",
        ]
        with pytest.raises(ValueError):
            cluster.chips_of_type("trainium")

    def test_replicated_places_models_on_every_group(self, resnet):
        cluster = Cluster([resnet], fleet="yoco:2,isaac:2")
        assert cluster.chips_for("resnet18") == (0, 1, 2, 3)

    def test_per_group_costs_match_each_backend(self, resnet):
        """Each group's service cost is its own design's run_batch."""
        cluster = Cluster([resnet], fleet="yoco:1,isaac:1")
        for chip, spec in ((0, yoco_spec()), (1, chip_spec("isaac"))):
            expected = ArchitectureSimulator(spec).run_batch(resnet, 4)
            cost = cluster.service(chip, "resnet18", 4)
            assert cost.latency_ns == pytest.approx(expected.latency_ns)
            assert cost.energy_pj == pytest.approx(expected.energy_pj)

    def test_per_group_modes_coexist(self, resnet):
        """A batched and a pipelined group price batches differently."""
        cluster = Cluster([resnet], fleet="yoco:1,yoco:1:pipelined")
        sim = ArchitectureSimulator(yoco_spec())
        batched = cluster.service(0, "resnet18", 4)
        pipelined = cluster.service(1, "resnet18", 4)
        assert batched.latency_ns == pytest.approx(
            sim.run_batch(resnet, 4).latency_ns
        )
        stream = sim.run_layer_pipelined(resnet)
        assert pipelined.latency_ns == pytest.approx(
            stream.fill_ns + 3 * stream.interval_ns
        )

    def test_cluster_needs_a_fleet(self, resnet):
        with pytest.raises(ValueError, match=f"^{re.escape(MSG_NEED_FLEET)}$"):
            Cluster([resnet], None)

    def test_service_cache_cannot_cross_chip_types(self, resnet):
        """Regression: the per-(model, bucket) cost cache must key on the
        chip group, not just (capacity, fits).

        Two groups with *identical* weight capacity and residency but
        different per-VMM energy used to collide onto one cache row, so
        whichever group was priced first leaked its costs to the other.
        """
        hot = dataclasses.replace(
            yoco_spec(), name="yoco-hot", unit_vmm_energy_pj=2 * yoco_spec().unit_vmm_energy_pj
        )
        fleet = FleetSpec(
            (
                FleetGroup(chip_type="yoco", n_chips=1, spec=yoco_spec()),
                FleetGroup(chip_type="yoco-hot", n_chips=1, spec=hot),
            )
        )
        cluster = Cluster([resnet], fleet=fleet)
        # Same capacity and residency on both chips — the old cache key.
        assert hot.weight_capacity_bytes == yoco_spec().weight_capacity_bytes
        cool_first = cluster.service_table("resnet18").get(0, 1)
        hot_second = cluster.service_table("resnet18").get(1, 1)
        assert hot_second.energy_pj > cool_first.energy_pj
        expected = ArchitectureSimulator(hot).run(resnet)
        assert hot_second.energy_pj == pytest.approx(expected.energy_pj)
        # And in the reverse priming order on a fresh cluster.
        cluster2 = Cluster([resnet], fleet=fleet)
        hot_first = cluster2.service_table("resnet18").get(1, 1)
        cool_second = cluster2.service_table("resnet18").get(0, 1)
        assert hot_first.energy_pj == pytest.approx(expected.energy_pj)
        assert cool_second.energy_pj == pytest.approx(
            ArchitectureSimulator(yoco_spec()).run(resnet).energy_pj
        )


class TestCostAwarePlacement:
    def test_cost_table_covers_every_model_group_pair(self, resnet, llama):
        fleet = parse_fleet("yoco:1,isaac:1")
        table = fleet_cost_table([resnet, llama], fleet)
        assert set(table) == {
            ("resnet18", "yoco"),
            ("resnet18", "isaac"),
            ("llama3_7b", "yoco"),
            ("llama3_7b", "isaac"),
        }
        for service in table.values():
            assert service.latency_ns > 0 and service.energy_pj > 0

    def test_latency_objective_prefers_the_faster_group(self, resnet):
        """With one chip per group, resnet lands on whichever design wins
        the batch-1 latency race (YOCO, by orders of magnitude)."""
        fleet = parse_fleet("isaac:1,yoco:1")  # deliberately isaac-first
        plan = plan_fleet([resnet], fleet, "cost-latency")
        assert plan.unplaceable == ()
        # Pinned to yoco first; the idle isaac chip then replicates it.
        assert plan.chips[1].models == ("resnet18",)
        assert plan.replicas("resnet18", "yoco") == 1

    def test_energy_objective_can_disagree_with_latency(self, resnet):
        """The two objectives rank by different columns of the same table."""
        fleet = parse_fleet("yoco:1,isaac:1")
        table = fleet_cost_table([resnet], fleet)
        by_latency = min(
            ("yoco", "isaac"), key=lambda g: table["resnet18", g].latency_ns
        )
        by_energy = min(
            ("yoco", "isaac"), key=lambda g: table["resnet18", g].energy_pj
        )
        lat_plan = plan_fleet([resnet], fleet, "cost-latency")
        eng_plan = plan_fleet([resnet], fleet, "cost-energy")
        lat_first = lat_plan.chips[lat_plan.placements["resnet18"][0]]
        eng_first = eng_plan.chips[eng_plan.placements["resnet18"][0]]
        assert lat_first.chip_type == by_latency
        assert eng_first.chip_type == by_energy

    def test_oversized_model_claims_a_whole_die(self, resnet, llama):
        """LLaMA-7B (>13 GB) overflows every chip type: it must get an
        empty chip to itself (sealed against co-residents) and stream."""
        fleet = parse_fleet("yoco:2")
        plan = plan_fleet([resnet, llama], fleet, "cost-latency")
        assert plan.unplaceable == ()
        llama_chip = plan.placements["llama3_7b"][0]
        assert plan.chips[llama_chip].models == ("llama3_7b",)
        assert not plan.chips[llama_chip].fits
        assert plan.placements["resnet18"] != plan.placements["llama3_7b"]

    def test_unplaceable_is_reported_not_dropped(self, llama):
        """Two overflow models on one chip: the second has nowhere to go."""
        big_twin = dataclasses.replace(llama, name="llama_twin")
        fleet = parse_fleet("yoco:1")
        plan = plan_fleet([llama, big_twin], fleet, "cost-latency")
        assert len(plan.unplaceable) == 1
        placed = set(plan.placements)
        assert placed | set(plan.unplaceable) == {"llama3_7b", "llama_twin"}
        assert placed.isdisjoint(plan.unplaceable)

    def test_cluster_refuses_unplaceable_models(self, llama):
        big_twin = dataclasses.replace(llama, name="llama_twin")
        with pytest.raises(ValueError, match="fit on no chip"):
            Cluster(
                [llama, big_twin], fleet="yoco:1", placement="cost-latency"
            )


def _resnet_on(fleet, **workload):
    return ServingConfig(
        workload=WorkloadConfig(models=("resnet18",), **workload), fleet=fleet
    )


class TestHeteroServing:
    def test_mixed_fleet_run_is_deterministic(self, resnet):
        config = _resnet_on(
            FleetConfig(fleet="yoco:2,isaac:2"),
            rps=3000.0, duration_s=0.03, seed=3,
        )
        a_report, a_result = simulate_serving(config=config)
        b_report, b_result = simulate_serving(config=config)
        assert a_result.served == b_result.served
        assert a_report == b_report
        assert a_report.has_chip_types
        assert [t.chip_type for t in a_report.per_chip_type] == ["yoco", "isaac"]
        assert sum(t.n_requests for t in a_report.per_chip_type) == (
            a_report.n_requests
        )

    def test_fastest_routing_prefers_the_faster_chip_type(self, resnet):
        """YOCO outruns ISAAC on resnet by ~1000x; at modest load the
        fastest router should never touch the ISAAC chips."""
        report, result = simulate_serving(
            config=_resnet_on(
                FleetConfig(fleet="yoco:2,isaac:2"),
                rps=2000.0, duration_s=0.05, seed=0,
            )
        )
        by_type = {t.chip_type: t for t in report.per_chip_type}
        assert by_type["yoco"].n_requests == report.n_requests
        assert by_type["isaac"].n_requests == 0
        assert by_type["isaac"].energy_uj == 0.0

    def test_round_robin_spreads_over_both_types(self, resnet):
        cluster = Cluster([resnet], fleet="yoco:1,isaac:1")
        trace = poisson_trace("resnet18", rps=50.0, duration_s=0.2, seed=5)
        engine = ServingEngine(cluster, routing="round-robin")
        result = engine.run(trace)
        used = {s.chip_id for s in result.served}
        assert used == {0, 1}  # low load: every chip free at each dispatch

    def test_unknown_routing_rejected(self, resnet):
        cluster = Cluster([resnet], fleet="yoco:1")
        with pytest.raises(ValueError):
            ServingEngine(cluster, routing="warp")

    def test_slo_anchor_is_independent_of_group_order(self, resnet):
        """Regression: the default SLO prices the model's *best* hosting
        chip, so reshuffling fleet group declaration order cannot move
        goodput/attainment on identical hardware."""
        a, b = (
            simulate_serving(
                config=_resnet_on(
                    FleetConfig(fleet=fleet),
                    rps=30000.0, duration_s=0.05, seed=3,
                )
            )[0]
            for fleet in ("yoco:2,isaac:2", "isaac:2,yoco:2")
        )
        assert a.per_model[0].slo_ms == b.per_model[0].slo_ms
        assert a.goodput_rps == b.goodput_rps
        assert a.slo_attainment == b.slo_attainment

    def test_simulate_serving_needs_a_fleet(self):
        """FleetConfig has no default fleet; the cluster's message says so."""
        with pytest.raises(ValueError, match=f"^{re.escape(MSG_NEED_FLEET)}$"):
            simulate_serving(config=_resnet_on(FleetConfig(), rps=100.0))
