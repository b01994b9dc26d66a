"""Cluster planning (placement, capacity) and per-chip service costs."""

import dataclasses

import pytest

from repro.arch import ArchitectureSimulator, yoco_spec
from repro.models import get_workload
from repro.serve import Cluster, parse_fleet
from repro.serve.cluster import plan_fleet
from repro.serve.fleet import homogeneous_fleet


@pytest.fixture(scope="module")
def resnet():
    return get_workload("resnet18")


@pytest.fixture(scope="module")
def llama():
    return get_workload("llama3_7b")


class TestPlanning:
    def test_replicated_puts_every_model_everywhere(self, resnet, llama):
        plan = plan_fleet([resnet, llama], homogeneous_fleet(yoco_spec(), 3))
        for chip in plan.chips:
            assert chip.models == ("resnet18", "llama3_7b")
        assert plan.placements["resnet18"] == (0, 1, 2)

    def test_partitioned_separates_heavy_models(self, resnet, llama):
        plan = plan_fleet(
            [resnet, llama], homogeneous_fleet(yoco_spec(), 2), "partitioned"
        )
        hosts = plan.placements
        assert hosts["llama3_7b"] != hosts["resnet18"]
        assert len(hosts["llama3_7b"]) == 1 and len(hosts["resnet18"]) == 1

    def test_partitioned_replicates_hot_models_onto_idle_chips(self, resnet):
        plan = plan_fleet(
            [resnet], homogeneous_fleet(yoco_spec(), 4), "partitioned"
        )
        assert plan.placements["resnet18"] == (0, 1, 2, 3)

    def test_capacity_awareness(self, resnet, llama):
        spec = yoco_spec()
        plan = plan_fleet(
            [resnet, llama], homogeneous_fleet(spec, 2), "partitioned"
        )
        fits = {m: plan.chips[hosts[0]].fits for m, hosts in plan.placements.items()}
        # ResNet-18 (~11 MB) fits the 134 MB SIMA capacity; LLaMA-7B does not.
        assert fits["resnet18"]
        assert not fits["llama3_7b"]
        assert llama.total_weight_bytes > spec.weight_capacity_bytes

    def test_prefill_decode_hosts_every_model_in_both_phases(self, resnet):
        """Both phase groups are non-empty and host every model, so the
        engine always finds a prefill and a decode host for each model."""
        models = [resnet, get_workload("mobilebert")]
        fleet = parse_fleet("yoco:2,isaac:1")
        plan = plan_fleet(models, fleet, "prefill-decode")
        assert all(c.models == ("resnet18", "mobilebert") for c in plan.chips)
        cluster = Cluster(models, fleet=fleet, placement="prefill-decode")
        for model in cluster.models:
            assert cluster.service_table(model).hosts == (0, 1)
            assert cluster.decode_table(model).hosts == (2,)
        for model in cluster.models:
            assert cluster.chips_for(model) == (0, 1, 2)
        with pytest.raises(ValueError):
            Cluster(models, fleet="yoco:3", placement="prefill-decode")

    def test_validation(self, resnet):
        with pytest.raises(ValueError):
            plan_fleet([resnet], homogeneous_fleet(yoco_spec(), 0))
        with pytest.raises(ValueError):
            plan_fleet([], homogeneous_fleet(yoco_spec(), 1))
        with pytest.raises(ValueError):
            plan_fleet([resnet, resnet], homogeneous_fleet(yoco_spec(), 1))
        with pytest.raises(ValueError):
            plan_fleet([resnet], homogeneous_fleet(yoco_spec(), 1), "magic")


class TestServiceCosts:
    def test_batch_one_matches_single_inference_roll_up(self, resnet):
        cluster = Cluster([resnet], fleet="yoco:2")
        run = ArchitectureSimulator(yoco_spec()).run(resnet)
        cost = cluster.service(0, "resnet18", 1)
        assert cost.latency_ns == pytest.approx(run.latency_ns)
        assert cost.energy_pj == pytest.approx(run.energy_pj)

    def test_energy_linear_latency_sublinear(self, resnet):
        cluster = Cluster([resnet], fleet="yoco:1")
        one = cluster.service(0, "resnet18", 1)
        eight = cluster.service(0, "resnet18", 8)
        assert eight.energy_pj == pytest.approx(8 * one.energy_pj)
        assert eight.latency_ns < 8 * one.latency_ns

    def test_overflowing_chip_pays_streaming_costs(self, llama):
        cluster = Cluster([llama], fleet="yoco:1")
        resident = ArchitectureSimulator(yoco_spec(), weights_resident=True).run(llama)
        streaming = ArchitectureSimulator(yoco_spec(), weights_resident=False).run(
            llama
        )
        cost = cluster.service(0, "llama3_7b", 1)
        assert cost.energy_pj == pytest.approx(streaming.energy_pj)
        assert cost.energy_pj > resident.energy_pj

    def test_colocated_models_split_capacity(self, resnet):
        """Two models sharing a die halve each other's replication budget."""
        alex = get_workload("alexnet")
        shared = Cluster([resnet, alex], fleet="yoco:1")
        alone = Cluster([resnet], fleet="yoco:1")
        spec = yoco_spec()
        halved = dataclasses.replace(
            spec, weight_capacity_bytes=spec.weight_capacity_bytes // 2
        )
        expected = ArchitectureSimulator(halved).run(resnet)
        assert shared.service(0, "resnet18", 1).latency_ns == pytest.approx(
            expected.latency_ns
        )
        assert shared.service(0, "resnet18", 1).latency_ns >= alone.service(
            0, "resnet18", 1
        ).latency_ns

    def test_pipelined_overflow_is_bounded_by_offchip_link(self, resnet):
        """A pipelined chip whose model overflows capacity cannot finish
        inferences faster than it can re-stream the overflow weights."""
        gpt = get_workload("gpt_large")
        cluster = Cluster([gpt], homogeneous_fleet(yoco_spec(), 1, "pipelined"))
        streaming = ArchitectureSimulator(yoco_spec(), weights_resident=False).run(
            gpt
        )
        stream_ns = sum(l.data_latency_ns for l in streaming.layers)
        assert stream_ns > 0
        cost = cluster.service(0, "gpt_large", 2)
        # fill (>= one full stream) plus one steady interval (>= one stream).
        assert cost.latency_ns >= 2 * stream_ns

    def test_pipelined_mode_uses_fill_plus_intervals(self, resnet):
        cluster = Cluster([resnet], homogeneous_fleet(yoco_spec(), 1, "pipelined"))
        stream = ArchitectureSimulator(yoco_spec()).run_layer_pipelined(resnet)
        cost = cluster.service(0, "resnet18", 4)
        assert cost.latency_ns == pytest.approx(
            stream.fill_ns + 3 * stream.interval_ns
        )
        assert cost.energy_pj == pytest.approx(4 * stream.run.energy_pj)

    def test_service_rejects_non_hosting_chip(self, resnet, llama):
        cluster = Cluster([resnet, llama], fleet="yoco:2", placement="partitioned")
        resnet_chip = cluster.chips_for("resnet18")[0]
        other = 1 - resnet_chip
        with pytest.raises(ValueError):
            cluster.service(other, "resnet18", 1)

    def test_unknown_mode_rejected(self, resnet):
        with pytest.raises(ValueError, match="unknown mode 'warp'"):
            homogeneous_fleet(yoco_spec(), 1, "warp")

    def test_reference_latency_is_batch_one(self, resnet):
        cluster = Cluster([resnet], fleet="yoco:3")
        chip = cluster.chips_for("resnet18")[0]
        assert cluster.reference_latency_ns("resnet18") == pytest.approx(
            cluster.service(chip, "resnet18", 1).latency_ns
        )
