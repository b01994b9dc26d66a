"""Served energy equals the cost-table rows, exactly.

A cross-layer invariant between the engine and the cluster's cost memo:
every served request's ``energy_pj`` is its batch's row energy on the
chip that ran it, at the batch's size and padded sequence length, split
evenly over the batch — ``==``, not approximately.  Two runs: a mixed
``yoco:2,isaac:2`` fleet routing by cheapest energy over two models with
lognormal sequence lengths, and a power-capped homogeneous fleet.  A
fresh cluster over the same fleet prices the same rows.
"""

import pytest

from repro.models import get_workload
from repro.serve import (
    Cluster,
    FleetConfig,
    PowerConfig,
    ServingConfig,
    WorkloadConfig,
    simulate_serving,
)

SCENARIOS = {
    "mixed-cheapest-energy": ServingConfig(
        workload=WorkloadConfig(
            models=("resnet18", "mobilebert"),
            rps=20000.0,
            duration_s=0.05,
            seqlen_dist="lognormal",
        ),
        fleet=FleetConfig(fleet="yoco:2,isaac:2", routing="cheapest-energy"),
    ),
    "power-capped": ServingConfig(
        workload=WorkloadConfig(models=("resnet18",), rps=20000.0, duration_s=0.05),
        fleet=FleetConfig(fleet="yoco:4", power=PowerConfig(power_cap_w=0.5)),
    ),
}


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def run(request):
    config = SCENARIOS[request.param]
    _, result = simulate_serving(config)
    cluster = Cluster(
        [get_workload(m) for m in config.workload.models], config.fleet.fleet
    )
    return request.param, result, cluster


def test_scenarios_exercise_what_they_claim(run):
    name, result, cluster = run
    served = result.served
    assert len({s.batch_size for s in served}) > 1
    if name == "power-capped":
        assert result.power.total_stall_ns > 0
    else:
        assert {cluster.chip_type(s.chip_id) for s in served} == {"yoco", "isaac"}
        assert any(s.padded_seq_len for s in served)


def test_served_energy_is_the_row_share(run):
    _, result, cluster = run
    for s in result.served:
        row = cluster.service_table(s.request.model).get(
            s.chip_id, s.batch_size, s.padded_seq_len
        )
        assert s.energy_pj == row.energy_pj / s.batch_size
