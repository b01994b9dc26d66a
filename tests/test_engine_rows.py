"""Guard: the general event loop carries requests as rows, not objects.

A queued request is an int row into the run's request columns, so
:meth:`ServingEngine.run` builds a :class:`Request` only for a request
rejected for good (its :class:`RejectedRequest` record).  Closed-loop
clients build one per fresh issue on their side of the driver edge.
Each scenario below takes the general loop; the trace is built before the
run, so only constructions inside ``run`` are counted.
"""

import pytest

import repro.serve.engine as engine_module
from repro.cli import build_parser, serve_config_from_args
from repro.serve import Request, ServingEngine, Tenant, simulate_serving
from repro.serve.config import (
    FleetConfig,
    PolicyConfig,
    ServingConfig,
    WorkloadConfig,
)


def _cli(argv: str) -> ServingConfig:
    return serve_config_from_args(build_parser().parse_args(["serve", *argv.split()]))


#: Open-loop runs on the general loop: each builds exactly one Request per
#: final rejection.
OPEN_LOOP = {
    "tenant_mix": ServingConfig(
        workload=WorkloadConfig(
            models=("mobilebert", "resnet18", "mobilenetv3", "vit"),
            duration_s=0.05,
            seed=0,
            tenants=(
                Tenant("chat", "interactive", weight=4, rps=1000.0,
                       models=("mobilebert",), seqlen_dist="lognormal"),
                Tenant("vision", "batch", weight=2, rps=16_000.0,
                       models=("resnet18", "mobilenetv3")),
                Tenant("bulk", "best-effort", weight=1, rps=500.0,
                       models=("vit", "mobilebert"), seqlen_dist="uniform"),
            ),
        ),
        fleet=FleetConfig(fleet="yoco:4,isaac:4"),
        policy=PolicyConfig(
            scheduler="weighted-fair", preemption=True, admission="slo-aware"
        ),
    ),
    "buckets_preempt_shed": _cli(
        "--model mobilebert --chips 1 --tenants "
        "chat:interactive:w=4:poisson@1000:deadline=0.5:seqlen=lognormal,"
        "bulk:batch:poisson@20000:seqlen=uniform --scheduler weighted-fair "
        "--preempt --admission slo-aware --duration 0.02 --seed 0"
    ),
    "decode": _cli(
        "--model mobilebert --chips 4 --rps 2000 --duration 0.02 "
        "--decode-dist lognormal --seed 0"
    ),
    "autoscale": _cli(
        "--model resnet18 --chips 8 --rps 60000 --duration 0.03 "
        "--trace diurnal --autoscale 1:8 --seed 0"
    ),
    "power_capped": _cli(
        "--model resnet18 --chips 4 --rps 40000 --duration 0.01 "
        "--power-cap 0.5 --t-max 60 --seed 0"
    ),
}


@pytest.fixture
def counted_run(monkeypatch):
    """``run(config)`` -> (result, Requests built inside the engine run,
    the run's closed-loop drivers)."""
    state = {"inside": False, "built": 0}
    drivers = []
    post_init = Request.__post_init__
    engine_run = ServingEngine.run

    def counting_post_init(self):
        if state["inside"]:
            state["built"] += 1
        post_init(self)

    def counting_run(self, *args, **kwargs):
        state["inside"] = True
        try:
            return engine_run(self, *args, **kwargs)
        finally:
            state["inside"] = False

    class RecordedDriver(engine_module.ClosedLoopDriver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            drivers.append(self)

    monkeypatch.setattr(Request, "__post_init__", counting_post_init)
    monkeypatch.setattr(ServingEngine, "run", counting_run)
    monkeypatch.setattr(engine_module, "ClosedLoopDriver", RecordedDriver)
    monkeypatch.setattr(
        ServingEngine, "_run_turbo",
        lambda *args: pytest.fail("the run took the turbo loop"),
    )

    def run(config):
        result = simulate_serving(config)[1]
        return result, state["built"], drivers

    return run


@pytest.mark.parametrize("scenario", sorted(OPEN_LOOP))
def test_open_loop_builds_a_request_per_final_rejection(scenario, counted_run):
    result, built, _ = counted_run(OPEN_LOOP[scenario])
    assert result.n_requests > 0
    assert built == len(result.rejected)


def test_closed_loop_builds_only_issues_and_final_rejections(counted_run):
    result, built, drivers = counted_run(
        _cli(
            "--model resnet18 --chips 1 --clients 32 --think-time 0.2 "
            "--retries 2 --admission queue-cap:4 --duration 0.01 --seed 0"
        )
    )
    (driver,) = drivers
    assert result.n_retries > 0 and result.rejected
    assert built <= driver.n_issued + len(result.rejected)
