"""Golden guard + isolation guarantee for `repro.serve.tenancy`.

Two halves, mirroring the PR's headline promise:

1. **Degenerate replay.**  A single tenant under the ``fifo`` scheduler
   with preemption off is *exactly* the untagged engine: tenant index 0
   draws the legacy seed lanes, the fifo key collapses to FCFS, and the
   slot table degenerates to the legacy per-model layout.  Replaying the
   PR 3 differential scenarios (``tests/test_hetero_differential`` —
   imported, not copied) through ``tenants=`` must reproduce the golden
   reports and the bit-exact per-request digests byte for byte, alone and
   stacked under the PR 4/PR 5 no-op layers.

2. **Noisy-neighbor isolation.**  With weighted-fair scheduling and a
   per-tenant token bucket at the attacker's declared rate, a tenant
   misbehaving at 10x its declared rate must not degrade a protected
   tenant's accepted p99 beyond ``1.5 * baseline + 2 * ref``: the bucket
   sheds the excess before it perturbs queue state and the virtual-clock
   scheduler caps the attacker's share of the remaining capacity.  The
   contrast test shows the same attack is catastrophic (order-of-magnitude
   p99 blowup) without the isolation machinery, so the bound is evidence
   the subsystem works, not slack in the workload.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_hetero_differential import (
    SCENARIOS,
    _golden_text,
    _run,
    replace_in,
    served_digest,
)

from repro.serve import (
    FleetConfig,
    PolicyConfig,
    PowerConfig,
    ServingConfig,
    Tenant,
    WorkloadConfig,
    format_serving,
    parse_fleet,
    simulate_serving,
)
from repro.serve.admission import AcceptAll


@pytest.fixture(scope="module")
def golden_digests():
    import json
    import pathlib

    data = pathlib.Path(__file__).parent / "data"
    with open(data / "golden_serve_digests.json") as f:
        return json.load(f)


def _tenant_twin(legacy):
    """Rewrite a legacy scenario as its degenerate single-tenant twin."""
    workload = legacy.workload
    spec = "solo:batch:poisson@{:g}".format(workload.rps)
    if workload.seqlen_dist is not None:
        spec += ":seqlen=" + workload.seqlen_dist
    return replace_in(legacy, "workload", seqlen_dist=None, tenants=spec)


# -- degenerate replay ---------------------------------------------------------------


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
class TestSingleTenantGolden:
    def test_single_tenant_matches_golden(self, scenario, golden_digests):
        config, spec_built = SCENARIOS[scenario]
        # The fleet string names the spec-built fleet: one run covers both.
        assert parse_fleet(config.fleet.fleet) == spec_built.fleet
        report, result = _run(_tenant_twin(config))
        assert format_serving(report) == _golden_text(scenario)
        assert served_digest(result) == golden_digests[scenario]
        # Tenancy genuinely ran: the result is tagged, the report gated.
        assert result.scheduler == "fifo" and result.tenants == ("solo",)
        assert result.n_preemptions == 0
        assert not report.has_tenants
        (stats,) = report.per_tenant
        assert stats.tenant == "solo"
        assert stats.n_requests == result.n_requests

    def test_stacked_noop_layers_match_golden(self, scenario, golden_digests):
        # Tenancy under accept-all admission and an unconstrained power
        # governor: three no-op layers deep, still byte-identical.
        legacy, _ = SCENARIOS[scenario]
        gated = replace_in(
            _tenant_twin(legacy), "policy", admission=AcceptAll()
        )
        report, result = _run(replace_in(gated, "fleet", power=PowerConfig()))
        assert format_serving(report) == _golden_text(scenario)
        assert served_digest(result) == golden_digests[scenario]

    def test_tenant_request_tags_cover_the_trace(self, scenario):
        legacy, _ = SCENARIOS[scenario]
        _, result = _run(_tenant_twin(legacy))
        assert all(s.request.tenant == "solo" for s in result.served)


# -- counterweights: the knobs genuinely change the simulation -----------------------


def _two_tenant_config(deadline_ms=None, **policy):
    # bulk saturates the single chip, so the scheduler genuinely arbitrates.
    tenants = (
        Tenant(
            "chat",
            "interactive",
            weight=4.0,
            rps=2000.0,
            deadline_ms=deadline_ms,
        ),
        Tenant("bulk", "batch", weight=1.0, rps=60000.0),
    )
    return ServingConfig(
        workload=WorkloadConfig(
            models=("resnet18",), duration_s=0.01, seed=0, tenants=tenants
        ),
        fleet=FleetConfig(fleet="yoco:1"),
        policy=PolicyConfig(**policy),
    )


class TestCounterweights:
    def test_scheduler_choice_changes_dispatch_order(self):
        digests = {}
        for scheduler in ("fifo", "strict-priority", "weighted-fair"):
            _, result = _run(_two_tenant_config(scheduler=scheduler))
            digests[scheduler] = served_digest(result)
            # Conservation holds under every scheduler.
            assert result.n_requests + result.n_rejections == len(
                result.served
            ) + len(result.rejected)
        assert digests["fifo"] != digests["strict-priority"]
        assert digests["fifo"] != digests["weighted-fair"]

    def test_strict_priority_helps_the_interactive_tenant(self):
        def chat_mean(scheduler):
            _, result = _run(_two_tenant_config(scheduler=scheduler))
            served = result.for_tenant("chat")
            return sum(s.latency_ns for s in served) / len(served)

        assert chat_mean("strict-priority") < chat_mean("fifo")

    def test_preemption_fires_and_accounts_its_waste(self):
        # The 80 us absolute deadline is unmeetable by waiting out a
        # saturated chip but meetable after an overhead-charged preempt.
        _, result = _run(
            _two_tenant_config(
                deadline_ms=0.08, scheduler="strict-priority", preemption=True
            )
        )
        assert result.n_preemptions > 0
        assert result.preempted_wasted_ns > 0.0
        for record in result.preempted:
            assert record.by_tenant == "chat" and record.tenant == "bulk"
            assert record.wasted_ns >= 0.0
        # Every offered request is still served exactly once.
        ids = sorted(s.request.request_id for s in result.served)
        assert len(ids) == len(set(ids)) == result.n_requests


# -- noisy-neighbor isolation --------------------------------------------------------

_DECLARED_RPS = 20000.0
_SEEDS = st.integers(min_value=0, max_value=2**31)
_CHIPS = st.integers(min_value=1, max_value=3)


def _p99_ms(served):
    lat = sorted(s.latency_ns * 1e-6 for s in served)
    assert lat, "protected tenant must keep being served"
    return lat[min(len(lat) - 1, math.ceil(0.99 * len(lat)) - 1)]


def _noisy_neighbor_run(seed, n_chips, attack_multiple, protected=True):
    tenants = (
        Tenant("paid", "interactive", weight=4.0, rps=2000.0),
        Tenant(
            "free",
            "batch",
            weight=1.0,
            rps=_DECLARED_RPS * attack_multiple,
            rate_limit_rps=_DECLARED_RPS if protected else None,
            rate_limit_burst=8.0,
        ),
    )
    _, result = simulate_serving(
        config=ServingConfig(
            workload=WorkloadConfig(
                models=("resnet18",),
                duration_s=0.01,
                seed=seed,
                tenants=tenants,
            ),
            fleet=FleetConfig(fleet=f"yoco:{n_chips}"),
            policy=PolicyConfig(
                scheduler="weighted-fair" if protected else "fifo"
            ),
        )
    )
    return result


class TestNoisyNeighborIsolation:
    """The PR's headline guarantee, stated as a property over seeds."""

    @given(seed=_SEEDS, n_chips=_CHIPS)
    @settings(max_examples=15, deadline=None)
    def test_protected_p99_is_bounded_under_a_10x_attack(self, seed, n_chips):
        base = _noisy_neighbor_run(seed, n_chips, 1.0)
        attack = _noisy_neighbor_run(seed, n_chips, 10.0)
        cluster_ref_ms = 0.0421  # resnet18 reference latency, ~42 us
        p99_base = _p99_ms(base.for_tenant("paid"))
        p99_attack = _p99_ms(attack.for_tenant("paid"))
        assert p99_attack <= 1.5 * p99_base + 2.0 * cluster_ref_ms
        # The bucket did the shedding: the attacker's excess was turned
        # away at admission, and none of the protected traffic was.
        assert len(attack.rejected_for_tenant("free")) > len(
            base.rejected_for_tenant("free")
        )
        assert attack.rejected_for_tenant("paid") == ()

    @given(seed=_SEEDS, n_chips=_CHIPS)
    @settings(max_examples=10, deadline=None)
    def test_attacker_excess_is_shed_not_queued(self, seed, n_chips):
        attack = _noisy_neighbor_run(seed, n_chips, 10.0)
        offered = attack.n_requests + attack.n_rejections
        # At 10x the declared rate, the bucket must shed the bulk of the
        # attacker's traffic (it refills at 1/10th the offered rate).
        shed = len(attack.rejected_for_tenant("free"))
        assert shed > offered // 2

    def test_without_isolation_the_attack_is_catastrophic(self):
        # Contrast: fifo + no rate limit. The same 10x attack blows the
        # protected tenant's p99 up by well over the bound — the bound
        # above is evidence of isolation, not slack in the workload.
        base = _noisy_neighbor_run(0, 1, 1.0, protected=False)
        attack = _noisy_neighbor_run(0, 1, 10.0, protected=False)
        p99_base = _p99_ms(base.for_tenant("paid"))
        p99_attack = _p99_ms(attack.for_tenant("paid"))
        assert p99_attack > 5.0 * p99_base
