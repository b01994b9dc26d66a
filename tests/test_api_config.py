"""The redesigned ``ServingConfig`` API: one rule table, two doors.

Three contracts, each load-bearing for the PR-10 API redesign:

* **Rule table** — every banned composition in
  :data:`repro.serve.config.COMPOSITION_RULES` raises its canonical
  message, asserted *exactly* (``re.escape``) against the importable
  ``MSG_*`` constants, through ``ServingConfig.validate()``.
* **Engine door** — constructing a :class:`ServingEngine` directly with
  the same bad composition raises the *identical* wording, because the
  constructor re-runs the engine-relevant rows via
  :func:`repro.serve.config.validate_engine`.
* **Dual entry** — ``simulate_serving(config=ServingConfig(...))`` and
  the legacy 38-kwarg flat form produce object-for-object identical
  ``(report, result)`` pairs, and mixing ``config=`` with overridden
  flat kwargs is rejected naming the offenders.

Plus unit tests of the pure CLI translation
:func:`repro.cli.serve_config_from_args` (args in, ``ServingConfig``
out, no simulation started).
"""

import re

import pytest

from repro.cli import build_parser, serve_config_from_args
from repro.models.zoo import get_workload
from repro.serve import (
    ClientPopulation,
    Cluster,
    DecodeConfig,
    FleetConfig,
    ObserveConfig,
    PolicyConfig,
    PowerConfig,
    ServingConfig,
    ServingEngine,
    StreamingMetrics,
    TenancyConfig,
    WorkloadConfig,
    parse_autoscale,
    parse_tenants,
    simulate_serving,
)
from repro.serve.config import (
    COMPOSITION_RULES,
    MSG_CLIENTS_MIN,
    MSG_DECODE_CLIENTS,
    MSG_DECODE_ELASTIC,
    MSG_DECODE_STREAM,
    MSG_DECODE_TENANTS,
    MSG_NEED_MODELS,
    MSG_PD_NEEDS_DECODE,
    MSG_PD_NEEDS_GROUPS,
    MSG_POWER_BOTH,
    MSG_PREEMPT_ELASTIC,
    MSG_PREEMPT_POWER,
    MSG_RETRY_OPEN_LOOP,
    MSG_SCHEDULER_NEEDS_TENANTS,
    MSG_TENANTS_CLIENTS,
    msg_regions_incompatible,
    msg_unknown_routing,
    msg_unknown_seqlen_dist,
)

TENANTS = "chat:interactive:w=4:poisson@200:model=mobilebert"


def _cfg(*, workload=None, fleet=None, policy=None, observe=None, decode=None):
    return ServingConfig(
        workload=workload or WorkloadConfig(models=("mobilebert",)),
        fleet=fleet or FleetConfig(),
        policy=policy or PolicyConfig(),
        observe=observe or ObserveConfig(),
        decode=decode,
    )


#: (config, canonical message) — one entry per rule-table row.
_VIOLATIONS = [
    pytest.param(
        _cfg(workload=WorkloadConfig(models=())),
        MSG_NEED_MODELS,
        id="need-models",
    ),
    pytest.param(
        _cfg(fleet=FleetConfig(power=PowerConfig(), power_cap_w=50.0)),
        MSG_POWER_BOTH,
        id="power-both",
    ),
    pytest.param(
        _cfg(
            workload=WorkloadConfig(
                models=("mobilebert",), seqlen_dist="weird"
            )
        ),
        msg_unknown_seqlen_dist("weird"),
        id="unknown-seqlen-dist",
    ),
    pytest.param(
        _cfg(workload=WorkloadConfig(models=("mobilebert",), clients=0)),
        MSG_CLIENTS_MIN,
        id="clients-min",
    ),
    pytest.param(
        _cfg(workload=WorkloadConfig(models=("mobilebert",), retry=2)),
        MSG_RETRY_OPEN_LOOP,
        id="retry-open-loop",
    ),
    pytest.param(
        _cfg(
            workload=WorkloadConfig(
                models=("mobilebert",), tenants=TENANTS, clients=2
            )
        ),
        MSG_TENANTS_CLIENTS,
        id="tenants-clients",
    ),
    pytest.param(
        _cfg(policy=PolicyConfig(preemption=True)),
        MSG_SCHEDULER_NEEDS_TENANTS,
        id="scheduler-needs-tenants",
    ),
    pytest.param(
        _cfg(fleet=FleetConfig(routing="warpspeed")),
        msg_unknown_routing("warpspeed"),
        id="unknown-routing",
    ),
    pytest.param(
        _cfg(
            workload=WorkloadConfig(models=("mobilebert",), tenants=TENANTS),
            policy=PolicyConfig(preemption=True),
            fleet=FleetConfig(power_cap_w=50.0),
        ),
        MSG_PREEMPT_POWER,
        id="preempt-power",
    ),
    pytest.param(
        _cfg(
            workload=WorkloadConfig(models=("mobilebert",), tenants=TENANTS),
            policy=PolicyConfig(preemption=True),
            fleet=FleetConfig(elastic="1:8"),
        ),
        MSG_PREEMPT_ELASTIC,
        id="preempt-elastic",
    ),
    pytest.param(
        _cfg(
            workload=WorkloadConfig(models=("mobilebert",), tenants=TENANTS),
            decode=DecodeConfig(),
        ),
        MSG_DECODE_TENANTS,
        id="decode-tenants",
    ),
    pytest.param(
        _cfg(
            workload=WorkloadConfig(models=("mobilebert",), clients=2),
            decode=DecodeConfig(),
        ),
        MSG_DECODE_CLIENTS,
        id="decode-clients",
    ),
    pytest.param(
        _cfg(fleet=FleetConfig(elastic="1:8"), decode=DecodeConfig()),
        MSG_DECODE_ELASTIC,
        id="decode-elastic",
    ),
    pytest.param(
        _cfg(
            observe=ObserveConfig(
                stream_metrics=StreamingMetrics(progress_every=100)
            ),
            decode=DecodeConfig(),
        ),
        MSG_DECODE_STREAM,
        id="decode-stream",
    ),
    pytest.param(
        _cfg(
            fleet=FleetConfig(
                fleet="yoco:2,isaac:2", placement="prefill-decode"
            )
        ),
        MSG_PD_NEEDS_DECODE,
        id="pd-needs-decode",
    ),
    pytest.param(
        _cfg(
            fleet=FleetConfig(fleet="yoco:4", placement="prefill-decode"),
            decode=DecodeConfig(),
        ),
        MSG_PD_NEEDS_GROUPS,
        id="pd-needs-groups",
    ),
    pytest.param(
        _cfg(
            workload=WorkloadConfig(models=("mobilebert",), regions=3),
            decode=DecodeConfig(),
        ),
        msg_regions_incompatible("--decode-dist"),
        id="regions-decode",
    ),
    pytest.param(
        _cfg(
            workload=WorkloadConfig(models=("mobilebert",), regions=3),
            fleet=FleetConfig(fleet="yoco:4"),
        ),
        msg_regions_incompatible("--fleet"),
        id="regions-fleet",
    ),
]


class TestRuleTable:
    @pytest.mark.parametrize("config,message", _VIOLATIONS)
    def test_violation_raises_the_canonical_message(self, config, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config.validate()

    def test_valid_config_validates_and_chains(self):
        config = _cfg()
        assert config.validate() is config

    def test_tenant_models_must_be_served(self):
        config = _cfg(
            workload=WorkloadConfig(models=("resnet18",), tenants=TENANTS)
        )
        with pytest.raises(ValueError, match="serves \\['resnet18'\\]"):
            config.validate()

    def test_every_row_is_exercised(self):
        # The parametrization covers each rule-table row at least once:
        # firing all violation configs must trip every distinct message
        # the table can emit (regions rows share one message shape).
        messages = {m.values[1] for m in _VIOLATIONS}
        assert len(messages) == len(_VIOLATIONS)
        assert len(COMPOSITION_RULES) <= len(_VIOLATIONS)


class TestEngineDoor:
    """Direct ServingEngine construction raises the identical wording."""

    @pytest.fixture(scope="class")
    def cluster(self):
        return Cluster([get_workload("mobilebert")], n_chips=2)

    def test_unknown_routing(self, cluster):
        with pytest.raises(
            ValueError,
            match=f"^{re.escape(msg_unknown_routing('warpspeed'))}$",
        ):
            ServingEngine(cluster, routing="warpspeed")

    def test_decode_with_tenancy(self, cluster):
        tenancy = TenancyConfig(parse_tenants(TENANTS))
        with pytest.raises(
            ValueError, match=f"^{re.escape(MSG_DECODE_TENANTS)}$"
        ):
            ServingEngine(cluster, tenancy=tenancy, decode=DecodeConfig())

    def test_decode_with_elastic(self, cluster):
        with pytest.raises(
            ValueError, match=f"^{re.escape(MSG_DECODE_ELASTIC)}$"
        ):
            ServingEngine(
                cluster, elastic=parse_autoscale("1:2"), decode=DecodeConfig()
            )

    def test_tenancy_with_clients_at_run(self, cluster):
        engine = ServingEngine(
            cluster, tenancy=TenancyConfig(parse_tenants(TENANTS))
        )
        clients = ClientPopulation(models=("mobilebert",), n_clients=2)
        with pytest.raises(
            ValueError, match=f"^{re.escape(MSG_TENANTS_CLIENTS)}$"
        ):
            engine.run(clients=clients)

    def test_preempt_with_power(self, cluster):
        tenancy = TenancyConfig(parse_tenants(TENANTS), preemption=True)
        with pytest.raises(
            ValueError, match=f"^{re.escape(MSG_PREEMPT_POWER)}$"
        ):
            ServingEngine(cluster, tenancy=tenancy, power=PowerConfig())

    def test_prefill_decode_cluster_needs_decode(self):
        cluster = Cluster(
            [get_workload("mobilebert")],
            fleet="yoco:2,isaac:2",
            placement="prefill-decode",
        )
        with pytest.raises(
            ValueError, match=f"^{re.escape(MSG_PD_NEEDS_DECODE)}$"
        ):
            ServingEngine(cluster)

    def test_prefill_decode_cluster_needs_groups(self):
        with pytest.raises(
            ValueError, match=f"^{re.escape(MSG_PD_NEEDS_GROUPS)}$"
        ):
            Cluster(
                [get_workload("mobilebert")],
                n_chips=4,
                placement="prefill-decode",
            )


#: Legacy flat-kwarg scenarios spanning every config group; each must be
#: object-for-object identical through the grouped-config door.
_SCENARIOS = [
    pytest.param(dict(models=["resnet18"], n_chips=2), id="plain"),
    pytest.param(
        dict(
            models=["mobilebert"],
            n_chips=2,
            seqlen_dist="lognormal",
            seqlen_mean=128,
            seqlen_buckets=[64, 128, 256, 512],
        ),
        id="seqlen",
    ),
    pytest.param(
        dict(
            models=["mobilebert"],
            fleet="yoco:2,isaac:2",
            routing="cheapest-energy",
        ),
        id="fleet-routing",
    ),
    pytest.param(
        dict(models=["resnet18"], n_chips=2, power_cap_w=30.0, t_max_c=85.0),
        id="power-scalars",
    ),
    pytest.param(
        dict(
            models=["resnet18"],
            n_chips=2,
            clients=4,
            retry=2,
            admission="queue-cap:8",
        ),
        id="clients-retry-admission",
    ),
    pytest.param(
        dict(
            models=["mobilebert"],
            n_chips=2,
            tenants=TENANTS,
            scheduler="weighted-fair",
        ),
        id="tenants-scheduler",
    ),
    pytest.param(
        dict(
            models=["mobilebert"],
            n_chips=2,
            decode=DecodeConfig(dist="uniform", mean_tokens=8),
        ),
        id="decode",
    ),
    pytest.param(
        dict(
            models=["mobilebert"],
            fleet="yoco:2,isaac:2",
            placement="prefill-decode",
            decode=DecodeConfig(dist="lognormal", mean_tokens=8),
        ),
        id="prefill-decode",
    ),
]


class TestDualEntry:
    @pytest.mark.parametrize("kwargs", _SCENARIOS)
    def test_legacy_and_config_doors_are_identical(self, kwargs):
        legacy = simulate_serving(duration_s=0.02, **kwargs)
        config = ServingConfig.from_kwargs(duration_s=0.02, **kwargs)
        via_config = simulate_serving(config=config)
        assert legacy[0] == via_config[0]  # ServingReport
        assert legacy[1] == via_config[1]  # ServingResult

    def test_config_plus_overridden_kwargs_rejected_by_name(self):
        config = ServingConfig.from_kwargs(models=["resnet18"], n_chips=2)
        with pytest.raises(
            ValueError, match=r"\['models', 'n_chips'\]"
        ):
            simulate_serving(models=["mobilebert"], n_chips=8, config=config)

    def test_config_plus_default_kwargs_is_fine(self):
        config = ServingConfig.from_kwargs(
            models=["resnet18"], n_chips=1, duration_s=0.01
        )
        report, result = simulate_serving(config=config)
        assert report.n_requests == len(result.served)

    def test_from_kwargs_groups_every_field(self):
        config = ServingConfig.from_kwargs(
            models=["mobilebert"],
            n_chips=2,
            rps=500.0,
            seqlen_dist="uniform",
            clients=None,
            scheduler="fifo",
            metrics_window_ms=2.0,
            decode=DecodeConfig(mean_tokens=4),
        )
        assert config.workload.models == ("mobilebert",)
        assert config.workload.rps == 500.0
        assert config.workload.seqlen_dist == "uniform"
        assert config.fleet.n_chips == 2
        assert config.observe.metrics_window_ms == 2.0
        assert config.decode == DecodeConfig(mean_tokens=4)


class TestCliTranslation:
    """serve_config_from_args is pure: args in, ServingConfig out."""

    def _config(self, *argv):
        args = build_parser().parse_args(["serve", *argv])
        return serve_config_from_args(args)

    def test_defaults(self):
        config = self._config()
        assert config.workload.models == ("resnet18",)
        assert config.fleet.n_chips == 4
        assert config.fleet.placement == "replicated"
        assert config.decode is None
        config.validate()

    def test_decode_flags_build_a_decode_config(self):
        config = self._config(
            "--model", "mobilebert",
            "--decode-dist", "lognormal",
            "--decode-mean", "64",
            "--decode-max", "256",
        )
        assert config.decode == DecodeConfig(
            dist="lognormal", mean_tokens=64, max_tokens=256
        )
        config.validate()

    def test_prefill_decode_placement_requires_decode_dist(self):
        args = build_parser().parse_args(
            ["serve", "--fleet", "yoco:4,isaac:4",
             "--placement", "prefill-decode"]
        )
        with pytest.raises(SystemExit, match="pass --decode-dist as well"):
            serve_config_from_args(args)

    def test_decode_rejects_closed_loop(self):
        args = build_parser().parse_args(
            ["serve", "--model", "mobilebert",
             "--decode-dist", "fixed", "--clients", "4"]
        )
        with pytest.raises(SystemExit, match="cannot combine with --clients"):
            serve_config_from_args(args)

    def test_fleet_leaves_n_chips_unset(self):
        config = self._config("--fleet", "yoco:2,isaac:2")
        assert config.fleet.n_chips is None
        assert config.fleet.fleet is not None
        config.validate()

    def test_thermal_tau_forwarded_only_with_a_constraint(self):
        alone = self._config("--thermal-tau", "0.5")
        assert alone.fleet.thermal_tau_s is None
        capped = self._config("--thermal-tau", "0.5", "--power-cap", "40")
        assert capped.fleet.thermal_tau_s == 0.5
        assert capped.fleet.power_cap_w == 40.0

    def test_prefill_decode_cli_round_trip(self):
        config = self._config(
            "--model", "mobilebert",
            "--fleet", "yoco:4,isaac:4",
            "--placement", "prefill-decode",
            "--decode-dist", "uniform",
        )
        assert config.fleet.placement == "prefill-decode"
        assert config.decode.dist == "uniform"
        config.validate()
