"""The ``ServingConfig`` API: one door, one rule table.

Two contracts:

* **Rule table** — every banned composition in
  :data:`repro.serve.config.COMPOSITION_RULES` raises its canonical
  message, asserted *exactly* (``re.escape``) against the importable
  ``MSG_*`` constants, through ``ServingConfig.validate()``.
* **Engine door** — constructing or running a :class:`ServingEngine`
  directly with the same bad composition raises the *identical* wording,
  because the constructor and ``run()`` evaluate the same table over the
  facts they know (:func:`repro.serve.config.check_composition`).

Plus unit tests of the pure CLI translation
:func:`repro.cli.serve_config_from_args` (args in, ``ServingConfig``
out, no simulation started).
"""

import dataclasses
import re

import pytest

from repro.cli import MSG_FLEET_WITH_CHIPS, build_parser, serve_config_from_args
from repro.models.zoo import get_workload
from repro.serve import (
    MODES,
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
    parse_fleet,
    parse_tenants,
    sample_decode_lens,
    simulate_serving,
)
from repro.serve.clients import ClientPopulation
from repro.serve.traces import poisson_trace
from repro.serve.config import (
    COMPOSITION_RULES,
    MSG_CLIENTS_MIN,
    MSG_DECODE_CLIENTS,
    MSG_DECODE_ELASTIC,
    MSG_DECODE_TENANTS,
    MSG_NEED_MODELS,
    MSG_PD_NEEDS_DECODE,
    MSG_PD_NEEDS_GROUPS,
    MSG_PREEMPT_ELASTIC,
    MSG_PREEMPT_POWER,
    MSG_RETRY_OPEN_LOOP,
    MSG_SCHEDULER_NEEDS_TENANTS,
    MSG_TENANTS_CLIENTS,
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
            fleet=FleetConfig(power=PowerConfig(power_cap_w=50.0)),
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
            fleet=FleetConfig(
                fleet="yoco:2,isaac:2", placement="prefill-decode"
            )
        ),
        MSG_PD_NEEDS_DECODE,
        id="pd-needs-decode",
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

    def test_decode_stream_validates_and_equals_unstreamed(self):
        # A streamed decode run reads the same served record as an
        # unstreamed one, TTFT/ITL included.
        def run(stream):
            return simulate_serving(
                _cfg(
                    workload=WorkloadConfig(
                        models=("mobilebert",), rps=2000.0, duration_s=0.02
                    ),
                    fleet=FleetConfig(fleet="yoco:2"),
                    observe=ObserveConfig(stream_metrics=stream),
                    decode=DecodeConfig(),
                ).validate()
            )

        report, result = run(None)
        streamed_report, streamed = run(StreamingMetrics(progress_every=10))
        assert report.has_decode and result.n_requests > 0
        assert streamed == result
        assert dataclasses.asdict(streamed_report) == dataclasses.asdict(report)

    def test_tenant_models_must_be_served(self):
        config = _cfg(
            workload=WorkloadConfig(models=("resnet18",), tenants=TENANTS)
        )
        with pytest.raises(ValueError, match="serves \\['resnet18'\\]"):
            config.validate()

    def test_every_row_is_exercised(self):
        # Each row emits one message shape, so one distinct message per
        # row means the parametrization trips every row of the table.
        messages = {m.values[1] for m in _VIOLATIONS}
        assert len(messages) == len(_VIOLATIONS) == len(COMPOSITION_RULES)

    def test_single_group_prefill_decode_raised_by_the_cluster(self):
        # Only the cluster knows the resolved fleet, so this one rule
        # raises there, still with its one canonical message.
        config = _cfg(
            fleet=FleetConfig(fleet="yoco:4", placement="prefill-decode"),
            decode=DecodeConfig(),
        )
        with pytest.raises(
            ValueError, match=f"^{re.escape(MSG_PD_NEEDS_GROUPS)}$"
        ):
            simulate_serving(config=config)

    def test_bare_model_string_is_rejected(self):
        # A str is a Sequence[str] of characters: models="vit" used to
        # become ('v', 'i', 't') and fail later on "unknown model 'v'".
        with pytest.raises(ValueError, match=re.escape("models=('vit',)")):
            WorkloadConfig(models="vit")

    def test_tenancy_config_is_rejected(self):
        # A TenancyConfig carries its own scheduler knobs, which used to
        # replace PolicyConfig's without a word.
        with pytest.raises(
            ValueError, match="grammar string or a sequence of Tenant"
        ):
            WorkloadConfig(tenants=TenancyConfig(parse_tenants(TENANTS)))

    @pytest.mark.parametrize("scheduler", ["fifo", "weighted-fair"])
    def test_policy_scheduler_is_the_one_that_runs(self, scheduler):
        config = _cfg(
            workload=WorkloadConfig(
                models=("mobilebert",), duration_s=0.01,
                tenants=parse_tenants(TENANTS),
            ),
            fleet=FleetConfig(fleet="yoco:1"),
            policy=PolicyConfig(scheduler=scheduler),
        )
        _, result = simulate_serving(config)
        assert result.scheduler == scheduler


class TestEngineDoor:
    """Direct ServingEngine construction raises the identical wording."""

    @pytest.fixture(scope="class")
    def cluster(self):
        return Cluster([get_workload("mobilebert")], fleet="yoco:2")

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

    def test_preempt_with_elastic(self, cluster):
        tenancy = TenancyConfig(parse_tenants(TENANTS), preemption=True)
        with pytest.raises(
            ValueError, match=f"^{re.escape(MSG_PREEMPT_ELASTIC)}$"
        ):
            ServingEngine(
                cluster, tenancy=tenancy, elastic=parse_autoscale("1:2")
            )

    def test_decode_with_clients_at_run(self, cluster):
        engine = ServingEngine(cluster, decode=DecodeConfig())
        clients = ClientPopulation(models=("mobilebert",), n_clients=2)
        with pytest.raises(
            ValueError, match=f"^{re.escape(MSG_DECODE_CLIENTS)}$"
        ):
            engine.run(clients=clients)

    def test_decode_with_stream_at_run(self, cluster):
        trace = poisson_trace("mobilebert", rps=2000.0, duration_s=0.02)
        trace = trace.replace(
            decode_tokens=sample_decode_lens(DecodeConfig(), len(trace))
        )
        plain = ServingEngine(cluster, decode=DecodeConfig()).run(trace)
        stream = StreamingMetrics()
        streamed = ServingEngine(cluster, decode=DecodeConfig()).run(
            trace, stream=stream
        )
        assert plain.has_decode and streamed == plain
        assert stream.n_served == plain.n_requests

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
                fleet="yoco:4",
                placement="prefill-decode",
            )


class TestCliTranslation:
    """serve_config_from_args is pure: args in, ServingConfig out."""

    def _config(self, *argv):
        args = build_parser().parse_args(["serve", *argv])
        return serve_config_from_args(args)

    def test_defaults(self):
        config = self._config()
        assert config.workload.models == ("resnet18",)
        assert config.fleet.fleet == parse_fleet("yoco:4")
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
        config = self._config(
            "--fleet", "yoco:4,isaac:4", "--placement", "prefill-decode"
        )
        with pytest.raises(
            ValueError, match=f"^{re.escape(MSG_PD_NEEDS_DECODE)}$"
        ):
            config.validate()

    def test_decode_rejects_closed_loop(self):
        config = self._config(
            "--model", "mobilebert", "--decode-dist", "fixed", "--clients", "4"
        )
        with pytest.raises(
            ValueError, match=f"^{re.escape(MSG_DECODE_CLIENTS)}$"
        ):
            config.validate()

    def test_fleet_flag_names_the_fleet(self):
        config = self._config("--fleet", "yoco:2,isaac:2")
        assert config.fleet.fleet == parse_fleet("yoco:2,isaac:2")
        config.validate()

    @pytest.mark.parametrize("n_chips", [1, 4])
    @pytest.mark.parametrize("mode", MODES)
    def test_chips_and_mode_are_the_yoco_fleet(self, n_chips, mode):
        """--chips N --mode M is the CLI's spelling of --fleet yoco:N:M."""
        chips = self._config("--chips", str(n_chips), "--mode", mode)
        fleet = self._config("--fleet", f"yoco:{n_chips}:{mode}")
        assert chips == fleet
        if mode == "batched":
            assert self._config("--chips", str(n_chips)) == self._config(
                "--fleet", f"yoco:{n_chips}"
            )

    @pytest.mark.parametrize(
        "extra", [("--chips", "2"), ("--mode", "pipelined")]
    )
    def test_chips_or_mode_with_fleet_exits_with_one_message(self, extra):
        with pytest.raises(SystemExit) as exc:
            self._config("--fleet", "yoco:2", *extra)
        assert str(exc.value) == MSG_FLEET_WITH_CHIPS

    def test_thermal_tau_forwarded_only_with_a_constraint(self):
        alone = self._config("--thermal-tau", "0.5")
        assert alone.fleet.power is None
        capped = self._config("--thermal-tau", "0.5", "--power-cap", "40")
        assert capped.fleet.power == PowerConfig(
            power_cap_w=40.0, thermal_tau_s=0.5
        )
        limited = self._config("--t-max", "60")
        assert limited.fleet.power == PowerConfig(t_max_c=60.0)

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
