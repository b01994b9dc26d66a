"""CLI: every artifact subcommand renders its paper counterpart."""

import pytest

from repro.cli import build_parser, main
from repro.serve.config import (
    MSG_CLIENTS_MIN,
    MSG_DECODE_CLIENTS,
    MSG_DECODE_ELASTIC,
    MSG_DECODE_TENANTS,
    MSG_PD_NEEDS_DECODE,
    MSG_PREEMPT_ELASTIC,
    MSG_PREEMPT_POWER,
    MSG_RETRY_OPEN_LOOP,
    MSG_SCHEDULER_NEEDS_TENANTS,
    MSG_TENANTS_CLIENTS,
)


class TestParser:
    def test_known_artifacts(self):
        parser = build_parser()
        args = parser.parse_args(["table2"])
        assert args.artifact == "table2"
        assert not args.quick

    def test_quick_and_seed_flags(self):
        args = build_parser().parse_args(["fig6d", "--quick", "--seed", "7"])
        assert args.quick and args.seed == 7

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_serve_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--model", "resnet18", "--model", "vit",
                "--chips", "8", "--rps", "500", "--trace", "bursty",
                "--mode", "pipelined", "--placement", "partitioned",
            ]
        )
        assert args.artifact == "serve"
        assert args.model == ["resnet18", "vit"]
        assert args.chips == 8 and args.rps == 500.0
        assert args.trace == "bursty" and args.mode == "pipelined"
        assert args.placement == "partitioned"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.model is None
        # --chips parses to None so an explicit value is distinguishable
        # from the default (which _serve applies only without --fleet).
        assert args.chips is None and args.rps == 2000.0
        assert args.max_batch == 8 and args.slo_ms is None
        assert args.fleet is None and args.routing == "fastest"

    def test_bad_trace_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--trace", "sawtooth"])

    def test_seqlen_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--model", "gpt_large", "--seqlen-dist", "lognormal",
                "--seqlen-mean", "768", "--seqlen-buckets", "256,512,1024",
            ]
        )
        assert args.seqlen_dist == "lognormal"
        assert args.seqlen_mean == 768
        assert args.seqlen_buckets == "256,512,1024"

    def test_seqlen_defaults_off(self):
        args = build_parser().parse_args(["serve"])
        assert args.seqlen_dist is None
        assert args.seqlen_mean is None
        assert args.seqlen_buckets is None

    def test_bad_seqlen_dist_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--seqlen-dist", "zipf"])

    def test_bad_seqlen_buckets_rejected(self):
        for bad in ("banana", ",", "512,256", "0,128", "-256"):
            with pytest.raises(SystemExit):
                main(["serve", "--model", "gpt_large", "--seqlen-dist",
                      "fixed", "--seqlen-buckets", bad])


class TestFastArtifacts:
    @pytest.mark.parametrize(
        "artifact,token",
        [
            ("table1", "Hybrid"),
            ("table2", "123.8"),
            ("fig1c", "This work"),
            ("fig7", "ranges"),
            ("fig9", "98.4"),
            ("fig10", "geomean"),
        ],
    )
    def test_renders_expected_content(self, capsys, artifact, token):
        assert main([artifact]) == 0
        out = capsys.readouterr().out
        assert token in out

    def test_fig8_renders_ten_models(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        for model in ("alexnet", "vgg16", "llama3_7b", "gpt_large"):
            assert model in out

    def test_fig6a_renders_linearity(self, capsys):
        assert main(["fig6a"]) == 0
        assert "INL" in capsys.readouterr().out

    def test_fig6d_quick(self, capsys):
        assert main(["fig6d", "--quick"]) == 0
        assert "Monte-Carlo" in capsys.readouterr().out


class TestServeCommand:
    def test_acceptance_scenario_renders(self, capsys):
        argv = ["serve", "--model", "resnet18", "--chips", "4",
                "--rps", "2000", "--seed", "0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for token in ("Serving simulation", "4 x yoco", "p99 ms", "goodput",
                      "energy/request", "chip utilization", "resnet18"):
            assert token in out

    def test_acceptance_scenario_deterministic(self, capsys):
        argv = ["serve", "--model", "resnet18", "--chips", "4",
                "--rps", "2000", "--seed", "0"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_progress_streams_and_matches_retained_report(self, capsys):
        """--progress switches to streaming metrics: a rolling p99 lands
        on stderr and the rendered report is identical to retained mode
        (percentiles are bit-identical by the streaming contract)."""
        argv = ["serve", "--model", "resnet18", "--chips", "4",
                "--rps", "2000", "--seed", "0"]
        assert main(argv) == 0
        retained = capsys.readouterr().out
        assert main(argv + ["--progress", "50"]) == 0
        captured = capsys.readouterr()
        assert captured.out == retained
        assert "rolling p99" in captured.err

    def test_progress_zero_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--progress", "0"])

    def test_defaults_match_explicit_acceptance_flags(self, capsys):
        assert main(["serve"]) == 0
        default = capsys.readouterr().out
        assert main(["serve", "--model", "resnet18", "--chips", "4",
                     "--rps", "2000", "--seed", "0"]) == 0
        assert capsys.readouterr().out == default

    def test_seqlen_run_reports_token_metrics(self, capsys):
        """The PR acceptance scenario: a seqlen-varying LLM run reports
        tokens/s, per-token energy and padding overhead."""
        argv = ["serve", "--model", "gpt_large", "--chips", "2",
                "--rps", "40", "--seed", "0", "--seqlen-dist", "lognormal"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for token in ("sequence lengths  : lognormal", "token goodput",
                      "energy/token", "padding overhead", "tok/s", "pad%"):
            assert token in out

    def test_no_seqlen_dist_reproduces_legacy_report(self, capsys):
        """Without --seqlen-dist the report is byte-identical to the
        pre-seqlen output: no token lines, no token columns."""
        argv = ["serve", "--model", "gpt_large", "--chips", "2",
                "--rps", "40", "--seed", "0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "token goodput" not in out
        assert "sequence lengths" not in out
        assert "pad%" not in out


class TestServeDecode:
    def test_decode_run_reports_ttft_and_itl(self, capsys):
        argv = ["serve", "--model", "mobilebert", "--chips", "2",
                "--rps", "2000", "--duration", "0.02", "--seed", "0",
                "--decode-dist", "lognormal"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for token in ("decode            : lognormal (mean 32 tokens, "
                      "unified serving)", "tok/s generated", "KV overflow",
                      "ttft p50", "ttft p99", "itl p99", "dec tok",
                      "kv_overflow"):
            assert token in out

    def test_prefill_decode_fleet_run_renders(self, capsys):
        argv = ["serve", "--model", "mobilebert",
                "--fleet", "yoco:2,isaac:2",
                "--placement", "prefill-decode",
                "--decode-dist", "uniform", "--decode-mean", "16",
                "--rps", "2000", "--duration", "0.02", "--seed", "0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "prefill-decode serving" in out
        assert "mean 16 tokens" in out
        assert "iterations" in out

    def test_no_decode_dist_reproduces_legacy_report(self, capsys):
        """Without --decode-dist the report is byte-identical to the
        pre-decode output: no decode line, no TTFT/ITL columns."""
        argv = ["serve", "--model", "mobilebert", "--chips", "2",
                "--rps", "2000", "--seed", "0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "decode " not in out
        assert "ttft" not in out
        assert "kv_overflow" not in out

    def test_prefill_decode_needs_decode_dist(self):
        with pytest.raises(SystemExit):
            main(["serve", "--fleet", "yoco:2,isaac:2",
                  "--placement", "prefill-decode"])

    def test_decode_max_caps_the_flag_grammar(self, capsys):
        argv = ["serve", "--model", "mobilebert", "--chips", "2",
                "--rps", "2000", "--duration", "0.02", "--seed", "0",
                "--decode-dist", "longtail", "--decode-max", "64"]
        assert main(argv) == 0
        assert "cap 64" in capsys.readouterr().out

    def test_bad_decode_dist_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--decode-dist", "zipf"])


#: One case per composition rule the CLI reaches: the flags trip the rule
#: table, and its canonical message reaches the user as "serve: <MSG>".
_TENANT = "a:interactive:poisson@100"
_COMPOSITION_ERRORS = [
    pytest.param(
        ["--tenants", _TENANT, "--clients", "4"],
        MSG_TENANTS_CLIENTS,
        id="tenants-clients",
    ),
    pytest.param(
        ["--scheduler", "weighted-fair"],
        MSG_SCHEDULER_NEEDS_TENANTS,
        id="scheduler-without-tenants",
    ),
    pytest.param(
        ["--preempt"],
        MSG_SCHEDULER_NEEDS_TENANTS,
        id="preempt-without-tenants",
    ),
    pytest.param(
        ["--tenants", _TENANT, "--preempt", "--power-cap", "1"],
        MSG_PREEMPT_POWER,
        id="preempt-power",
    ),
    pytest.param(
        ["--retries", "2"], MSG_RETRY_OPEN_LOOP, id="retries-open-loop"
    ),
    pytest.param(["--clients", "0"], MSG_CLIENTS_MIN, id="clients-min"),
    pytest.param(
        ["--tenants", _TENANT, "--preempt", "--autoscale", "1:4"],
        MSG_PREEMPT_ELASTIC,
        id="autoscale-preempt",
    ),
    pytest.param(
        ["--decode-dist", "fixed", "--clients", "4"],
        MSG_DECODE_CLIENTS,
        id="decode-clients",
    ),
    pytest.param(
        ["--decode-dist", "fixed", "--tenants", _TENANT],
        MSG_DECODE_TENANTS,
        id="decode-tenants",
    ),
    pytest.param(
        ["--decode-dist", "fixed", "--autoscale", "1:4"],
        MSG_DECODE_ELASTIC,
        id="decode-autoscale",
    ),
    pytest.param(
        ["--fleet", "yoco:2,isaac:2", "--placement", "prefill-decode"],
        MSG_PD_NEEDS_DECODE,
        id="prefill-decode-without-decode",
    ),
]


class TestServeCompositionErrors:
    @pytest.mark.parametrize("flags,message", _COMPOSITION_ERRORS)
    def test_rule_table_message_reaches_the_user(self, flags, message):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--model", "mobilebert", *flags])
        assert excinfo.value.code == "serve: " + message

    @pytest.mark.parametrize(
        "flags", [["--scheduler", "weighted-fair"], ["--preempt"]]
    )
    def test_regions_scheduler_knob_prints_the_rule_message(self, flags):
        # The regions path and the single-region path refuse a scheduler
        # knob without tenants with one text, from the rule table.
        exits = []
        for regions in ([], ["--regions", "2"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["serve", "--model", "mobilebert", *regions, *flags])
            exits.append(excinfo.value.code)
        assert exits == ["serve: " + MSG_SCHEDULER_NEEDS_TENANTS] * 2

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--routing", "round-robin"),
            ("--mode", "pipelined"),
            ("--trace", "bursty"),
            ("--placement", "partitioned"),
            ("--seqlen-buckets", "64,128"),
        ],
    )
    def test_regions_refuse_a_flag_they_would_ignore(self, flag, value):
        # Regions build their own fleets and diurnal traces; a knob they
        # never read is refused instead of silently dropped.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--model", "resnet18", "--chips", "2",
                  "--rps", "20000", "--duration", "0.02", "--regions", "2",
                  flag, value])
        assert excinfo.value.code == (
            "--regions runs are homogeneous open-loop diurnal studies; "
            f"they cannot combine with {flag}"
        )

    def test_decode_progress_prints_the_unstreamed_report(self, capsys):
        # A streamed decode run prints the unstreamed report byte for byte.
        flags = ["serve", "--model", "mobilebert", "--chips", "4",
                 "--rps", "4000", "--duration", "0.05", "--seed", "0",
                 "--decode-dist", "lognormal"]
        main(flags)
        plain = capsys.readouterr()
        main(flags + ["--progress", "50"])
        streamed = capsys.readouterr()
        assert streamed.out == plain.out
        assert "[stream] served=" in streamed.err
