"""The four benchmark workloads: inputs from a seed, one run, its checks.

Each workload builds its inputs from the seed alone and hands the program
only those inputs (a ``ServingConfig``, or the Fig. 6 runner arguments).
Simulated statistics are deterministic, so they are checked here as
correctness outputs and never reported as performance metrics.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Tuple

#: Largest makespan / horizon a serving workload may show.  Above it the
#: run is timing an overload drain instead of steady sub-capacity serving.
DRAIN_BOUND = 1.05

#: Fig. 6(d) 3-sigma MAC offset the paper reports, and the band around it
#: a seed may land in.
FIG6D_THREE_SIGMA_V = 2.25e-3
FIG6D_TOLERANCE_V = 0.35e-3


@dataclasses.dataclass
class Outcome:
    """What one run of a workload produced."""

    output: object  # compared between traced and untraced runs
    items: int  # work units the rate metric counts
    core_s: float  # host seconds of the call the rate metric times
    rates: Dict[str, float]  # the workload's rates under their own names


class Workload:
    """One named workload; subclasses fill in the inputs and checks."""

    name = ""
    why = ""
    models: Tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def params(self) -> Dict[str, object]:
        raise NotImplementedError

    def setup(self) -> None:
        """Import the program and build the zoo workloads (timed as set-up)."""
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Derive the expected outputs from the seed (not timed)."""

    def run(self) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> List[str]:
        """Failed correctness checks of one run (empty when it is right)."""
        raise NotImplementedError

    @staticmethod
    def same(a: object, b: object) -> bool:
        return a == b


# -- serving workloads -----------------------------------------------------------------
class ServingWorkload(Workload):
    duration_s: float  # the trace horizon, set by each workload

    def setup(self) -> None:
        import repro.serve  # noqa: F401  (the import is what set-up times)
        from repro.models.zoo import get_workload

        self.zoo = {m: get_workload(m) for m in self.models}

    def config(self):
        raise NotImplementedError

    def offered(self) -> int:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        self.expected_offered = self.offered()

    def run(self) -> Outcome:
        from repro.serve import format_serving, simulate_serving

        config = self.config()
        start = time.perf_counter()
        report, result = simulate_serving(config=config)
        core_s = time.perf_counter() - start
        text = format_serving(report)
        rates = {"sim_req_per_s": result.n_requests / core_s}
        if result.n_decode_tokens:
            rates["decode_tok_per_s"] = result.n_decode_tokens / core_s
        return Outcome((result, text), self.items(result), core_s, rates)

    def items(self, result) -> int:
        return result.n_requests

    def check(self, outcome: Outcome) -> List[str]:
        result = outcome.output[0]
        failures = []
        accounted = result.n_requests + result.n_dropped
        if accounted != self.expected_offered:
            failures.append(
                f"served {result.n_requests} + dropped {result.n_dropped} "
                f"!= offered {self.expected_offered}"
            )
        drain = result.makespan_ns / (self.duration_s * 1e9)
        if drain > DRAIN_BOUND:
            failures.append(f"drain ratio {drain:.4f} > {DRAIN_BOUND}")
        return failures


class DiurnalStream(ServingWorkload):
    name = "diurnal_stream"
    why = (
        "turbo loop plus trace generation with streaming metrics; "
        "cost tables, arch simulator and summarize do almost nothing"
    )
    models = ("resnet18",)
    rps = 100_000.0
    duration_s = 0.5

    def params(self):
        return {
            "models": list(self.models), "trace_kind": "diurnal",
            "rps": self.rps, "duration_s": self.duration_s, "fleet": "yoco:8",
            "max_batch_size": 8, "window_ms": 0.2, "results": "streaming",
            "seed": self.seed,
        }

    def config(self):
        from repro.serve import StreamingMetrics
        from repro.serve.config import (
            FleetConfig, ObserveConfig, PolicyConfig, ServingConfig,
            WorkloadConfig,
        )

        return ServingConfig(
            workload=WorkloadConfig(
                models=self.models, rps=self.rps, duration_s=self.duration_s,
                trace_kind="diurnal", seed=self.seed,
            ),
            fleet=FleetConfig(fleet="yoco:8"),
            policy=PolicyConfig(max_batch_size=8, window_ms=0.2),
            observe=ObserveConfig(stream_metrics=StreamingMetrics()),
        )

    def offered(self) -> int:
        from repro.serve import make_trace

        return len(make_trace(
            "diurnal", self.models[0], self.rps, self.duration_s, seed=self.seed
        ))


class TenantMix(ServingWorkload):
    name = "tenant_mix"
    why = (
        "general engine loop with weighted-fair scheduling, preemption, "
        "slo-aware admission and per-tenant summarize on a mixed fleet"
    )
    models = ("mobilebert", "resnet18", "mobilenetv3", "vit")
    duration_s = 1.0

    def tenants(self):
        from repro.serve import Tenant

        return (
            Tenant("chat", "interactive", weight=4, rps=1000.0,
                   models=("mobilebert",), seqlen_dist="lognormal"),
            Tenant("vision", "batch", weight=2, rps=16_000.0,
                   models=("resnet18", "mobilenetv3")),
            Tenant("bulk", "best-effort", weight=1, rps=500.0,
                   models=("vit", "mobilebert"), seqlen_dist="uniform"),
        )

    def params(self):
        return {
            "models": list(self.models), "fleet": "yoco:4,isaac:4",
            "duration_s": self.duration_s, "scheduler": "weighted-fair",
            "preemption": True, "admission": "slo-aware", "results": "retained",
            "tenants": [dataclasses.asdict(t) for t in self.tenants()],
            "seed": self.seed,
        }

    def config(self):
        from repro.serve.config import (
            FleetConfig, PolicyConfig, ServingConfig, WorkloadConfig,
        )

        return ServingConfig(
            workload=WorkloadConfig(
                models=self.models, duration_s=self.duration_s,
                seed=self.seed, tenants=self.tenants(),
            ),
            fleet=FleetConfig(fleet="yoco:4,isaac:4"),
            policy=PolicyConfig(
                scheduler="weighted-fair", preemption=True,
                admission="slo-aware",
            ),
        )

    def offered(self) -> int:
        from repro.serve import TenancyConfig, tenant_traces

        trace, _ = tenant_traces(
            TenancyConfig(self.tenants(), "weighted-fair", preemption=True),
            self.duration_s, self.seed, default_models=self.models,
            native_seq_len={m: w.seq_len for m, w in self.zoo.items()},
        )
        return len(trace)


class DecodeLLM(ServingWorkload):
    name = "decode_llm"
    why = (
        "decode pricing and the decode loop dominate below capacity; "
        "trace generation is a few percent"
    )
    models = ("mobilebert",)
    rps = 6000.0
    duration_s = 0.5

    def decode(self):
        from repro.serve import DecodeConfig

        return DecodeConfig(dist="lognormal", mean_tokens=32)

    def params(self):
        return {
            "models": list(self.models), "trace_kind": "poisson",
            "rps": self.rps, "duration_s": self.duration_s, "fleet": "yoco:8",
            "decode": dataclasses.asdict(self.decode()), "results": "retained",
            "seed": self.seed,
        }

    def config(self):
        from repro.serve.config import FleetConfig, ServingConfig, WorkloadConfig

        return ServingConfig(
            workload=WorkloadConfig(
                models=self.models, rps=self.rps, duration_s=self.duration_s,
                seed=self.seed,
            ),
            fleet=FleetConfig(fleet="yoco:8"),
            decode=self.decode(),
        )

    def offered(self) -> int:
        from repro.serve import make_trace, sample_decode_lens

        # simulate_serving draws model i's arrivals on seed + i and its
        # decode lengths on the decode lane of the same seed.
        n = len(make_trace("poisson", self.models[0], self.rps,
                           self.duration_s, seed=self.seed))
        lens = sample_decode_lens(self.decode(), n, seed=self.seed)
        self.expected_tokens = sum(lens)
        return n

    def items(self, result) -> int:
        return result.n_decode_tokens

    def check(self, outcome: Outcome) -> List[str]:
        failures = super().check(outcome)
        result = outcome.output[0]
        if result.n_decode_tokens != self.expected_tokens:
            failures.append(
                f"decode tokens {result.n_decode_tokens} != sampled "
                f"{self.expected_tokens}"
            )
        return failures


# -- circuit workload ---------------------------------------------------------------------
class CircuitMC(Workload):
    name = "circuit_mc"
    why = (
        "the only workload in repro.core and repro.analog: Fig. 6(d) "
        "Monte-Carlo plus Fig. 6(b,c) and 6(e); no serving code runs"
    )
    n_samples = 2000

    def params(self):
        return {"runners": ["run_fig6d", "run_fig6bc", "run_fig6e"],
                "n_samples": self.n_samples, "seed": self.seed}

    def setup(self) -> None:
        import repro.experiments.fig6  # noqa: F401

    def run(self) -> Outcome:
        from repro.experiments.fig6 import (
            format_fig6, run_fig6bc, run_fig6d, run_fig6e,
        )

        start = time.perf_counter()
        d = run_fig6d(n_samples=self.n_samples, seed=self.seed)
        core_s = time.perf_counter() - start
        bc = run_fig6bc(seed=self.seed)
        e = run_fig6e(seed=self.seed)
        text = format_fig6(bc=bc, d=d, e=e)
        rates = {"mc_samples_per_s": d.n / core_s}
        return Outcome((d, bc, e, text), d.n, core_s, rates)

    def check(self, outcome: Outcome) -> List[str]:
        from repro import constants

        d, bc, e, _ = outcome.output
        failures = []
        if not d.three_sigma < constants.LSB_VOLT:
            failures.append(f"3 sigma {d.three_sigma:.3e} V >= 1 LSB")
        if abs(d.three_sigma - FIG6D_THREE_SIGMA_V) > FIG6D_TOLERANCE_V:
            failures.append(f"3 sigma {d.three_sigma:.3e} V far from 2.25 mV")
        if not e.end_to_end_error_percent < 0.98:
            failures.append(
                f"end-to-end error {e.end_to_end_error_percent:.3f} % >= 0.98 %"
            )
        if not bc.max_error_percent < 0.68:
            failures.append(f"MAC error {bc.max_error_percent:.3f} % >= 0.68 %")
        return failures

    @staticmethod
    def same(a, b) -> bool:
        import numpy as np

        (da, bca, ea, ta), (db, bcb, eb, tb) = a, b
        return (
            np.array_equal(da.samples, db.samples)
            and all(
                np.array_equal(getattr(bca, f.name), getattr(bcb, f.name))
                for f in dataclasses.fields(bca)
            )
            and ea == eb
            and ta == tb
        )


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    w.name: w for w in (DiurnalStream, TenantMix, DecodeLLM, CircuitMC)
}
