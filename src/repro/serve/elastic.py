"""Elastic fleets: chips join and leave the cluster mid-run.

An :class:`ElasticConfig` hands the serving engine an autoscaling
contract — a chip-count band ``[min_chips, max_chips]``, a controller
evaluation period, and a provisioning delay — and the engine grows or
shrinks the *active prefix* of the fleet while the simulation runs:

* **Scale-up** is requested when the controller's capacity model says
  the observed arrival rate (or the closed-loop saturation bound of
  :func:`repro.serve.clients.estimated_saturation_clients`) needs more
  chips at the configured utilization headroom, or when the backlog per
  active chip crosses a threshold.  Requested chips come online after
  ``provision_delay_ms`` — capacity is never free or instant.
* **Scale-down** drains the highest-id active chips: a draining chip
  stops accepting new batches immediately but **finishes its in-flight
  batch** before parking, so no request is ever dropped by a scaling
  action.  Drains respect a cooldown so a noisy rate estimate cannot
  flap the fleet.
* Under a power envelope (:mod:`repro.serve.power`), a group drawing
  over its cap **vetoes scale-up**: adding parallel batches to a
  throttled group raises draw and deepens the throttle instead of
  adding goodput.

Scaling actions land as ordinary engine events (kind ``_SCALE``) in the
deterministic event heap, so two runs of the same (trace, cluster,
policy, config) produce bit-identical results.  A *static* config
(``min_chips == max_chips ==`` the fleet size) schedules no controller
events at all and is a provable no-op: the run replays the inelastic
goldens byte for byte (``tests/test_elastic_differential.py``).

The run's scaling history comes back as an :class:`ElasticTrace` on
:attr:`repro.serve.engine.ServingResult.elastic` — every action, the
serving-chip timeline, and the chip-seconds integral that prices an
elastic fleet against static peak provisioning
(``benchmarks/bench_elastic.py``).
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.cluster import Cluster

__all__ = [
    "ElasticConfig",
    "ElasticController",
    "ElasticTrace",
    "ScalingAction",
    "parse_autoscale",
]


@dataclasses.dataclass(frozen=True)
class ElasticConfig:
    """Autoscaling contract for one :meth:`ServingEngine.run`.

    ``min_chips`` / ``max_chips`` bound the active fleet (``max_chips``
    of ``None`` means the whole cluster); ``initial_chips`` is the size
    at t=0 (default: ``min_chips`` — a cold fleet that must earn its
    capacity).  The controller re-evaluates every ``interval_ms`` of
    simulated time, provisions for ``rho_target`` utilization headroom,
    and newly requested chips arrive ``provision_delay_ms`` later.  A
    backlog deeper than ``backlog_per_chip`` times the provisioned
    count forces an extra ``step_chips`` up regardless of the rate
    estimate, and after any drain the controller waits
    ``cooldown_intervals`` evaluations before draining again.
    """

    min_chips: int = 1
    max_chips: Optional[int] = None
    initial_chips: Optional[int] = None
    interval_ms: float = 1.0
    provision_delay_ms: float = 5.0
    rho_target: float = 0.7
    backlog_per_chip: float = 4.0
    step_chips: int = 1
    cooldown_intervals: int = 2

    def __post_init__(self) -> None:
        if self.min_chips < 1:
            raise ValueError("min_chips must be >= 1")
        if self.max_chips is not None and self.max_chips < self.min_chips:
            raise ValueError("max_chips must be >= min_chips")
        if self.initial_chips is not None:
            hi = self.max_chips if self.max_chips is not None else math.inf
            if not self.min_chips <= self.initial_chips <= hi:
                raise ValueError(
                    "initial_chips must lie in [min_chips, max_chips]"
                )
        if self.interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if self.provision_delay_ms < 0:
            raise ValueError("provision_delay_ms must be non-negative")
        if not 0.0 < self.rho_target <= 1.0:
            raise ValueError("rho_target must be in (0, 1]")
        if self.backlog_per_chip <= 0:
            raise ValueError("backlog_per_chip must be positive")
        if self.step_chips < 1:
            raise ValueError("step_chips must be >= 1")
        if self.cooldown_intervals < 0:
            raise ValueError("cooldown_intervals must be >= 0")

    def resolve(self, n_chips: int) -> Tuple[int, int, int]:
        """Clamp the band to a concrete fleet: ``(lo, hi, initial)``."""
        hi = self.max_chips if self.max_chips is not None else n_chips
        if hi > n_chips:
            raise ValueError(
                f"max_chips {hi} exceeds the fleet's {n_chips} chips"
            )
        lo = self.min_chips
        if lo > hi:
            raise ValueError(
                f"min_chips {lo} exceeds the resolved max of {hi}"
            )
        init = self.initial_chips if self.initial_chips is not None else lo
        return lo, hi, init


@dataclasses.dataclass(frozen=True)
class ScalingAction:
    """One controller decision that changed (or will change) the fleet.

    ``kind`` is ``"up"`` (chips requested; they activate one
    provisioning delay later) or ``"drain"`` (chips stop accepting work
    now and park once their in-flight batch finishes).  ``n_target`` is
    the provisioned count — active plus in-flight provisioning — after
    the action.
    """

    t_ns: float
    kind: str
    delta: int  # signed chip count (+up / -drain)
    n_target: int
    reason: str  # "rate" | "clients" | "backlog" | "drain"


@dataclasses.dataclass(frozen=True)
class ElasticTrace:
    """Scaling history of one elastic run.

    ``timeline`` tracks the **serving** chip count — chips accepting
    work plus drained chips still finishing their last batch (they burn
    chip-time until they park) — as ``(t_ns, count)`` change points
    starting at t=0.  ``chip_seconds`` integrates it over the run, the
    cost an elastic fleet is judged by against
    :attr:`static_chip_seconds` (the whole fleet held for the whole
    horizon — static peak provisioning).
    """

    n_fleet: int
    min_chips: int
    max_chips: int
    actions: Tuple[ScalingAction, ...]
    timeline: Tuple[Tuple[float, int], ...]
    horizon_ns: float

    @property
    def n_scale_ups(self) -> int:
        return sum(1 for a in self.actions if a.delta > 0)

    @property
    def n_drains(self) -> int:
        return sum(1 for a in self.actions if a.delta < 0)

    @property
    def min_serving(self) -> int:
        return min(n for _, n in self.timeline)

    @property
    def max_serving(self) -> int:
        return max(n for _, n in self.timeline)

    @property
    def end_ns(self) -> float:
        """Integration horizon: the makespan, or the last change point
        if a provisioning event landed after the final completion."""
        return max(self.horizon_ns, self.timeline[-1][0])

    @property
    def chip_seconds(self) -> float:
        """Integral of the serving-chip count over the run."""
        total = 0.0
        end = self.end_ns
        for (t0, n), (t1, _) in zip(self.timeline, self.timeline[1:]):
            total += n * max(0.0, t1 - t0)
        t_last, n_last = self.timeline[-1]
        total += n_last * max(0.0, end - t_last)
        return total * 1e-9

    @property
    def static_chip_seconds(self) -> float:
        """Cost of holding the whole fleet for the whole horizon."""
        return self.n_fleet * self.end_ns * 1e-9

    @property
    def chip_seconds_saved(self) -> float:
        """Fraction of static peak-provisioning cost the run avoided."""
        static = self.static_chip_seconds
        if static <= 0.0:
            return 0.0
        return 1.0 - self.chip_seconds / static


class ElasticController:
    """Pure decision logic: observations in, a signed chip delta out.

    The engine owns all state mutation (activation, draining, the event
    heap); the controller only turns the rolling observations into a
    target.  The capacity model is the first-order bound the rest of
    the serve stack already uses: one chip sustains
    ``1 / reference_latency`` requests per second (the batch-1 floor on
    the best host, conservative — batching amortization only helps), so
    the open-loop demand is ``offered_rps / (per_chip_rps * rho)``.
    Closed-loop runs bound capacity by the saturation knee instead:
    inverting :func:`~repro.serve.clients.estimated_saturation_clients`
    (``clients = hosts * (1 + think/service)``) gives the hosts needed
    to keep ``n_clients`` sessions below the knee.
    """

    def __init__(
        self,
        config: ElasticConfig,
        cluster: "Cluster",
        lo: int,
        hi: int,
        n_clients: int = 0,
        think_time_ms: float = 0.0,
    ) -> None:
        self.config = config
        self._lo = lo
        self._hi = hi
        service_ns = max(
            cluster.reference_latency_ns(m) for m in cluster.models
        )
        self._per_chip_rps = 1e9 / service_ns
        self._clients_per_chip = 1.0 + think_time_ms * 1e6 / service_ns
        self._n_clients = n_clients
        self._cooldown = 0

    def decide(
        self,
        arrivals: int,
        interval_s: float,
        backlog: int,
        n_provisioned: int,
        over_cap: bool = False,
    ) -> Tuple[int, str]:
        """One evaluation: ``(signed chip delta, reason)``.

        ``n_provisioned`` counts active chips plus scale-ups already in
        flight (capacity en route must not be requested twice);
        ``over_cap`` is the power governor's veto signal.
        """
        cfg = self.config
        need = (arrivals / interval_s) / (self._per_chip_rps * cfg.rho_target)
        reason = "rate"
        if self._n_clients:
            knee = self._n_clients / (
                self._clients_per_chip * cfg.rho_target
            )
            if knee > need:
                need = knee
                reason = "clients"
        target = max(self._lo, int(math.ceil(need - 1e-9)))
        if backlog > cfg.backlog_per_chip * max(1, n_provisioned):
            kicked = n_provisioned + cfg.step_chips
            if kicked > target:
                target = kicked
                reason = "backlog"
        target = min(target, self._hi)
        if target > n_provisioned:
            if over_cap:
                # The group already draws over its cap: more parallel
                # batches raise draw and deepen the DVFS throttle
                # instead of adding goodput.
                self._tick_cooldown()
                return 0, "power-veto"
            # Scale-ups also arm the cooldown, so a burst-then-dip
            # cannot immediately drain the chips it just paid the
            # provisioning delay for.
            self._cooldown = cfg.cooldown_intervals
            return target - n_provisioned, reason
        if target < n_provisioned:
            if self._cooldown > 0:
                self._cooldown -= 1
                return 0, "cooldown"
            self._cooldown = cfg.cooldown_intervals
            return target - n_provisioned, "drain"
        self._tick_cooldown()
        return 0, "steady"

    def _tick_cooldown(self) -> None:
        if self._cooldown > 0:
            self._cooldown -= 1


def parse_autoscale(text: str) -> ElasticConfig:
    """Parse the CLI ``--autoscale`` spec into an :class:`ElasticConfig`.

    ``"MAX"`` scales between 1 and MAX chips, ``"MIN:MAX"`` between MIN
    and MAX, and ``"MIN:MAX:INITIAL"`` additionally sets the t=0 size.
    """
    parts = text.split(":")
    try:
        numbers = [int(p) for p in parts]
    except ValueError:
        raise ValueError(
            f"--autoscale spec must be MAX, MIN:MAX or MIN:MAX:INITIAL "
            f"with integer fields, got {text!r}"
        ) from None
    if len(numbers) == 1:
        return ElasticConfig(min_chips=1, max_chips=numbers[0])
    if len(numbers) == 2:
        return ElasticConfig(min_chips=numbers[0], max_chips=numbers[1])
    if len(numbers) == 3:
        return ElasticConfig(
            min_chips=numbers[0],
            max_chips=numbers[1],
            initial_chips=numbers[2],
        )
    raise ValueError(
        f"--autoscale spec has too many fields: {text!r} "
        "(expected MAX, MIN:MAX or MIN:MAX:INITIAL)"
    )
