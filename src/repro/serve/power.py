"""Power/thermal envelope simulation with cap-aware throttling.

The serving stack's energy accounting is per-request joules; a deployment
is constrained in *watts* — how fast those joules may be spent before the
power delivery or the cooling gives out.  This module closes that gap with
a time-resolved per-chip-group power model the discrete-event engine runs
under:

* **draw** — every dispatched batch spends its (backend-derived) energy
  uniformly over its service time, so it contributes
  ``energy / service_time`` watts to its group while in flight, on top of
  a per-chip idle/leakage floor (a configured fraction of the spec's
  :attr:`~repro.arch.accelerator.AcceleratorSpec.peak_watts`);
* **thermal RC node** — each chip group integrates one discrete-time RC
  temperature node at event-loop granularity: power is piecewise constant
  between events, so the exact exponential update
  ``T' = S + (T - S) * exp(-dt / tau)`` (with steady state
  ``S = ambient + P * R``) is used segment by segment — temperatures are
  provably bounded between ambient and the hottest steady state, for any
  ``tau``;
* **throttling** — a DVFS-style :class:`ThrottlePolicy` stretches the
  service time of every batch dispatched on a group that exceeds its
  power cap or thermal limit.  A power cap additionally gets *cap-fit*
  stretching: each admitted batch is slowed just enough that the group's
  projected draw stays within its budget.  For a feasible cap (one above
  the group's idle floor) the time-averaged draw therefore stays inside
  the budget, and the instantaneous draw can overshoot only by the
  ``max_slowdown`` floor — a batch admitted into exhausted headroom
  still contributes ``base_draw / max_slowdown`` watts (DVFS cannot
  stretch forever).  Hysteresis (release fraction / release margin)
  keeps the binary throttle from flapping event to event.

With no cap and no thermal limit configured every slowdown factor is
exactly 1.0 and the governor never perturbs a single float of the
simulation — asserted byte-for-byte against the pre-power golden captures
by ``tests/test_power_differential.py``.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.energy.units import watts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serve.cluster import ChipService, Cluster

#: Relative tolerance separating "pinned at the cap" (the cap-fit
#: stretcher lands there by construction, give or take one ulp of the
#: division) from "genuinely over the cap" — reachable when the cap is
#: infeasible (below the group's idle floor) or via the max-slowdown
#: floor of batches admitted into exhausted headroom.
_CAP_EPS = 1e-9


@dataclasses.dataclass(frozen=True)
class ThrottlePolicy:
    """DVFS-style slowdown rule with hysteresis.

    Attributes
    ----------
    slowdown:
        Service-time stretch applied to every batch dispatched while the
        group is engaged (over its cap or thermal limit).  Energy is
        unchanged — the same joules spread over more time — which is what
        makes stretching reduce draw.
    max_slowdown:
        Ceiling on the total stretch (DVFS floors out eventually).  Also
        the stretch applied when a cap is infeasible (below the idle
        floor), where no finite slowdown can satisfy it.
    release_fraction:
        A power-engaged group releases only once its draw falls below
        ``release_fraction * cap`` — the hysteresis band that stops the
        throttle flapping at the cap boundary.
    release_margin_c:
        A thermally-engaged group releases only once its temperature
        falls ``release_margin_c`` below the limit.
    """

    slowdown: float = 2.0
    max_slowdown: float = 64.0
    release_fraction: float = 0.9
    release_margin_c: float = 2.0

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise ValueError("slowdown must be >= 1 (it stretches time)")
        if self.max_slowdown < self.slowdown:
            raise ValueError("max_slowdown must be >= slowdown")
        if not 0.0 < self.release_fraction <= 1.0:
            raise ValueError("release_fraction must be in (0, 1]")
        if self.release_margin_c < 0.0:
            raise ValueError("release_margin_c must be non-negative")


@dataclasses.dataclass(frozen=True)
class PowerConfig:
    """Per-chip-group power/thermal envelope parameters.

    Attributes
    ----------
    power_cap_w:
        Per-*chip* cap in watts; a group of ``n`` chips shares a pooled
        budget of ``n * power_cap_w`` (one hot chip may borrow headroom
        from its idle neighbours, the way rack-level capping works).
        ``None`` disables power capping.
    t_max_c:
        Thermal limit in deg C (``None`` disables thermal throttling).
    thermal_tau_s:
        RC time constant of each group's thermal node.  The default is
        die-scale (milliseconds), so temperature actually moves within
        the sub-second horizons the serving simulations run.
    t_ambient_c:
        Ambient (and initial) temperature.
    r_th_c_per_w:
        Thermal resistance of *one chip* in deg C per watt; the group
        node uses ``r_th / n_chips`` (n dies spread heat in parallel).
    idle_fraction:
        Idle/leakage floor of every chip as a fraction of its spec's
        :attr:`~repro.arch.accelerator.AcceleratorSpec.peak_watts` —
        burned for the whole run whether the chip serves or not, and the
        reason a cap below ``idle_fraction * peak_watts`` is infeasible.
    throttle:
        The :class:`ThrottlePolicy` applied when the envelope binds.
    """

    power_cap_w: Optional[float] = None
    t_max_c: Optional[float] = None
    thermal_tau_s: float = 5e-3
    t_ambient_c: float = 25.0
    r_th_c_per_w: float = 20.0
    idle_fraction: float = 0.02
    throttle: ThrottlePolicy = dataclasses.field(default_factory=ThrottlePolicy)

    def __post_init__(self) -> None:
        if self.power_cap_w is not None and self.power_cap_w <= 0.0:
            raise ValueError("power_cap_w must be positive (None disables)")
        if self.thermal_tau_s <= 0.0:
            raise ValueError("thermal_tau_s must be positive")
        if self.r_th_c_per_w < 0.0:
            raise ValueError("r_th_c_per_w must be non-negative")
        if not 0.0 <= self.idle_fraction <= 1.0:
            raise ValueError("idle_fraction must be in [0, 1]")
        if self.t_max_c is not None and self.t_max_c <= self.t_ambient_c:
            raise ValueError(
                f"t_max_c ({self.t_max_c}) must exceed ambient "
                f"({self.t_ambient_c}); the limit would bind before any "
                "power is drawn"
            )

    @property
    def constrained(self) -> bool:
        """Does any envelope actually bind (cap or thermal limit set)?

        Unconstrained configs still trace power and temperature, but the
        governor is provably a no-op on the simulation itself and the
        report keeps its legacy format.
        """
        return self.power_cap_w is not None or self.t_max_c is not None


class ThermalNode:
    """One discrete-time RC temperature node.

    Between events the driving power is constant, so each segment uses
    the *exact* solution of ``tau dT/dt = (ambient + P R) - T`` rather
    than a forward-Euler step — the update is unconditionally stable and
    the temperature is always between its start value and the segment's
    steady state, for any ``tau`` and any ``dt`` (the property suite
    hammers both extremes).
    """

    def __init__(
        self, tau_s: float, r_th_c_per_w: float, t_ambient_c: float
    ) -> None:
        if tau_s <= 0.0:
            raise ValueError("tau_s must be positive")
        if r_th_c_per_w < 0.0:
            raise ValueError("r_th_c_per_w must be non-negative")
        self.tau_s = tau_s
        self.r_th_c_per_w = r_th_c_per_w
        self.t_ambient_c = t_ambient_c
        self.temp_c = t_ambient_c

    def steady_c(self, power_w: float) -> float:
        """Temperature this power level settles at if held forever."""
        return self.t_ambient_c + power_w * self.r_th_c_per_w

    def step(self, power_w: float, dt_s: float) -> float:
        """Advance ``dt_s`` seconds under constant ``power_w`` draw."""
        if dt_s < 0.0:
            raise ValueError("dt_s must be non-negative")
        if dt_s == 0.0:
            return self.temp_c
        steady = self.steady_c(power_w)
        decay = math.exp(-dt_s / self.tau_s)
        self.temp_c = steady + (self.temp_c - steady) * decay
        return self.temp_c


@dataclasses.dataclass(frozen=True)
class GroupPowerTrace:
    """Power/thermal roll-up of one chip group over a run."""

    name: str
    n_chips: int
    idle_w: float  # leakage floor of the whole group, burned throughout
    cap_w: Optional[float]  # pooled group budget (None = uncapped)
    avg_w: float  # time-averaged group draw over the traced horizon
    peak_w: float  # highest piecewise-constant draw level reached
    #: Time spent above the budget: large when the cap is infeasible,
    #: small but routinely nonzero on a binding feasible cap (the
    #: max-slowdown floor of admissions into exhausted headroom).
    over_cap_ns: float
    stall_ns: float  # throttle-added service time, summed over batches
    peak_temp_c: float
    final_temp_c: float

    @property
    def feasible(self) -> bool:
        """Can the cap be met at all (budget above the idle floor)?"""
        return self.cap_w is None or self.cap_w > self.idle_w


@dataclasses.dataclass(frozen=True)
class PowerTrace:
    """Everything the governor observed across one simulation run."""

    groups: Tuple[GroupPowerTrace, ...]
    horizon_ns: float  # last instant the governor integrated up to
    constrained: bool  # was any cap/thermal limit configured?

    def group(self, name: str) -> GroupPowerTrace:
        for g in self.groups:
            if g.name == name:
                return g
        raise KeyError(f"no power trace for group {name!r}")

    @property
    def total_stall_ns(self) -> float:
        return sum(g.stall_ns for g in self.groups)


class _GroupState:
    """Mutable per-group accounting the governor integrates."""

    __slots__ = (
        "name", "n_chips", "idle_w", "cap_w", "node", "engaged", "draw_w",
        "inflight", "integral_w_ns", "peak_w", "over_cap_ns", "stall_ns",
        "peak_temp_c",
    )

    def __init__(
        self, name: str, n_chips: int, idle_w: float,
        cap_w: Optional[float], node: ThermalNode,
    ) -> None:
        self.name = name
        self.n_chips = n_chips
        self.idle_w = idle_w
        self.cap_w = cap_w
        self.node = node
        self.engaged = False
        self.draw_w = 0.0
        self.inflight: List[Tuple[float, float]] = []  # (end_ns, watts)
        self.integral_w_ns = 0.0
        self.peak_w = idle_w
        self.over_cap_ns = 0.0
        self.stall_ns = 0.0
        self.peak_temp_c = node.temp_c

    @property
    def power_w(self) -> float:
        return self.idle_w + self.draw_w


class PowerGovernor:
    """Per-run power/thermal state machine the serving engine consults.

    The engine calls :meth:`advance` at every event timestamp (power is
    piecewise constant between events, so integrating there is exact),
    :meth:`admit` for every dispatched batch (returning its effective,
    possibly stretched, service time), and :meth:`priced_latency` from the
    cost-aware routing policies so a hot group prices its batches at the
    throttled latency.  One governor serves one :meth:`ServingEngine.run`
    call — it is stateful and must not be reused across runs.
    """

    def __init__(self, cluster: "Cluster", config: PowerConfig) -> None:
        self._config = config
        self._policy = config.throttle
        self._chip_group = cluster.chip_group_indices
        self._groups: List[_GroupState] = []
        for group in cluster.fleet.groups:
            cap = (
                None
                if config.power_cap_w is None
                else config.power_cap_w * group.n_chips
            )
            node = ThermalNode(
                tau_s=config.thermal_tau_s,
                r_th_c_per_w=config.r_th_c_per_w / group.n_chips,
                t_ambient_c=config.t_ambient_c,
            )
            self._groups.append(
                _GroupState(
                    name=group.name,
                    n_chips=group.n_chips,
                    idle_w=config.idle_fraction * group.peak_watts,
                    cap_w=cap,
                    node=node,
                )
            )
        self._t_ns = 0.0
        #: Optional callback ``(t_ns, group_name, engaged)`` fired on
        #: every throttle engage/release transition (never on a
        #: re-evaluation that keeps the state); the engine points it at
        #: the run's event log.  ``None`` costs one falsy check per
        #: transition — the integration floats are untouched either way.
        self.on_throttle = None

    @property
    def config(self) -> PowerConfig:
        return self._config

    def current_power_w(self) -> float:
        """Instantaneous fleet draw (idle floors + in-flight batches)."""
        return sum(g.power_w for g in self._groups)

    # -- time integration ----------------------------------------------------------
    def advance(self, now_ns: float) -> None:
        """Integrate every group's power and temperature up to ``now_ns``.

        In-flight batches whose service ends inside the window drop their
        draw at exactly their completion instant, so the piecewise-constant
        integration is segment-exact; throttle state is re-evaluated at
        every segment boundary (event-loop granularity, per the model).
        """
        if now_ns <= self._t_ns:
            return  # events pop in time order; same-instant pops share state
        for group in self._groups:
            self._advance_group(group, now_ns)
        self._t_ns = now_ns

    def _advance_group(self, group: _GroupState, now_ns: float) -> None:
        t = self._t_ns
        while group.inflight and group.inflight[0][0] <= now_ns:
            end_ns, draw_w = heapq.heappop(group.inflight)
            if end_ns > t:
                self._integrate(group, t, end_ns)
                t = end_ns
            group.draw_w -= draw_w
            if not group.inflight or group.draw_w < 0.0:
                group.draw_w = 0.0  # swallow float residue at drain
            self._update_throttle(group, t)
        if now_ns > t:
            self._integrate(group, t, now_ns)
            self._update_throttle(group, now_ns)

    def _integrate(self, group: _GroupState, t0_ns: float, t1_ns: float) -> None:
        dt_ns = t1_ns - t0_ns
        power = group.power_w
        group.integral_w_ns += power * dt_ns
        if power > group.peak_w:
            group.peak_w = power
        if group.cap_w is not None and power > group.cap_w * (1.0 + _CAP_EPS):
            group.over_cap_ns += dt_ns
        group.node.step(power, dt_ns * 1e-9)
        if group.node.temp_c > group.peak_temp_c:
            group.peak_temp_c = group.node.temp_c
        # Exponential decay is monotone within a segment, so checking the
        # endpoint (plus the initial ambient) captures the true peak.

    def _update_throttle(self, group: _GroupState, t_ns: float) -> None:
        cfg, power = self._config, group.power_w
        if not group.engaged:
            hot_power = (
                group.cap_w is not None
                and power > group.cap_w * (1.0 + _CAP_EPS)
            )
            hot_temp = (
                cfg.t_max_c is not None and group.node.temp_c > cfg.t_max_c
            )
            if hot_power or hot_temp:
                group.engaged = True
                if self.on_throttle is not None:
                    self.on_throttle(t_ns, group.name, True)
            return
        cool_power = (
            group.cap_w is None
            or power <= self._policy.release_fraction * group.cap_w
        )
        cool_temp = (
            cfg.t_max_c is None
            or group.node.temp_c <= cfg.t_max_c - self._policy.release_margin_c
        )
        if cool_power and cool_temp:
            group.engaged = False
            if self.on_throttle is not None:
                self.on_throttle(t_ns, group.name, False)

    # -- dispatch-side API ---------------------------------------------------------
    def _factor(self, group: _GroupState, service: "ChipService") -> float:
        """Slowdown applied to this batch if dispatched on ``group`` now.

        The DVFS floor (``policy.slowdown`` while engaged) and the cap-fit
        stretch compose: the batch runs at whichever is slower, bounded by
        ``max_slowdown``.  Exactly 1.0 whenever nothing binds, so the
        unconstrained path multiplies no floats.
        """
        policy = self._policy
        factor = policy.slowdown if group.engaged else 1.0
        if group.cap_w is not None:
            headroom_w = group.cap_w - group.power_w
            if headroom_w <= 0.0:
                return policy.max_slowdown
            base_draw_w = watts(
                service.energy_pj * 1e-12, service.latency_ns * 1e-9
            )
            fit = base_draw_w / headroom_w
            if fit > factor:
                factor = fit
        return min(factor, policy.max_slowdown)

    def priced_latency(self, chip_id: int, service: "ChipService") -> float:
        """Effective latency routing should price this dispatch at."""
        group = self._groups[self._chip_group[chip_id]]
        factor = self._factor(group, service)
        if factor == 1.0:
            return service.latency_ns
        return service.latency_ns * factor

    def over_cap(self) -> bool:
        """Is any group currently drawing over its pooled cap?

        The elastic controller's scale-up veto: adding parallel batches
        to an over-cap group deepens the DVFS throttle instead of adding
        goodput, so capacity additions wait until the draw falls back
        under budget.  Always ``False`` for an uncapped config.
        """
        return any(
            g.cap_w is not None and g.power_w > g.cap_w * (1.0 + _CAP_EPS)
            for g in self._groups
        )

    def admit(
        self, chip_id: int, now_ns: float, service: "ChipService"
    ) -> float:
        """Register one dispatched batch; return its effective latency.

        The batch's draw (energy over *effective* time) joins the group's
        in-flight set until its completion instant, and throttle state is
        re-evaluated immediately so later dispatches at the same timestamp
        see the updated load.
        """
        group = self._groups[self._chip_group[chip_id]]
        factor = self._factor(group, service)
        if factor == 1.0:
            effective_ns = service.latency_ns
        else:
            effective_ns = service.latency_ns * factor
            group.stall_ns += effective_ns - service.latency_ns
        draw_w = watts(service.energy_pj * 1e-12, effective_ns * 1e-9)
        heapq.heappush(group.inflight, (now_ns + effective_ns, draw_w))
        group.draw_w += draw_w
        self._update_throttle(group, now_ns)
        return effective_ns

    # -- roll-up -------------------------------------------------------------------
    def finish(self) -> PowerTrace:
        """Freeze the run's accounting into a :class:`PowerTrace`.

        The averaging horizon is the last instant the governor integrated
        to (the final event the engine processed); a zero-length horizon
        (an empty trace) reports the idle floor.
        """
        groups = tuple(
            GroupPowerTrace(
                name=g.name,
                n_chips=g.n_chips,
                idle_w=g.idle_w,
                cap_w=g.cap_w,
                avg_w=(
                    g.integral_w_ns / self._t_ns if self._t_ns > 0 else g.idle_w
                ),
                peak_w=g.peak_w,
                over_cap_ns=g.over_cap_ns,
                stall_ns=g.stall_ns,
                peak_temp_c=g.peak_temp_c,
                final_temp_c=g.node.temp_c,
            )
            for g in self._groups
        )
        return PowerTrace(
            groups=groups,
            horizon_ns=self._t_ns,
            constrained=self._config.constrained,
        )
