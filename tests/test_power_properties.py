"""Property-based invariants of the power/thermal governor (hypothesis).

Two families:

* **throttle monotonicity** — on a single-chip FIFO cluster the cap-fit
  stretch factor depends only on the cap, so a tighter cap slows every
  batch elementwise and FCFS departure times are coupled: p50/p99 latency
  and the makespan can never *improve* when the envelope tightens.  (The
  single-chip scenario is chosen deliberately — multi-server FCFS admits
  pathological counterexamples even without power, so the property is
  asserted where it is provable.)
* **thermal-trace invariants** — the RC node's exact exponential update is
  unconditionally stable: temperatures stay between ambient and the
  hottest steady state, never NaN, for any ``tau`` from nanoseconds to
  megaseconds and any power sequence.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    FleetConfig,
    PolicyConfig,
    PowerConfig,
    ServingConfig,
    WorkloadConfig,
    simulate_serving,
)
from repro.serve.power import ThermalNode

#: Single-chip FIFO scenario: no batching, no routing freedom — the pure
#: service-time coupling the monotonicity argument needs.
def _scenario(rps, seed, power=None):
    return ServingConfig(
        workload=WorkloadConfig(
            models=("resnet18",), rps=rps, duration_s=0.02, seed=seed
        ),
        fleet=FleetConfig(fleet="yoco:1", power=power),
        policy=PolicyConfig(max_batch_size=1, window_ms=0.0),
    )

#: YOCO's idle floor is ~0.18 W/chip; caps below that are infeasible and
#: pin at max slowdown (still monotone, but degenerate), so the strategy
#: draws from the feasible, binding range.
_CAPS = st.floats(min_value=0.25, max_value=2.0)


def _run(cap, rps, seed):
    return simulate_serving(
        config=_scenario(rps, seed, PowerConfig(power_cap_w=cap))
    )


class TestThrottleMonotonicity:
    @given(
        caps=st.tuples(_CAPS, _CAPS),
        rps=st.floats(min_value=500.0, max_value=20000.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_tighter_cap_never_improves_latency_or_makespan(
        self, caps, rps, seed
    ):
        loose, tight = max(caps), min(caps)
        loose_report, loose_result = _run(loose, rps, seed)
        tight_report, tight_result = _run(tight, rps, seed)
        if not loose_report.per_model:
            return  # no arrivals in the horizon: nothing to compare
        lm, tm = loose_report.per_model[0], tight_report.per_model[0]
        tol = 1e-9
        assert tm.p50_ms >= lm.p50_ms * (1 - tol)
        assert tm.p99_ms >= lm.p99_ms * (1 - tol)
        assert tight_result.makespan_ns >= loose_result.makespan_ns * (1 - tol)

    @given(
        caps=st.tuples(_CAPS, _CAPS),
        rps=st.floats(min_value=500.0, max_value=20000.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_tighter_cap_never_stalls_less(self, caps, rps, seed):
        loose, tight = max(caps), min(caps)
        _, loose_result = _run(loose, rps, seed)
        _, tight_result = _run(tight, rps, seed)
        assert (
            tight_result.power.total_stall_ns
            >= loose_result.power.total_stall_ns * (1 - 1e-9)
        )

    @given(
        cap=_CAPS,
        rps=st.floats(min_value=500.0, max_value=20000.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_feasible_cap_bounds_average_and_peak_watts(self, cap, rps, seed):
        _, result = _run(cap, rps, seed)
        group = result.power.groups[0]
        assert group.feasible
        assert group.avg_w <= group.cap_w * (1 + 1e-9)
        # On a single chip no concurrent admission can leak past the
        # budget, so even the instantaneous peak is capped.
        assert group.peak_w <= group.cap_w * (1 + 1e-9)

    @given(
        cap=_CAPS,
        rps=st.floats(min_value=500.0, max_value=20000.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_throttling_moves_time_never_requests_or_energy(
        self, cap, rps, seed
    ):
        _, capped = _run(cap, rps, seed)
        _, blind = simulate_serving(config=_scenario(rps, seed))
        assert [s.request for s in capped.served] == [
            s.request for s in blind.served
        ]
        assert capped.total_energy_pj == blind.total_energy_pj


class TestThermalInvariants:
    @given(
        tau=st.floats(min_value=1e-9, max_value=1e6),
        powers=st.lists(
            st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=50
        ),
        dts=st.floats(min_value=0.0, max_value=10.0),
        r_th=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_temperature_bounded_and_finite(self, tau, powers, dts, r_th):
        node = ThermalNode(tau_s=tau, r_th_c_per_w=r_th, t_ambient_c=25.0)
        ceiling = node.steady_c(max(powers))
        for power in powers:
            node.step(power, dts)
            assert math.isfinite(node.temp_c)
            assert 25.0 - 1e-9 <= node.temp_c <= ceiling + 1e-9

    @given(
        tau=st.floats(min_value=1e-9, max_value=1e6),
        power=st.floats(min_value=0.0, max_value=1e3),
        dt=st.floats(min_value=1e-9, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_constant_power_approaches_steady_monotonically(
        self, tau, power, dt
    ):
        node = ThermalNode(tau_s=tau, r_th_c_per_w=10.0, t_ambient_c=25.0)
        steady = node.steady_c(power)
        previous_gap = abs(node.temp_c - steady)
        for _ in range(10):
            node.step(power, dt)
            gap = abs(node.temp_c - steady)
            assert gap <= previous_gap + 1e-9
            previous_gap = gap

    @given(
        tau=st.sampled_from([1e-9, 1e-3, 1.0, 1e6]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_engine_trace_temperatures_stay_physical(self, tau, seed):
        _, result = simulate_serving(
            config=_scenario(
                10000.0, seed, PowerConfig(t_max_c=40.0, thermal_tau_s=tau)
            )
        )
        for group in result.power.groups:
            assert math.isfinite(group.peak_temp_c)
            assert math.isfinite(group.final_temp_c)
            assert group.peak_temp_c >= 25.0 - 1e-9
            assert group.final_temp_c <= group.peak_temp_c + 1e-9
