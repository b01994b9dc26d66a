"""Arrival-trace generators: determinism, rates and shapes."""

import dataclasses

import pytest

from repro.serve import Request, diurnal_trace, make_trace, merge_traces
from repro.serve.traces import (
    bursty_trace,
    fixed_trace,
    poisson_trace,
    uniform_trace,
)


class TestRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            Request(request_id=0, model="", arrival_ns=0.0)
        with pytest.raises(ValueError):
            Request(request_id=0, model="resnet18", arrival_ns=-1.0)


class TestPoisson:
    def test_deterministic_for_seed(self):
        a = poisson_trace("resnet18", rps=1000, duration_s=0.1, seed=3)
        b = poisson_trace("resnet18", rps=1000, duration_s=0.1, seed=3)
        assert a == b

    def test_seed_changes_trace(self):
        a = poisson_trace("resnet18", rps=1000, duration_s=0.1, seed=0)
        b = poisson_trace("resnet18", rps=1000, duration_s=0.1, seed=1)
        assert a != b

    def test_sorted_and_sequentially_numbered(self):
        trace = poisson_trace("resnet18", rps=2000, duration_s=0.1, seed=0)
        arrivals = [r.arrival_ns for r in trace]
        assert arrivals == sorted(arrivals)
        assert [r.request_id for r in trace] == list(range(len(trace)))

    def test_mean_rate_close(self):
        trace = poisson_trace("resnet18", rps=2000, duration_s=0.5, seed=0)
        assert len(trace) == pytest.approx(1000, rel=0.15)

    def test_invalid_rate_and_duration(self):
        with pytest.raises(ValueError):
            poisson_trace("m", rps=0, duration_s=1.0)
        with pytest.raises(ValueError):
            poisson_trace("m", rps=100, duration_s=0)


class TestBursty:
    def test_mean_rate_close(self):
        trace = bursty_trace("resnet18", rps=2000, duration_s=0.5, seed=0)
        assert len(trace) == pytest.approx(1000, rel=0.25)

    def test_burstier_than_poisson(self):
        """Squared coefficient of variation of inter-arrivals exceeds the
        Poisson value of ~1."""

        def scv(trace):
            gaps = [
                b.arrival_ns - a.arrival_ns for a, b in zip(trace, trace[1:])
            ]
            mean = sum(gaps) / len(gaps)
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            return var / mean**2

        bursty = bursty_trace(
            "m", rps=2000, duration_s=0.5, seed=0, burstiness=0.9
        )
        poisson = poisson_trace("m", rps=2000, duration_s=0.5, seed=0)
        assert scv(bursty) > scv(poisson) * 1.2

    def test_burstiness_range(self):
        with pytest.raises(ValueError):
            bursty_trace("m", rps=100, duration_s=0.1, burstiness=1.0)


class TestDiurnal:
    def test_deterministic_and_bounded(self):
        a = diurnal_trace("m", rps=1000, duration_s=0.2, seed=5)
        b = diurnal_trace("m", rps=1000, duration_s=0.2, seed=5)
        assert a == b
        assert all(0 <= r.arrival_ns < 0.2e9 for r in a)

    def test_peak_trough_asymmetry(self):
        """First half-period (rate above mean) carries more arrivals than
        the second (rate below mean)."""
        trace = diurnal_trace(
            "m", rps=2000, duration_s=0.1, seed=0, amplitude=0.9, period_s=0.1
        )
        first = sum(1 for r in trace if r.arrival_ns < 0.05e9)
        second = len(trace) - first
        assert first > 1.5 * second

    def test_amplitude_range(self):
        with pytest.raises(ValueError):
            diurnal_trace("m", rps=100, duration_s=0.1, amplitude=1.5)


class TestFixedAndUniform:
    def test_uniform_is_deterministic_grid(self):
        trace = uniform_trace("m", rps=1000, duration_s=0.01)
        assert len(trace) == 10
        gaps = {
            round(b.arrival_ns - a.arrival_ns, 6)
            for a, b in zip(trace, trace[1:])
        }
        assert gaps == {1e6}

    def test_fixed_replays_and_sorts(self):
        trace = fixed_trace("m", [30.0, 10.0, 20.0])
        assert [r.arrival_ns for r in trace] == [10.0, 20.0, 30.0]
        assert [r.request_id for r in trace] == [0, 1, 2]


class TestMergeAndDispatch:
    def test_merge_renumbers_by_time(self):
        a = fixed_trace("a", [10.0, 30.0])
        b = fixed_trace("b", [20.0])
        merged = merge_traces(a, b)
        assert [r.model for r in merged] == ["a", "b", "a"]
        assert [r.request_id for r in merged] == [0, 1, 2]

    def test_make_trace_kinds(self):
        for kind in ("poisson", "bursty", "diurnal", "uniform"):
            trace = make_trace(kind, "m", rps=500, duration_s=0.05, seed=1)
            assert len(trace) > 0
        with pytest.raises(ValueError):
            make_trace("sawtooth", "m", rps=500, duration_s=0.05)

    def test_requests_are_frozen(self):
        trace = uniform_trace("m", rps=100, duration_s=0.01)
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace[0].arrival_ns = 0.0


# -- columnar traces: references and the intentional diurnal seed lanes -------------
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import traces as traces_module
from repro.serve.traces import TraceColumns, with_tenant


def _scalar_poisson_arrivals(rps, duration_s, seed):
    """The per-draw loop ``poisson_trace`` ran before its draws were chunked."""
    rng = np.random.default_rng(seed)
    horizon_ns = duration_s * 1e9
    mean_gap_ns = 1e9 / rps
    arrivals = []
    t = rng.exponential(mean_gap_ns)
    while t < horizon_ns:
        arrivals.append(t)
        t += rng.exponential(mean_gap_ns)
    return arrivals


def _sorted_merge(*traces):
    """``merge_traces`` as a Python sort plus per-request renumbering."""
    merged = sorted(
        (req for trace in traces for req in trace),
        key=lambda r: (r.arrival_ns, r.model, r.tenant),
    )
    return tuple(
        dataclasses.replace(req, request_id=i) for i, req in enumerate(merged)
    )


class TestPoissonMatchesScalarLoop:
    @pytest.mark.parametrize(
        "rps,duration_s",
        [(1000.0, 0.1), (2000.0, 0.5), (50_000.0, 0.02), (7.0, 1.0), (3e5, 0.01)],
    )
    @pytest.mark.parametrize("seed", range(0, 200, 20))
    def test_bit_identical(self, rps, duration_s, seed):
        trace = poisson_trace("m", rps, duration_s, seed=seed)
        assert trace.arrival_ns.tolist() == _scalar_poisson_arrivals(
            rps, duration_s, seed
        )

    def test_bit_identical_across_full_chunks(self):
        # ~150k arrivals: more than two default chunks.
        trace = poisson_trace("m", 1.5e6, 0.1, seed=11)
        assert len(trace) > 2 * traces_module._ARRIVAL_CHUNK
        assert trace.arrival_ns.tolist() == _scalar_poisson_arrivals(1.5e6, 0.1, 11)

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_bit_identical_with_tiny_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(traces_module, "_ARRIVAL_CHUNK", chunk)
        for seed in (0, 5, 9):
            trace = poisson_trace("m", 20_000.0, 0.01, seed=seed)
            assert trace.arrival_ns.tolist() == _scalar_poisson_arrivals(
                20_000.0, 0.01, seed
            )


_SUB_TRACES = st.lists(
    st.tuples(
        st.sampled_from(("uniform", "poisson", "fixed")),
        st.sampled_from(("a", "b", "c")),
        st.sampled_from(("", "chat", "bulk")),
        st.integers(0, 50),
    ),
    min_size=0,
    max_size=5,
)


def _sub_trace(kind, model, tenant, seed):
    if kind == "uniform":
        # Equal rates on every model: exact arrival ties across sub-traces.
        trace = uniform_trace(model, 2000.0, 0.005)
    elif kind == "poisson":
        trace = poisson_trace(model, 2000.0, 0.005, seed=seed)
    else:
        trace = fixed_trace(model, [0.0, 5e5, 5e5, float(seed) * 1e5])
    return with_tenant(trace, tenant) if tenant else trace


class TestMergeMatchesSortedReference:
    @given(subs=_SUB_TRACES)
    @settings(max_examples=60, deadline=None)
    def test_lexsort_equals_python_sort(self, subs):
        traces = [_sub_trace(*s) for s in subs]
        merged = merge_traces(*traces)
        assert merged == _sorted_merge(*traces)
        # Request sequences merge the same way as columns.
        assert merge_traces(*(tuple(t) for t in traces)) == merged

    def test_tenant_ties_order_by_name(self):
        chat = with_tenant(fixed_trace("m", [1.0, 2.0]), "chat")
        bulk = with_tenant(fixed_trace("m", [1.0, 2.0]), "bulk")
        merged = merge_traces(chat, bulk)
        assert [r.tenant for r in merged] == ["bulk", "chat", "bulk", "chat"]
        assert merged == _sorted_merge(chat, bulk)


class TestTraceColumns:
    def _trace(self):
        return merge_traces(
            with_tenant(poisson_trace("a", 5000.0, 0.01, seed=1), "chat"),
            poisson_trace("b", 5000.0, 0.01, seed=2),
        ).replace(seq_len=None, decode_tokens=None)

    def test_round_trips_through_requests(self):
        cols = self._trace()
        requests = tuple(cols)
        assert all(isinstance(r, Request) for r in requests)
        wrapped = TraceColumns.from_requests(requests)
        assert wrapped == cols and cols == wrapped
        assert wrapped == requests and cols == requests
        assert tuple(wrapped) == requests
        assert [cols[i] for i in range(len(cols))] == list(requests)
        assert cols[-1] == requests[-1]
        assert tuple(cols[3:9]) == requests[3:9]

    def test_replacing_a_column_keeps_the_rest(self):
        cols = poisson_trace("m", 5000.0, 0.01, seed=3)
        lens = list(range(1, len(cols) + 1))
        seqs = traces_module.with_seqlens(cols, lens)
        assert [r.seq_len for r in seqs] == lens
        assert [dataclasses.replace(r, seq_len=0) for r in seqs] == list(cols)

    @pytest.mark.parametrize(
        "columns,message",
        [
            (dict(model_names=("",)), "request model must be non-empty"),
            (dict(arrival_ns=[0.0, -1.0]), "arrival time must be non-negative"),
            (dict(seq_len=[0, -1]), "seq_len must be non-negative"),
            (dict(decode_tokens=[-1, 0]), "decode_tokens must be non-negative"),
            # Request 0 fails first, so its check decides.
            (
                dict(seq_len=[-1, 0], arrival_ns=[0.0, -1.0]),
                "seq_len must be non-negative",
            ),
        ],
    )
    def test_request_checks_on_whole_columns(self, columns, message):
        fields = dict(arrival_ns=[0.0, 1.0], model_code=[0, 0], model_names=("m",))
        fields.update(columns)
        with pytest.raises(ValueError) as columnar:
            TraceColumns(**fields)
        assert str(columnar.value) == message


class TestDiurnalSeedLanes:
    def test_chunk_size_never_changes_the_trace(self, monkeypatch):
        reference = diurnal_trace("m", 20_000.0, 0.02, seed=4, amplitude=0.8)
        for chunk in (1, 7, 1000):
            monkeypatch.setattr(traces_module, "_ARRIVAL_CHUNK", chunk)
            assert diurnal_trace("m", 20_000.0, 0.02, seed=4, amplitude=0.8) == (
                reference
            )

    def test_count_within_four_sigma_of_integrated_rate(self):
        rps, duration, amplitude, period, phase = 20_000.0, 0.05, 0.7, 0.03, 0.1
        # Integral of rps * (1 + A sin(2 pi t / P + 2 pi phase)) over [0, T].
        expected = rps * duration + rps * amplitude * period / (2.0 * math.pi) * (
            math.cos(2.0 * math.pi * phase)
            - math.cos(2.0 * math.pi * (duration / period + phase))
        )
        for seed in range(20):
            n = len(
                diurnal_trace(
                    "m", rps, duration, seed=seed, amplitude=amplitude,
                    period_s=period, phase=phase,
                )
            )
            assert abs(n - expected) <= 4.0 * math.sqrt(expected), (seed, n)


class TestGeneratorInputChecks:
    def test_bursty_rejects_non_positive_dwell(self):
        # A zero dwell used to spin forever: every phase ended where it began.
        for dwell in (0.0, -0.01):
            with pytest.raises(ValueError, match="mean_dwell_s must be positive"):
                bursty_trace("m", rps=100, duration_s=0.1, mean_dwell_s=dwell)

    def test_diurnal_rejects_non_positive_period(self):
        # A zero period used to divide by zero.
        for period in (0.0, -0.1):
            with pytest.raises(ValueError, match="period_s must be positive"):
                diurnal_trace("m", rps=100, duration_s=0.1, period_s=period)
