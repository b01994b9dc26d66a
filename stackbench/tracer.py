"""In-memory span tracer that wraps the public callables of each stack layer.

The benchmark never edits the program.  :meth:`Tracer.install` swaps each
callable listed in :data:`LAYERS` (a module function or a class method)
for a wrapper that records a span, and :meth:`Tracer.uninstall` puts the
originals back.  A span is ``(name, start_s, end_s, parent_index)``, kept
in four flat arrays (a decode run records about a million spans).  The
wrapper also folds each span into running self times, so a layer's self
time is its span time minus the time of its child spans, and the self
times of all spans plus the time no span covers add up to the wall time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from typing import Callable, Dict, List, Tuple

#: layer -> (module, attribute) pairs.  ``Class.method`` patches the class,
#: so every instance built while the tracer is installed is traced;
#: ``Class.__init__`` is the constructor and its span is named after the
#: class.  Serving functions are patched in the ``repro.serve`` namespace,
#: which is where ``simulate_serving`` looks them up.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "traces": (
        ("repro.serve", "make_trace"),
        ("repro.serve", "merge_traces"),
        ("repro.serve", "sample_seqlens"),
        ("repro.serve", "with_seqlens"),
        ("repro.serve", "sample_decode_lens"),
        ("repro.serve", "with_decode_lens"),
        ("repro.serve", "tenant_traces"),
    ),
    "cluster": (
        ("repro.serve.cluster", "Cluster.__init__"),
        ("repro.serve.cluster", "Cluster.service"),
        ("repro.serve.cluster", "Cluster.decode_service"),
        ("repro.serve.cluster", "Cluster.service_table"),
        ("repro.serve.cluster", "Cluster.reference_latency_ns"),
        ("repro.serve.cluster", "Cluster.predicted_latency_ns"),
    ),
    "arch": (
        ("repro.arch.simulator", "ArchitectureSimulator.run"),
        ("repro.arch.simulator", "ArchitectureSimulator.run_batch"),
        ("repro.arch.simulator", "ArchitectureSimulator.run_layer_pipelined"),
        ("repro.arch.simulator", "ArchitectureSimulator.simulate_layer"),
        ("repro.arch.simulator", "ArchitectureSimulator.replication_budget"),
        ("repro.arch.simulator", "ArchitectureSimulator.overflow_layers"),
    ),
    "engine": (("repro.serve.engine", "ServingEngine.run"),),
    "metrics": (
        ("repro.serve", "summarize"),
        ("repro.serve", "format_serving"),
    ),
    "analog": (
        ("repro.experiments.fig6", "run_monte_carlo"),
        ("repro.analog.variation", "VariationModel.sample_unit_capacitors"),
        ("repro.analog.variation", "VariationModel.sample_vtc_gains"),
        ("repro.analog.variation", "VariationModel.sample_vtc_offsets"),
    ),
    "core": (
        ("repro.core.array", "InChargeArray.__init__"),
        ("repro.core.array", "InChargeArray.program_weights"),
        ("repro.core.array", "InChargeArray.vmm_voltages"),
        ("repro.core.array", "InChargeArray.ideal_vmm_voltages"),
        ("repro.core.ima", "DetailedIMA.__init__"),
        ("repro.core.ima", "DetailedIMA.program_weights"),
        ("repro.core.ima", "DetailedIMA.code_error"),
        ("repro.core.tda", "TimeDomainAccumulator.__init__"),
        ("repro.core.tda", "TimeDomainAccumulator.relative_error"),
    ),
}


def span_name(layer: str, attr: str) -> str:
    """``cluster`` + ``Cluster.service`` -> ``cluster.service``; constructors
    keep the class name (``core.InChargeArray``)."""
    owner, _, method = attr.rpartition(".")
    return f"{layer}.{owner if method == '__init__' else method}"


def _count_engine(counts: Dict[str, int], args, result) -> None:
    stats = result.stats
    counts["engine.events"] += stats.n_events
    counts["engine.dispatch_rounds"] += stats.n_dispatch_rounds
    counts["engine.slot_scans"] += stats.n_slot_scans
    counts["engine.batches"] += stats.n_batches
    counts["engine.decode_iters"] += result.n_decode_iters


def _count_merged(counts: Dict[str, int], args, result) -> None:
    counts["traces.requests"] += len(result)


def _count_tenant_trace(counts: Dict[str, int], args, result) -> None:
    counts["traces.requests"] += len(result[0])


def _count_samples(counts: Dict[str, int], args, result) -> None:
    counts["analog.samples"] += result.n


#: Work counters read off a span's return value, beyond its call count.
#: ``traces.requests`` counts the assembled traces handed on to the engine
#: (the merged trace, or the merged tenant trace), not every sub-trace.
COUNTERS: Dict[str, Callable[[Dict[str, int], tuple, object], None]] = {
    "engine.run": _count_engine,
    "traces.merge_traces": _count_merged,
    "traces.tenant_traces": _count_tenant_trace,
    "analog.run_monte_carlo": _count_samples,
}

COUNTER_NAMES = (
    "engine.events",
    "engine.dispatch_rounds",
    "engine.slot_scans",
    "engine.batches",
    "engine.decode_iters",
    "traces.requests",
    "analog.samples",
)


class Tracer:
    """Records spans around the callables of :data:`LAYERS` while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []  # span name of each name index
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack: List[list] = []  # [span index, child seconds]
        self._patched: List[Tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------------
    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                name = span_name(layer, attr)
                self.self_s[name] = 0.0
                self.calls[name] = 0
                self.names.append(name)
                original = vars(owner)[leaf]
                setattr(owner, leaf, self._wrap(original, name, len(self.names) - 1))
                self._patched.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched.clear()

    def _wrap(self, fn, name: str, name_index: int):
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )
        stack, self_s, calls = self._stack, self.self_s, self.calls
        counter = COUNTERS.get(name)
        counts = self.counts
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(starts), 0.0]
            names.append(name_index)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                starts[frame[0]] = start
                ends[frame[0]] = end
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    # -- read-out ------------------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer (the prefix of each span name)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def layer_calls(self, layer: str) -> int:
        return sum(n for name, n in self.calls.items() if name.startswith(layer + "."))

    def drop_spans(self) -> None:
        """Free the span arrays, keeping the self times and counters."""
        for spans in (self.span_name, self.span_start, self.span_end, self.span_parent):
            del spans[:]

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON, seconds since the first span."""
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [
                        [self.names[n], round(s - origin, 7), round(e - origin, 7), p]
                        for n, s, e, p in zip(
                            self.span_name, self.span_start,
                            self.span_end, self.span_parent,
                        )
                    ],
                },
                fh,
                separators=(",", ":"),
            )
