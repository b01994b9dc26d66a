#!/usr/bin/env python3
"""Stack benchmark: host time of the repro stack, end to end and per layer.

Run from the repository root::

    python3 stackbench/run.py                      # all four workloads
    python3 stackbench/run.py --workload tenant_mix --seed 0 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
measures the per-layer metrics from traced runs alternated with untraced
ones.  With ``--workload`` the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; a manifest of the
run goes to ``stackbench/out/``.  See ``stackbench/README.md``.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

from workloads import WORKLOADS

# One thread: pinned before numpy is first imported, inherited by children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh interpreters a --trace 0 run starts to time set-up, spread over
#: the run.
SETUP_PROBES = 6
#: Timed repetitions a run makes at least, however short --seconds is.
MIN_REPS = 3
PROBE_TIMEOUT_S = 170
#: Seconds one host loop (:func:`_host_loop_s`) takes on a quiet host.  The
#: host is shared, and neighbours slow everything on it by up to ~2x for
#: minutes at a time.  So every timing is taken together with host loops
#: run just before and after it, and reported in seconds on a host whose
#: loop takes this long: measured seconds x REFERENCE_LOOP_S / loop seconds.
#: See README.md, "Reading the numbers".
REFERENCE_LOOP_S = 0.011
#: Largest share of a traced repetition that may fall outside every layer.
MAX_UNATTRIBUTED = 0.05

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
)
PER_LAYER = (
    ("traced_wall_s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead", "x"),
    ("traces.self_s", "s"),
    ("traces.calls", "count"),
    ("traces.requests", "count"),
    ("cluster.self_s", "s"),
    ("cluster.service.calls", "count"),
    ("cluster.decode_service.calls", "count"),
    ("arch.self_s", "s"),
    ("arch.run_batch.calls", "count"),
    ("arch.run_layer_pipelined.calls", "count"),
    ("arch.simulate_layer.calls", "count"),
    ("engine.self_s", "s"),
    ("engine.ns_per_event", "ns"),
    ("engine.events", "count"),
    ("engine.dispatch_rounds", "count"),
    ("engine.slot_scans", "count"),
    ("engine.batches", "count"),
    ("engine.decode_iters", "count"),
    ("metrics.summarize_s", "s"),
    ("metrics.format_s", "s"),
    ("analog.self_s", "s"),
    ("analog.samples", "count"),
    ("core.self_s", "s"),
    ("core.vmm.calls", "count"),
    ("core.arrays", "count"),
)


def _fail(message: str) -> None:
    print(f"stackbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one repetition -------------------------------------------------------------------
def _host_loop_s() -> float:
    """Fastest of three timings of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def _host_scale(before: float, after: float) -> float:
    """Factor from measured seconds to seconds on the reference host."""
    return REFERENCE_LOOP_S / ((before + after) / 2)


def _timed(workload, tracer=None):
    """Run once; return (wall seconds, host scale, outcome or None, failures)."""
    gc.collect()
    before = _host_loop_s()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        outcome = workload.run()
    except Exception:  # a crashing repetition is a failed operation
        wall = time.perf_counter() - start
        return wall, 1.0, None, [traceback.format_exc(limit=3)]
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - start
    scale = _host_scale(before, _host_loop_s())
    return wall, scale, outcome, workload.check(outcome)


# -- probe: set-up time of a fresh interpreter ----------------------------------------
def probe(name: str, seed: int) -> None:
    workload = WORKLOADS[name](seed)
    before = _host_loop_s()
    start = time.perf_counter()
    _import_program()
    workload.setup()
    setup_s = time.perf_counter() - start
    print(json.dumps({"setup_s": setup_s,
                      "scale": _host_scale(before, _host_loop_s())}))


def _setup_s(workload):
    """Set-up seconds of a fresh interpreter for this workload, and its host
    scale."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe",
         "--workload", workload.name, "--seed", str(workload.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        _fail(f"set-up probe failed:\n{proc.stderr}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["scale"]


# -- the two measuring modes ----------------------------------------------------------
class Ledger:
    """Counts repetitions and collects failed checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, failures) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures)


def measure_end_to_end(workload, seconds: float, ledger: Ledger):
    workload.setup()
    workload.prepare_checks()
    setups, walls, cores, scales, rates = [], [], [], [], []
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if len(setups) < SETUP_PROBES and elapsed >= seconds * len(setups) / SETUP_PROBES:
            setups.append(_setup_s(workload))  # spread over the run
            continue
        if (len(setups) == SETUP_PROBES and len(walls) >= MIN_REPS
                and elapsed + min(walls) > seconds):
            break
        wall, scale, outcome, failures = _timed(workload)
        ledger.record(failures)
        if outcome is not None:
            walls.append(wall)
            scales.append(scale)
            cores.append(outcome.core_s)
            rates.append(outcome.rates)
            items = outcome.items
        outcome = None  # freed before the next repetition, for peak_rss_mb
    if not walls:
        _fail("every repetition crashed:\n" + "\n".join(ledger.failures[:3]))
    metrics = {
        "wall_s": median(w * k for w, k in zip(walls, scales)),
        "setup_s": median(t * k for t, k in setups),
        "peak_rss_mb": _peak_rss_mb(),
        "throughput_per_s": items / median(c * k for c, k in zip(cores, scales)),
    }
    named = {key: median(r[key] / k for r, k in zip(rates, scales)) for key in rates[0]}
    samples = {"wall_s": walls, "core_s": cores, "host_scale": scales,
               "setup_s": [t for t, _ in setups],
               "setup_host_scale": [k for _, k in setups]}
    return metrics, {"items": items, "rates": named, "samples": samples}


def _layer_metrics(tracer, wall: float, scale: float):
    """Per-layer figures of one traced repetition, times host-scaled."""
    layer = {name: t * scale for name, t in tracer.layer_self_s().items()}
    wall *= scale
    calls, counts = tracer.calls, tracer.counts
    events = counts["engine.events"]
    return {
        "traced_wall_s": wall,
        "unattributed_s": wall - sum(layer.values()),
        "traces.self_s": layer["traces"],
        "traces.calls": tracer.layer_calls("traces"),
        "traces.requests": counts["traces.requests"],
        "cluster.self_s": layer["cluster"],
        "cluster.service.calls": calls["cluster.service"],
        "cluster.decode_service.calls": calls["cluster.decode_service"],
        "arch.self_s": layer["arch"],
        "arch.run_batch.calls": calls["arch.run_batch"],
        "arch.run_layer_pipelined.calls": calls["arch.run_layer_pipelined"],
        "arch.simulate_layer.calls": calls["arch.simulate_layer"],
        "engine.self_s": layer["engine"],
        "engine.ns_per_event": layer["engine"] * 1e9 / events if events else 0.0,
        "engine.events": events,
        "engine.dispatch_rounds": counts["engine.dispatch_rounds"],
        "engine.slot_scans": counts["engine.slot_scans"],
        "engine.batches": counts["engine.batches"],
        "engine.decode_iters": counts["engine.decode_iters"],
        "metrics.summarize_s": tracer.self_s["metrics.summarize"] * scale,
        "metrics.format_s": tracer.self_s["metrics.format_serving"] * scale,
        "analog.self_s": layer["analog"],
        "analog.samples": counts["analog.samples"],
        "core.self_s": layer["core"],
        "core.vmm.calls": calls["core.vmm_voltages"],
        "core.arrays": calls["core.InChargeArray"],
    }


def measure_per_layer(workload, seconds: float, ledger: Ledger):
    from tracer import Tracer

    workload.setup()
    workload.prepare_checks()
    _, _, reference, failures = _timed(workload)  # warm-up, the untraced reference
    ledger.record(failures)
    if reference is None:
        _fail("the untraced reference run crashed:\n" + ledger.failures[0])
    plain, traced = [], []  # host-scaled untraced walls; tracers
    pair_s = float("inf")  # fastest traced + untraced pair so far
    begin = time.perf_counter()
    while (len(traced) < MIN_REPS or len(plain) < MIN_REPS
           or time.perf_counter() - begin + pair_s <= seconds):
        pair_start = time.perf_counter()
        tracer = Tracer()
        wall, scale, outcome, failures = _timed(workload, tracer)
        if outcome is not None and not workload.same(outcome.output, reference.output):
            failures = failures + ["traced run changed the program's output"]
        ledger.record(failures)
        if outcome is not None:
            tracer.wall_s, tracer.scale = wall, scale
            if traced:  # keep the spans of the first traced run only
                tracer.drop_spans()
            traced.append(tracer)
        outcome = None
        wall, scale, outcome, failures = _timed(workload)
        ledger.record(failures)
        if outcome is not None:
            plain.append(wall * scale)
        outcome = None
        pair_s = min(pair_s, time.perf_counter() - pair_start)
    if not traced or not plain:
        _fail("every repetition crashed:\n" + "\n".join(ledger.failures[:3]))
    counters = [(t.calls, t.counts) for t in traced]
    if any(c != counters[0] for c in counters[1:]):
        ledger.failed += 1
        ledger.failures.append("deterministic counters differ between traced runs")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{workload.seed}-spans.json.gz"
    traced[0].dump(str(spans_path))
    # The per-layer figures come from one traced run, the median one, so
    # that they add up to its wall time.
    pick = sorted(traced, key=lambda t: t.wall_s * t.scale)[(len(traced) - 1) // 2]
    metrics = _layer_metrics(pick, pick.wall_s, pick.scale)
    if metrics["unattributed_s"] > MAX_UNATTRIBUTED * metrics["traced_wall_s"]:
        ledger.failed += 1
        ledger.failures.append(
            f"{metrics['unattributed_s'] / metrics['traced_wall_s']:.1%} of the "
            "traced wall time is outside every layer"
        )
    metrics["trace_overhead"] = median(t.wall_s * t.scale for t in traced) / median(plain)
    metrics = {name: metrics[name] for name, _ in PER_LAYER}
    samples = {"traced_wall_s": [t.wall_s for t in traced],
               "traced_host_scale": [t.scale for t in traced],
               "untraced_scaled_wall_s": plain,
               "span_self_s": pick.self_s, "span_calls": pick.calls}
    return metrics, {"spans_file": str(spans_path.relative_to(ROOT)),
                     "samples": samples}


# -- manifest --------------------------------------------------------------------------
def _git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the program's sources, for checkouts that are not git repos."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _manifest(workload, args) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "why": workload.why,
        "params": workload.params(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def run_one(args) -> int:
    _import_program()
    workload = WORKLOADS[args.workload](args.seed)
    ledger = Ledger()
    if args.trace:
        metrics, detail = measure_per_layer(workload, args.seconds, ledger)
        units = dict(PER_LAYER)
    else:
        metrics, detail = measure_end_to_end(workload, args.seconds, ledger)
        units = dict(END_TO_END)
    manifest = _manifest(workload, args)
    manifest.update(detail, metrics=metrics, attempted=ledger.attempted,
                    failed=ledger.failed, failures=ledger.failures,
                    reference_loop_s=REFERENCE_LOOP_S)
    OUT.mkdir(exist_ok=True)
    manifest_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    manifest_path.write_text(json.dumps(manifest, indent=1, default=repr))

    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{ledger.attempted} repetitions, {ledger.failed} failed")
    for failure in ledger.failures[:5]:
        print(f"  FAILED: {failure.strip()}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.6g} {units[name]}")
    for name, value in detail.get("rates", {}).items():
        print(f"  {name:32s} {value:16.6g} 1/s")
    print(f"  manifest: {manifest_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload, one process at a time, and print its metrics."""
    _import_program()
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            ok = False
            continue
        ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
