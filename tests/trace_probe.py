"""Read a serving run's event stream back from its JSONL lifecycle trace.

Tests that inspect what the engine did, event by event, run their
scenario with a trace file and parse it.
"""

import dataclasses
import json
import os
import tempfile

from repro.serve import simulate_serving


def traced_run(config):
    """``simulate_serving(config)`` with a JSONL lifecycle trace.

    Returns ``(report, result, events)``: the events are the trace's
    parsed lines, in file order (the engine's event order).
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        observe = dataclasses.replace(config.observe, trace_file=path)
        report, result = simulate_serving(
            dataclasses.replace(config, observe=observe)
        )
        with open(path) as f:
            events = [json.loads(line) for line in f]
    return report, result, events
