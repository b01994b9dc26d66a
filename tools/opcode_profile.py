#!/usr/bin/env python3
"""Count the Python opcodes one stackbench workload repetition executes.

Builds the workload from ``stackbench/workloads.py`` (imported as it is),
runs one untimed warm-up repetition, then runs one more under
``sys.settrace`` with per-opcode events on and counts every opcode by the
function that executed it.  Opcode counts are deterministic for a fixed
seed, so two trees can be compared without timing noise; C code (numpy,
builtins) executes no Python opcodes and is not counted.

Usage::

    python3 tools/opcode_profile.py --workload decode_llm
    python3 tools/opcode_profile.py --workload tenant_mix --seed 1 --top 10

Prints the total, then the ``--top`` functions by opcode count with their
share of the total.  Standard library only.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def count_opcodes(call):
    """Run ``call()`` under ``sys.settrace``; return opcodes per code object."""
    counts = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def global_(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(global_)
    try:
        call()
    finally:
        sys.settrace(None)
    return counts


def label(code) -> str:
    """``path:line(name)`` of a code object, relative to the repo root."""
    path = Path(code.co_filename)
    try:
        path = path.resolve().relative_to(ROOT)
    except ValueError:
        pass
    return f"{path}:{code.co_firstlineno}({code.co_name})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=20)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "stackbench")]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    workload.prepare_checks()
    workload.run()  # warm: cost-table memos and lazy imports
    counts = count_opcodes(workload.run)
    total = sum(counts.values())
    print(f"{args.workload} seed {args.seed}: {total:,} opcodes")
    for code, n in counts.most_common(args.top):
        print(f"{n:>12,} {100.0 * n / total:6.2f}%  {label(code)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
