#!/usr/bin/env python3
"""Compare the working tree with a base commit on one stackbench workload.

Runs ``stackbench/run.py --workload W --trace 0`` in alternating pairs:
the working tree against ``git archive <base>`` unpacked into a temporary
directory.  The side that runs first alternates from pair to pair, so a
drift in machine load falls on both sides alike.  For every end-to-end
metric it prints each side's median and quartiles, the ratio of the
medians (change / base) and how many pairs the change won, where the
metric's better direction is the one ``BENCHMARK.json`` declares.  A
claimed gain should win nearly every pair, and its medians should differ
by more than the base's interquartile range.

Usage::

    python3 tools/stackbench_pairs.py --workload decode_llm
    python3 tools/stackbench_pairs.py --workload tenant_mix --base HEAD~1 \\
        --pairs 10 --seed 0 --seconds 8

Exits 1 if any run is not ``correct`` (a failed repetition, or a run that
printed no result line).  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    """(q1, median, q3) of ``values``, interpolated like numpy's default."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, better):
    """One row per metric from ``(base, change)`` pairs of result lines.

    Each line is the JSON object stackbench prints last; ``better`` maps a
    metric name to ``"lower"`` or ``"higher"``.  A row is ``(metric,
    base quartiles, change quartiles, ratio of medians, wins)``; the
    change wins a pair when it is strictly better there.  Metrics follow
    the first base line's order.
    """
    rows = []
    for name in json.loads(pairs[0][0])["metrics"]:
        base, change = [], []
        for base_line, change_line in pairs:
            base.append(json.loads(base_line)["metrics"][name]["value"])
            change.append(json.loads(change_line)["metrics"][name]["value"])
        lower = better[name] == "lower"
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        qb, qc = quartiles(base), quartiles(change)
        ratio = qc[1] / qb[1] if qb[1] else float("nan")
        rows.append((name, qb, qc, ratio, wins))
    return rows


def format_rows(rows, n_pairs) -> str:
    def cell(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    table = [("metric", "base median [q1, q3]", "change median [q1, q3]",
              "ratio", "wins")]
    for name, qb, qc, ratio, wins in rows:
        table.append((name, cell(qb), cell(qc), f"{ratio:.3f}",
                      f"{wins}/{n_pairs}"))
    widths = [max(len(row[i]) for row in table) for i in range(5)]
    return "\n".join(
        "  ".join(text.ljust(width) for text, width in zip(row, widths))
        .rstrip()
        for row in table
    )


def correct(line) -> bool:
    try:
        return bool(json.loads(line)["correct"])
    except (TypeError, ValueError, KeyError):
        return False


def run_side(tree: Path, args) -> str:
    """One stackbench run in ``tree``; its last stdout line ("" if none)."""
    proc = subprocess.run(
        [sys.executable, "stackbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return ""
    return lines[-1]


def unpack(base: str, into: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", base], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {metric["name"]: metric["better"] for metric in declared}
    base_sha = subprocess.run(
        ["git", "rev-parse", "--short", args.base], cwd=ROOT,
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    pairs, ok = [], True
    with tempfile.TemporaryDirectory(prefix="stackbench-base-") as tmp:
        base_tree = Path(tmp)
        unpack(args.base, base_tree)
        for i in range(args.pairs):
            sides = {}
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                tree = base_tree if side == "base" else ROOT
                sides[side] = run_side(tree, args)
                ok = ok and correct(sides[side])
            print(f"pair {i + 1}/{args.pairs} ({order[0]} first)", flush=True)
            if correct(sides["base"]) and correct(sides["change"]):
                pairs.append((sides["base"], sides["change"]))
    print(f"{args.workload}: {len(pairs)} pairs, base {base_sha}, seed "
          f"{args.seed}, {args.seconds:g} s per run")
    if pairs:
        print(format_rows(summarize(pairs, better), len(pairs)))
    if not ok:
        print("some runs were not correct", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
