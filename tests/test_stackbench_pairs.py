"""The summary of ``tools/stackbench_pairs.py`` on canned result lines."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).parent.parent / "tools" / "stackbench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("stackbench_pairs", _PATH)
pairs_tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs_tool)

BETTER = {"wall_s": "lower", "throughput_per_s": "higher"}


def result_line(wall_s, throughput, correct=True):
    """A result line as stackbench prints it last."""
    return json.dumps({
        "correct": correct, "attempted": 3, "failed": 0 if correct else 1,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "throughput_per_s": {"value": throughput, "unit": "1/s"},
        },
    })


PAIRS = [
    (result_line(0.50, 200.0), result_line(0.40, 250.0)),
    (result_line(0.46, 210.0), result_line(0.42, 240.0)),
    (result_line(0.44, 190.0), result_line(0.45, 260.0)),
    (result_line(0.48, 220.0), result_line(0.41, 215.0)),
]


def test_rows_give_quartiles_ratio_and_wins():
    rows = {row[0]: row[1:] for row in pairs_tool.summarize(PAIRS, BETTER)}
    base, change, ratio, wins = rows["wall_s"]
    assert base == pytest.approx((0.455, 0.47, 0.485))
    assert change == pytest.approx((0.4075, 0.415, 0.4275))
    assert ratio == pytest.approx(0.415 / 0.47)
    # Lower is better: the third pair (0.45 against 0.44) is a loss.
    assert wins == 3
    base, change, ratio, wins = rows["throughput_per_s"]
    assert base[1] == pytest.approx(205.0)
    assert change[1] == pytest.approx(245.0)
    assert ratio == pytest.approx(245.0 / 205.0)
    # Higher is better: the fourth pair (215 against 220) is a loss.
    assert wins == 3


def test_rows_follow_the_result_lines_metric_order():
    assert [row[0] for row in pairs_tool.summarize(PAIRS, BETTER)] == [
        "wall_s", "throughput_per_s",
    ]


def test_a_tie_is_not_a_win():
    tie = [(result_line(0.5, 200.0), result_line(0.5, 200.0))]
    assert [row[4] for row in pairs_tool.summarize(tie, BETTER)] == [0, 0]


def test_one_pair_has_degenerate_quartiles():
    (name, base, change, ratio, wins), _ = pairs_tool.summarize(
        PAIRS[:1], BETTER
    )
    assert base == (0.50, 0.50, 0.50) and change == (0.40, 0.40, 0.40)
    assert wins == 1


def test_format_lists_every_metric_with_its_win_count():
    text = pairs_tool.format_rows(pairs_tool.summarize(PAIRS, BETTER), 4)
    lines = text.splitlines()
    assert lines[0].split()[0] == "metric"
    assert lines[1].startswith("wall_s") and lines[1].endswith("3/4")
    assert lines[2].startswith("throughput_per_s")
    assert "0.47 [0.455, 0.485]" in lines[1]


@pytest.mark.parametrize(
    "line, ok",
    [
        (result_line(0.5, 200.0), True),
        (result_line(0.5, 200.0, correct=False), False),
        ("", False),
        ("Traceback (most recent call last):", False),
    ],
)
def test_correct_reads_the_result_line(line, ok):
    assert pairs_tool.correct(line) is ok
