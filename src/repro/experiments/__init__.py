"""Experiment drivers: one module per table/figure of the evaluation.

Each ``run_*`` function produces a structured result; each ``format_*``
renders the same rows/series the paper's artifact shows.  The benchmark
harness under ``benchmarks/`` wraps these one-to-one.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "fig1": ("Fig1cResult", "format_fig1c", "run_fig1c"),
    "fig6": (
        "AccuracyComparison",
        "Fig6aResult",
        "Fig6bcResult",
        "Fig6eResult",
        "Fig6fResult",
        "format_fig6",
        "run_fig6a",
        "run_fig6bc",
        "run_fig6d",
        "run_fig6e",
        "run_fig6f",
    ),
    "fig7": ("Fig7Result", "format_fig7", "run_fig7"),
    "fig8": ("Fig8Result", "format_fig8", "run_fig8"),
    "fig9": ("Fig9aResult", "Fig9bResult", "format_fig9", "run_fig9a", "run_fig9b"),
    "fig10": ("Fig10Result", "format_fig10", "run_fig10"),
    "table1": ("format_table1", "run_table1"),
    "table2": ("Table2Result", "format_table2", "run_table2"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
