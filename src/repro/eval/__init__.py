"""Evaluation harness: workload generators and the runners that
regenerate every table and figure of the paper (Sec. VI).

The runners (:mod:`~repro.eval.experiments`) compute stability curves
with numpy and are imported on first access; the workload generators
load numpy only when :func:`stability_spec_for` runs the analysis.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .reporting import format_scatter, format_series, format_table
from .workloads import (
    FAST_DELAYS,
    PAPER_PERIODS,
    TABLE1_ROWS,
    experiment_network,
    fixed_message_count_periods,
    gm_case_study,
    problem_with_message_count,
    random_apps,
    random_problem,
    stability_spec_for,
)

if TYPE_CHECKING:
    from .experiments import (
        Fig3Result,
        Fig4Result,
        Fig5Result,
        Fig6Result,
        Fig7Result,
        Table1Result,
        run_fig3,
        run_fig4,
        run_fig5,
        run_fig6,
        run_fig7,
        run_table1,
    )

__getattr__, __dir__ = lazy_exports(globals(), {
    name: ".experiments"
    for name in ("Fig3Result", "Fig4Result", "Fig5Result", "Fig6Result",
                 "Fig7Result", "Table1Result", "run_fig3", "run_fig4",
                 "run_fig5", "run_fig6", "run_fig7", "run_table1")
})

__all__ = [
    "FAST_DELAYS",
    "Fig3Result",
    "Fig4Result",
    "Fig5Result",
    "Fig6Result",
    "Fig7Result",
    "PAPER_PERIODS",
    "TABLE1_ROWS",
    "Table1Result",
    "experiment_network",
    "fixed_message_count_periods",
    "format_scatter",
    "format_series",
    "format_table",
    "gm_case_study",
    "problem_with_message_count",
    "random_apps",
    "random_problem",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_table1",
    "stability_spec_for",
]
