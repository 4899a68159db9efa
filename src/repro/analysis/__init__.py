"""Result rendering and paper-vs-measured validation."""

from .anchors import full_report, render_full_report
from .charts import ascii_chart, chart_frequency_series
from .uncertainty import (
    VARIED_PARAMETERS,
    RobustnessResult,
    robustness_study,
    sample_params,
)
from .tables import format_mapping, format_series, format_table
from .validate import Check, ValidationReport

__all__ = [
    "format_table",
    "format_series",
    "format_mapping",
    "Check",
    "ValidationReport",
    "full_report",
    "render_full_report",
    "RobustnessResult",
    "robustness_study",
    "sample_params",
    "VARIED_PARAMETERS",
    "ascii_chart",
    "chart_frequency_series",
]
