"""Analysis and presentation: box plots (ASCII + SVG), tables, phase
breakdowns, event-trace summaries, span-profile reports, timeline
charts and steady-state summaries of service windows."""

from repro.analysis.boxplot import ascii_boxplot, ascii_boxplot_group
from repro.analysis.phases import PhaseBreakdown, phase_breakdown
from repro.analysis.profile_report import (
    SpanStat,
    metrics_tables,
    profile_table,
    span_summary,
    timeline_table,
)
from repro.analysis.steady_state import (
    SteadyStateSummary,
    analyze_series,
    analyze_windows,
    batch_means_ci,
    mser_truncation,
    steady_state_table,
)
from repro.analysis.svg import (
    boxplot_svg,
    save_boxplot_svg,
    save_timeline_svg,
    timeline_svg,
)
from repro.analysis.tables import markdown_table
from repro.analysis.trace_summary import (
    TraceSummary,
    summarize_trace,
    trace_summary_table,
)

__all__ = [
    "TraceSummary",
    "summarize_trace",
    "trace_summary_table",
    "ascii_boxplot",
    "ascii_boxplot_group",
    "PhaseBreakdown",
    "phase_breakdown",
    "boxplot_svg",
    "save_boxplot_svg",
    "timeline_svg",
    "save_timeline_svg",
    "SpanStat",
    "span_summary",
    "profile_table",
    "timeline_table",
    "metrics_tables",
    "markdown_table",
    "SteadyStateSummary",
    "analyze_series",
    "analyze_windows",
    "batch_means_ci",
    "mser_truncation",
    "steady_state_table",
]
