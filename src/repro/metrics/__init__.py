"""Metrics and report formatting for the reproduction's tables and figures."""

from repro.metrics.report import Table, format_figure_series, format_table

__all__ = ["Table", "format_table", "format_figure_series"]
