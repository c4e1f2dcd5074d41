"""Analyses regenerating the paper's figures and tables."""

from .calibrate import CalibrationResult, CalibrationStep, calibrate_cell
from .crossover import AdvantageRegion, advantage_regions, render_regions
from .eligibility_curves import EligibilityCurves, eligibility_curves
from .export import curves_to_csv, sweep_to_csv, sweep_to_json, sweep_to_rows
from .figures import ascii_curve, ascii_interval_panel
from .league import Entrant, LeagueRow, league, render_league
from .overhead import OverheadRecord, measure_overhead, render_overhead_table
from .report_all import WorkloadReport, full_report, render_report
from .report import (
    format_ratio,
    render_curves_table,
    render_sweep,
    render_sweep_series,
)
from .sweep import (
    METRICS,
    CellResult,
    SweepConfig,
    SweepResult,
    paper_grid,
    quick_grid,
    ratio_sweep,
)

__all__ = [
    "AdvantageRegion",
    "METRICS",
    "advantage_regions",
    "ascii_curve",
    "ascii_interval_panel",
    "curves_to_csv",
    "sweep_to_csv",
    "sweep_to_json",
    "sweep_to_rows",
    "render_regions",
    "CalibrationResult",
    "CalibrationStep",
    "calibrate_cell",
    "CellResult",
    "EligibilityCurves",
    "Entrant",
    "LeagueRow",
    "league",
    "render_league",
    "OverheadRecord",
    "SweepConfig",
    "SweepResult",
    "WorkloadReport",
    "full_report",
    "render_report",
    "eligibility_curves",
    "format_ratio",
    "measure_overhead",
    "paper_grid",
    "quick_grid",
    "ratio_sweep",
    "render_curves_table",
    "render_overhead_table",
    "render_sweep",
    "render_sweep_series",
]
