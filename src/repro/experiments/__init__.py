"""Experiment drivers — one module per figure of the paper's evaluation.

See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for the
recorded paper-vs-measured results.
"""

from .executor import (
    CellResult,
    GridJob,
    default_jobs,
    iter_configs,
    map_cells,
    map_configs,
    submit_grid,
    sweep_grid,
)
from .common import (
    ERP_GRID,
    SCHEMES,
    ExperimentScale,
    current_scale,
    run_cell,
    run_cell_stats,
    run_erp_sweep,
)
from .fig4_activity import activity_saving_percent, format_fig4, run_fig4
from .fig5_tradeoff import format_fig5, run_fig5
from .fig6_schemes import format_panel, panel_a, panel_b, panel_c, panel_d, run_fig6
from .fig7_profit import format_fig7_panel
from .headline import compute_headline, format_headline

__all__ = [
    "CellResult",
    "ERP_GRID",
    "GridJob",
    "SCHEMES",
    "ExperimentScale",
    "activity_saving_percent",
    "compute_headline",
    "current_scale",
    "default_jobs",
    "iter_configs",
    "submit_grid",
    "format_fig4",
    "format_fig5",
    "format_fig7_panel",
    "format_headline",
    "format_panel",
    "map_cells",
    "map_configs",
    "panel_a",
    "panel_b",
    "panel_c",
    "panel_d",
    "run_cell",
    "run_cell_stats",
    "run_erp_sweep",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "sweep_grid",
]
