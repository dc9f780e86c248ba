"""Experiment drivers — one module per figure of the paper's evaluation,
and :mod:`.suite`, which runs them all once and formats every table.

See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for the
recorded paper-vs-measured results.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".common": (
        "ERP_GRID",
        "SCHEMES",
        "ExperimentScale",
        "current_scale",
        "run_cell",
        "run_cell_stats",
        "run_erp_sweep",
    ),
    ".executor": ("default_jobs", "iter_configs", "map_cells", "map_configs", "sweep_grid"),
    ".fig4_activity": ("activity_saving_percent", "format_fig4", "run_fig4"),
    ".fig5_tradeoff": ("format_fig5", "run_fig5"),
    ".fig6_schemes": ("format_panel", "panel_a", "panel_b", "panel_c", "panel_d", "run_fig6"),
    ".fig7_profit": ("format_fig7_panel",),
    ".suite": ("TABLES", "format_headline", "format_tables", "headline_claims", "run_suite"),
})

__all__ = [
    "ERP_GRID",
    "SCHEMES",
    "TABLES",
    "ExperimentScale",
    "activity_saving_percent",
    "current_scale",
    "default_jobs",
    "iter_configs",
    "format_fig4",
    "format_fig5",
    "format_fig7_panel",
    "format_headline",
    "format_panel",
    "format_tables",
    "headline_claims",
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
    "run_suite",
    "sweep_grid",
]
