"""Shared utilities: table rendering and run statistics."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".profiling": ("Timer", "profile_call"),
    ".stats": ("mean_std", "summarize_runs", "t_confidence_interval"),
    ".tables": ("format_series", "format_table"),
})

__all__ = [
    "Timer",
    "format_series",
    "format_table",
    "mean_std",
    "profile_call",
    "summarize_runs",
    "t_confidence_interval",
]
