"""Headless visualization: ASCII maps/charts and SVG export."""

from .ascii import render_field, render_series
from .svg import field_svg, series_svg, write_svg

__all__ = [
    "field_svg",
    "render_field",
    "render_series",
    "series_svg",
    "write_svg",
]
