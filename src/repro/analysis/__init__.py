"""Run-analysis helpers: summary metrics and plain-text reporting."""

from repro._exports import lazy_exports

_EXPORTS = {
    ".metrics": ("RunMetrics", "summarize"),
    ".report": ("format_table", "format_series", "sparkline"),
    ".convergence": ("delivery_rate_series", "standing_mass", "warmup_time"),
    ".landscape": ("height_profile", "render_grid_landscape"),
    ".fairness": ("jain_index", "normalized_shares", "per_source_throughput"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
