"""Sharded parameter sweeps: declarative grids, a chunked process-pool
executor with a serial twin, canonical-hash feasibility caching, and
crash-safe JSONL checkpointing.

The one-screen tour::

    from repro.sweep import GridSpec, run_sweep, region_point

    grid = GridSpec(seed=0).cartesian(n=[8, 10, 12], sample=range(8))
    run = run_sweep(grid, region_point, workers=4,
                    checkpoint="region.jsonl")      # kill-safe
    # ... crash, then later:
    run = run_sweep(grid, region_point, workers=4,
                    checkpoint="region.jsonl", resume=True)
    rows = run.rows()   # bit-identical to an uninterrupted run

Result records depend only on each point's ``(params, seed)`` — never on
worker count or completion order — so ``workers=0`` (inline serial),
``workers=1``, and ``workers=8`` are interchangeable and differentiable.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    ".grid": ("GridPoint", "GridSpec"),
    ".executor": ("PointRecord", "SweepRun", "run_sweep"),
    ".cache": ("FeasibilityCache", "shared_cache", "canonical_graph_key",
               "canonical_ray_key", "canonical_spec_key"),
    ".checkpoint": ("SweepCheckpoint", "load_records", "resume"),
    ".points": ("FAMILIES", "random_instance_spec", "classify_point", "region_point",
                "mobility_point"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
