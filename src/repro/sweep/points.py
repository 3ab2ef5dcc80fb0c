"""Stock sweep point functions (module-level, hence picklable).

These are the payloads the executor ships to worker processes: each takes
``(params, seed)`` and returns a flat JSON-able record.  They all classify
through the process-global cache's
:meth:`~repro.sweep.cache.FeasibilityCache.region` — one
parametric envelope solve per (network, ray), yielding the exact critical
scalar λ* alongside the class — so a worker that sees the same (topology,
rates) twice pays for the flow computation once.

``region_point`` is the workhorse behind ``repro-lgg sweep`` and the E17
random-region experiment: sample a random connected instance (any
parameter not pinned by the grid is drawn from the point's seed), classify
it (Definitions 3–4), simulate LGG, and report whether the Theorem 1
diagonal held.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro._rng import as_generator, derive_seed
from repro.errors import SweepError
from repro.graphs import generators as gen
from repro.network import NetworkSpec
from repro.sweep.cache import shared_cache

__all__ = [
    "FAMILIES",
    "random_instance_spec",
    "classify_point",
    "region_point",
    "mobility_point",
]

#: Topology families ``random_instance_spec`` can draw from (the
#: ``family`` grid axis).  "kronecker" fixes its own node count
#: (``3 ** power``) and ignores ``n``.
FAMILIES = ("gnp", "geometric", "ba", "ws", "kronecker", "config", "er_connected")


def _param(params: Mapping[str, Any], key: str, cast, default):
    """A pinned grid value cast to its type, or ``default()`` when unpinned.

    "Unpinned" means the key is absent, ``None``, or the empty string (a
    ragged zipped axis pads short columns with ``""``) — *not* merely
    falsy: ``p=0`` and ``in_rate=0`` are legitimate pinned values and must
    reach ``cast``, not silently fall back to the default draw.

    A value that will not cast (``--axis n=abc``) is a one-line
    :class:`SweepError`, never a raw ``ValueError`` traceback.
    """
    raw = params.get(key)
    if raw is None or raw == "":
        return cast(default())
    try:
        return cast(raw)
    except (TypeError, ValueError):
        raise SweepError(
            f"sweep param {key}={raw!r} is not a valid {cast.__name__}"
        ) from None


def _family_knobs(family: str, n: int, params: Mapping[str, Any], rng) -> dict:
    """Draw/cast the family-specific knobs (``p``, ``radius``, ...).

    Split from :func:`_family_graph` so the knob draws land in the same
    stream position the gnp-only recipe historically used (between ``n``
    and the terminal counts) — records from old checkpoints stay
    reproducible.
    """
    if family == "gnp":
        return {"p": _param(params, "p", float, lambda: rng.uniform(0.25, 0.6))}
    if family == "geometric":
        return {"radius": _param(params, "radius", float,
                                 lambda: rng.uniform(0.35, 0.55))}
    if family == "ba":
        return {"m_attach": _param(params, "m_attach", int, lambda: 2)}
    if family == "ws":
        k = _param(params, "k", int, lambda: 4)
        k -= k % 2  # Watts-Strogatz needs an even lattice degree < n
        k = max(2, min(k, n - 1 - (n - 1) % 2))
        return {"k": k, "beta": _param(params, "beta", float, lambda: 0.2)}
    if family == "kronecker":
        return {"power": _param(params, "power", int, lambda: 3)}
    if family == "config":
        return {"degree": max(1, min(_param(params, "degree", int, lambda: 3),
                                     n - 1))}
    if family == "er_connected":
        return {}
    raise SweepError(
        f"unknown topology family {family!r}; available: {', '.join(FAMILIES)}"
    )


def _family_graph(family: str, n: int, knobs: Mapping[str, Any], rng):
    """A connected graph of the requested family, from pre-drawn knobs.

    Families whose raw recipe can disconnect (``ws``, ``kronecker``,
    ``config``) are repaired with
    :func:`repro.graphs.generators.connect_components` so every instance
    is simulation-ready.
    """
    sub = int(rng.integers(0, 2**31 - 1))
    if family == "gnp":
        return gen.random_gnp(n, knobs["p"], seed=sub, ensure_connected=True)
    if family == "geometric":
        return gen.random_geometric(n, knobs["radius"], seed=sub,
                                    ensure_connected=True)
    if family == "ba":
        return gen.barabasi_albert(n, min(knobs["m_attach"], n - 1), seed=sub)
    if family == "ws":
        return gen.connect_components(
            gen.watts_strogatz(n, knobs["k"], knobs["beta"], seed=sub), seed=sub
        )
    if family == "kronecker":
        return gen.connect_components(gen.kronecker(knobs["power"]), seed=sub)
    if family == "config":
        d = knobs["degree"]
        degrees = [d] * n
        if (d * n) % 2:
            degrees[0] += 1  # stub count must be even
        return gen.connect_components(
            gen.configuration_model(degrees, seed=sub), seed=sub
        )
    return gen.erdos_renyi_connected(n, seed=sub)


def random_instance_spec(params: Mapping[str, Any], seed: int) -> NetworkSpec:
    """A random connected S-D-network, grid-pinnable in every dimension.

    Recognized params (all optional; unpinned ones are drawn from
    ``seed``): ``family`` (topology family, see :data:`FAMILIES`), ``n``
    (node count), family knobs (``p``, ``radius``, ``m_attach``, ``k``,
    ``beta``, ``power``, ``degree``), ``sources`` / ``sinks`` (terminal
    counts), ``in_rate`` / ``out_rate`` (per-terminal rate ceilings).
    """
    rng = as_generator(derive_seed(seed, "instance"))
    family = str(_param(params, "family", str, lambda: "gnp"))
    n = _param(params, "n", int, lambda: rng.integers(6, 14))
    if n < 2:
        raise SweepError(f"random instance needs n >= 2 nodes, got {n}")
    knobs = _family_knobs(family, n, params, rng)
    k_src = _param(params, "sources", int, lambda: rng.integers(1, 3))
    k_snk = _param(params, "sinks", int, lambda: rng.integers(1, 3))
    in_hi = _param(params, "in_rate", int, lambda: 2)
    out_hi = _param(params, "out_rate", int, lambda: 3)
    if in_hi < 1 or out_hi < 1:
        raise SweepError(
            f"rate ceilings must be >= 1, got in_rate={in_hi} out_rate={out_hi}"
        )
    if k_src < 1:
        raise SweepError(f"random instance needs sources >= 1, got {k_src}")
    if k_snk < 0:
        raise SweepError(f"random instance needs sinks >= 0, got {k_snk}")
    g = _family_graph(family, n, knobs, rng)
    n = g.n  # kronecker fixes its own node count
    if k_src + k_snk > n:
        raise SweepError(
            f"cannot place {k_src} sources + {k_snk} sinks on {n} nodes"
        )
    nodes = rng.permutation(n).tolist()
    # one broadcast draw makes a per-terminal loop's draws, in its order:
    # the sources' rates, then the sinks'
    rates = rng.integers(1, [in_hi + 1] * k_src + [out_hi + 1] * k_snk).tolist()
    in_rates = dict(zip(nodes[:k_src], rates))
    out_rates = {nodes[-(j + 1)]: rates[k_src + j] for j in range(k_snk)}
    return NetworkSpec.classical(g, in_rates, out_rates)


def classify_point(params: dict, seed: int) -> dict:
    """Flow classification only — the cheap half of the region map."""
    spec = random_instance_spec(params, seed)
    report = shared_cache().region(spec)
    return {
        "n": spec.n,
        "m": spec.graph.m,
        "network_class": report.network_class.value,
        "feasible": report.feasible,
        "arrival_rate": str(report.arrival_rate),
        "max_flow": str(report.max_flow_value),
        "f_star": str(report.f_star),
        "lambda_star": str(report.lambda_star),
        "margin": str(report.margin),
    }


def region_point(params: dict, seed: int) -> dict:
    """Classify + simulate one random instance (the Theorem 1 oracle).

    The horizon defaults to :func:`repro.analysis.horizons.suggest_horizon`
    (quadratic in the worst source-sink distance, per E15's build-up law);
    pin ``horizon`` in the grid to override.
    """
    from repro.core import simulate_lgg

    spec = random_instance_spec(params, seed)
    report = shared_cache().region(spec)

    def _suggest():
        from repro.analysis.horizons import suggest_horizon

        return suggest_horizon(spec, settle=1200)

    horizon = _param(params, "horizon", int, _suggest)
    res = simulate_lgg(spec, horizon=horizon, seed=derive_seed(seed, "run"))
    bounded = bool(res.verdict.bounded)
    return {
        "n": spec.n,
        "m": spec.graph.m,
        "network_class": report.network_class.value,
        "feasible": report.feasible,
        "bounded": bounded,
        "diagonal": report.feasible == bounded,
        "lambda_star": str(report.lambda_star),
        "margin": str(report.margin),
        "horizon": int(horizon),
        "delivered": int(res.delivered),
        "peak_queue": int(max(res.trajectory.max_queues)),
    }


def mobility_point(params: dict, seed: int) -> dict:
    """Generate a mobility trace and track feasibility through it.

    Recognized params (all optional): ``model`` (``waypoint`` / ``vforce``
    / ``orbit``), ``n``, ``radius``, ``speed`` (the model's motion knob:
    waypoint speed, virtual-force gain, orbit angular velocity),
    ``pause`` (waypoint only), ``steps``, ``snapshot_every``, ``in_rate``
    / ``out_rate`` (node 0 injects, node n-1 extracts).

    The record carries the trace digest, so any two runs of the same grid
    cell are provably bit-identical.
    """
    from repro.mobility import MobilityTrace, feasibility_timeline, model_by_name

    rng = as_generator(derive_seed(seed, "mobility"))
    model_name = str(_param(params, "model", str, lambda: "waypoint"))
    n = _param(params, "n", int, lambda: int(rng.integers(8, 16)))
    radius = _param(params, "radius", float, lambda: rng.uniform(0.3, 0.5))
    speed = _param(params, "speed", float, lambda: 0.05)
    pause = _param(params, "pause", int, lambda: 0)
    steps = _param(params, "steps", int, lambda: 40)
    every = _param(params, "snapshot_every", int, lambda: 1)
    in_rate = _param(params, "in_rate", int, lambda: 1)
    out_rate = _param(params, "out_rate", int, lambda: 2)

    if model_name == "waypoint":
        model = model_by_name("waypoint", speed=speed, pause=pause)
    elif model_name == "vforce":
        model = model_by_name("vforce", gain=speed)
    else:
        model = model_by_name(model_name, omega=speed)

    trace = MobilityTrace.generate(
        model, n, radius=radius, steps=steps, snapshot_every=every,
        seed=derive_seed(seed, "trace"),
    )
    tl = feasibility_timeline(trace, {0: in_rate}, {trace.n - 1: out_rate})
    first_bad = tl.first_infeasible()
    return {
        "model": model_name,
        "n": int(trace.n),
        "radius": float(radius),
        "speed": float(speed),
        "steps": int(steps),
        "snapshots": len(tl),
        "universe_links": len(trace.universe_keys),
        "arrival_rate": str(tl.arrival),
        "always_feasible": tl.always_feasible,
        "feasible_fraction": tl.feasible_fraction,
        "first_infeasible": -1 if first_bad is None else int(first_bad),
        "warm_solves": tl.warm_solves,
        "cold_solves": tl.cold_solves,
        "digest": trace.digest()[:16],
    }
