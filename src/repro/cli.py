"""Command-line front end.

Usage::

    python -m repro list                 # experiment inventory
    python -m repro run e03 [--full]     # run one experiment, print report
    python -m repro run all              # run everything
    python -m repro simulate --topology grid --rows 4 --cols 4 \
        --source 0 --sink 15 --in-rate 1 --out-rate 2 --horizon 1000
    python -m repro classify --topology path --n 5 --source 0 --sink 4 \
        --in-rate 1 --out-rate 1
    python -m repro region --topology grid --rows 3 --cols 3 \
        --out-rate 2 [--ray 0=3/2] [--json]  # exact frontier
    python -m repro sweep --axis n=8,10,12 --samples 4 --workers 4 \
        --checkpoint region.jsonl
    python -m repro obs trace run.jsonl  # span waterfall from a JSONL trace
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis import summarize
from repro.core import ExtractionMode
from repro.errors import ReproError
from repro.flow import classify_network
from repro.graphs import generators as gen
from repro.network import NetworkSpec, RevelationPolicy

__all__ = ["main", "build_parser"]


def _spec_from_args(args) -> NetworkSpec:
    if args.topology == "path":
        g = gen.path(args.n)
    elif args.topology == "cycle":
        g = gen.cycle(args.n)
    elif args.topology == "grid":
        g = gen.grid(args.rows, args.cols)
    elif args.topology == "complete":
        g = gen.complete(args.n)
    elif args.topology == "gnp":
        g = gen.random_gnp(args.n, args.p, seed=args.seed, ensure_connected=True)
    else:  # pragma: no cover - argparse restricts choices
        raise ReproError(f"unknown topology {args.topology}")
    in_rates = {args.source: args.in_rate}
    out_rates = {args.sink: args.out_rate}
    if getattr(args, "retention", None) is not None:
        return NetworkSpec.generalized(
            g, in_rates, out_rates,
            retention=args.retention,
            revelation=RevelationPolicy(getattr(args, "revelation", "truthful")),
        )
    if getattr(args, "revelation", "truthful") != "truthful":
        raise ReproError(
            "non-truthful revelation requires the generalized model; "
            "pass --retention"
        )
    return NetworkSpec.classical(g, in_rates, out_rates)


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", action="store_true",
                   help="trace the run (in memory unless --trace) and print "
                        "the waterfall of sim.run and its per-stage "
                        "sim.stage spans")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a structured JSONL trace of the run "
                        "(replayable with repro.obs.replay_trace)")


def _run_sink(args):
    """The run's trace sink: the ``--trace`` file, else an in-memory ring
    for ``--profile``, else ``None``."""
    from repro.obs.trace import RingBufferSink, resolve_sink

    sink = resolve_sink(args.trace, "--trace")
    if sink is None and args.profile:
        # the spans come last (the sim.stage rows as the run ends, then
        # sim.run), so a short ring keeps them and drops the step events
        sink = RingBufferSink(capacity=64)
    return sink


def _print_profile(args, sink) -> None:
    """``--profile``: the waterfall of the run's ``sim.run`` span and its
    ``sim.stage`` children, read back from the run's trace."""
    from repro.obs import read_trace
    from repro.obs.spans import render_waterfall

    records = read_trace(args.trace) if args.trace else sink.records
    print()
    print(render_waterfall(
        [r for r in records if r.get("name") in ("sim.run", "sim.stage")]))


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--topology", choices=["path", "cycle", "grid", "complete", "gnp"],
                   default="path")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--cols", type=int, default=3)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--sink", type=int, default=None)
    p.add_argument("--in-rate", type=int, default=1, dest="in_rate")
    p.add_argument("--out-rate", type=int, default=1, dest="out_rate")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LGG routing-stability reproduction (IPPS 2010)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    sub.add_parser("claims", help="the paper's claim inventory and coverage")

    p_run = sub.add_parser("run", help="run an experiment (or 'all')")
    p_run.add_argument("exp_id")
    p_run.add_argument("--full", action="store_true", help="report-quality horizons")
    p_run.add_argument("--seed", type=int, default=0)

    p_sim = sub.add_parser("simulate", help="simulate LGG on a generated network")
    _add_spec_args(p_sim)
    p_sim.add_argument("--horizon", type=int, default=1000)
    _add_obs_args(p_sim)

    p_cls = sub.add_parser("classify", help="Definitions 3-4 classification")
    _add_spec_args(p_cls)

    p_reg = sub.add_parser(
        "region",
        help="exact stability frontier along a ray (breakpoint envelope)",
    )
    _add_spec_args(p_reg)
    p_reg.add_argument("--ray", default=None, metavar="NODE=RATE[,NODE=RATE...]",
                       help="direction in rate space; rates may be exact "
                            "rationals like 3/2 (default: the nominal in-rates)")
    p_reg.add_argument("--json", action="store_true", dest="as_json",
                       help="print the full envelope as JSON")

    p_ens = sub.add_parser(
        "ensemble", help="batched Monte-Carlo replicas (vectorized pipeline)"
    )
    _add_spec_args(p_ens)
    p_ens.add_argument("--horizon", type=int, default=1000)
    p_ens.add_argument("--replicas", type=int, default=16)
    p_ens.add_argument("--loss-p", type=float, default=0.0, dest="loss_p")
    p_ens.add_argument("--extraction",
                       choices=[m.value for m in ExtractionMode],
                       default=ExtractionMode.GREEDY.value)
    p_ens.add_argument("--revelation",
                       choices=[p.value for p in RevelationPolicy],
                       default=RevelationPolicy.TRUTHFUL.value)
    p_ens.add_argument("--retention", type=int, default=None,
                       help="generalized-model retention R (enables lying "
                            "revelation policies and pseudo-sources)")
    p_ens.add_argument("--activation-prob", type=float, default=1.0,
                       dest="activation_prob")
    p_ens.add_argument("--uniform-arrivals", action="store_true",
                       dest="uniform_arrivals",
                       help="uniform [0, in(v)] injections (needs --retention)")
    _add_obs_args(p_ens)

    p_swp = sub.add_parser(
        "sweep",
        help="sharded parameter sweep over random instances "
             "(parallel, cached, crash-safe)",
    )
    p_swp.add_argument("--axis", action="append", default=[], metavar="NAME=V1,V2,...",
                       help="cartesian axis (repeatable); values parse as "
                            "int, float, then string")
    p_swp.add_argument("--zip", action="append", default=[], dest="zip_groups",
                       metavar="A=V1,V2;B=W1,W2",
                       help="lockstep axis group (repeatable)")
    p_swp.add_argument("--samples", type=int, default=1,
                       help="repeats per grid cell (adds a 'sample' axis)")
    p_swp.add_argument("--point", choices=["region", "classify", "mobility"],
                       default="region",
                       help="payload per point: classify+simulate, flow "
                            "classification only, or a mobility-trace "
                            "feasibility timeline")
    p_swp.add_argument("--horizon", type=int, default=None,
                       help="pin the simulation horizon (default: "
                            "suggest_horizon per instance)")
    p_swp.add_argument("--workers", type=int, default=0,
                       help="worker processes (0 = inline serial)")
    p_swp.add_argument("--chunk-size", type=int, default=None, dest="chunk_size")
    p_swp.add_argument("--checkpoint", default=None,
                       help="JSONL result log (appended per point; "
                            "enables --resume)")
    p_swp.add_argument("--resume", action="store_true",
                       help="skip points already in --checkpoint")
    p_swp.add_argument("--seed", type=int, default=0)
    p_swp.add_argument("--trace", default=None, metavar="PATH",
                       help="write the sweep's spans and its sweep_start/"
                            "point_done/chunk_failed events to a JSONL trace")
    p_swp.add_argument("--progress", action="store_true",
                       help="live points/rate/ETA/cache-hit line on stderr")
    p_swp.add_argument("--metrics-out", default=None, dest="metrics_out",
                       metavar="PATH",
                       help="dump the metrics registry in Prometheus text "
                            "format after the sweep")

    p_mob = sub.add_parser(
        "mobility",
        help="generate a mobility trace and render its feasibility timeline",
    )
    p_mob.add_argument("--model", choices=["waypoint", "vforce", "orbit"],
                       default="waypoint")
    p_mob.add_argument("--n", type=int, default=10, help="node count")
    p_mob.add_argument("--radius", type=float, default=0.4,
                       help="communication radius on the unit square")
    p_mob.add_argument("--speed", type=float, default=0.05,
                       help="motion knob: waypoint speed, virtual-force "
                            "gain, or orbit angular velocity")
    p_mob.add_argument("--pause", type=int, default=0,
                       help="waypoint pause steps on arrival")
    p_mob.add_argument("--steps", type=int, default=60,
                       help="simulated motion steps")
    p_mob.add_argument("--snapshot-every", type=int, default=1,
                       dest="snapshot_every",
                       help="sample the link set every k-th step")
    p_mob.add_argument("--source", type=int, default=0)
    p_mob.add_argument("--sink", type=int, default=None)
    p_mob.add_argument("--in-rate", type=int, default=1, dest="in_rate")
    p_mob.add_argument("--out-rate", type=int, default=2, dest="out_rate")
    p_mob.add_argument("--seed", type=int, default=0)

    p_obs = sub.add_parser(
        "obs", help="observability utilities (span traces, waterfalls)"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_tr = obs_sub.add_parser(
        "trace",
        help="render a span waterfall from a JSONL trace file "
             "(a --trace output, a server span artifact, ...)",
    )
    p_tr.add_argument("path", help="JSONL file holding span records")
    p_tr.add_argument("--trace-id", default=None, dest="trace_id",
                      help="render only this trace")
    p_tr.add_argument("--list", action="store_true", dest="list_traces",
                      help="list trace ids and span counts instead of "
                           "rendering waterfalls")

    p_srv = sub.add_parser(
        "serve",
        help="HTTP/JSON simulation service (micro-batching, admission "
             "control, async sweep jobs)",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8421,
                       help="listen port (0 = pick an ephemeral port)")
    p_srv.add_argument("--batch-window", type=float, default=0.01,
                       dest="batch_window", metavar="SECONDS",
                       help="micro-batch coalescing window for /v1/simulate")
    p_srv.add_argument("--max-batch", type=int, default=64, dest="max_batch",
                       help="flush a batch at this size instead of waiting "
                            "out the window")
    p_srv.add_argument("--queue-limit", type=int, default=64, dest="queue_limit",
                       help="max admitted-and-unfinished requests before "
                            "shedding with 429")
    p_srv.add_argument("--rate", type=float, default=0.0,
                       help="token-bucket admission rate in requests/sec "
                            "(0 = no rate gate)")
    p_srv.add_argument("--burst", type=int, default=16,
                       help="token-bucket depth (max back-to-back admits)")
    p_srv.add_argument("--workers", type=int, default=0,
                       help="worker processes behind the asyncio frontend "
                            "(0 = compute in-process on --threads threads); "
                            "classify requests shard by fingerprint across "
                            "workers, each owning a private feasibility cache")
    p_srv.add_argument("--threads", type=int, default=2,
                       help="compute threads of the in-process tier; read "
                            "only with --workers 0 (a worker pool builds no "
                            "thread pool)")
    p_srv.add_argument("--jobs-dir", default=None, dest="jobs_dir",
                       metavar="DIR",
                       help="enable POST /v1/sweeps, persisting jobs here "
                            "(crash-safe; restart resumes)")
    p_srv.add_argument("--max-horizon", type=int, default=20_000,
                       dest="max_horizon",
                       help="largest horizon a /v1/simulate request may ask for")

    return parser


def _parse_axis_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_axis(spec: str) -> tuple[str, list]:
    name, sep, values = spec.partition("=")
    if not sep or not name or not values:
        raise ReproError(f"bad axis {spec!r}; expected NAME=V1,V2,...")
    return name, [_parse_axis_value(v) for v in values.split(",")]


def _run_mobility_command(args) -> int:
    from repro.mobility import MobilityTrace, feasibility_timeline, model_by_name

    if args.model == "waypoint":
        model = model_by_name("waypoint", speed=args.speed, pause=args.pause)
    elif args.model == "vforce":
        model = model_by_name("vforce", gain=args.speed)
    else:
        model = model_by_name("orbit", omega=args.speed)
    trace = MobilityTrace.generate(
        model, args.n, radius=args.radius, steps=args.steps,
        snapshot_every=args.snapshot_every, seed=args.seed,
    )
    sink = args.sink if args.sink is not None else trace.n - 1
    timeline = feasibility_timeline(
        trace, {args.source: args.in_rate}, {sink: args.out_rate},
    )
    links = [e.links for e in timeline.entries]
    print(f"trace: model={args.model} n={trace.n} radius={args.radius} "
          f"steps={args.steps} seed={args.seed}")
    print(f"digest: {trace.digest()}")
    print(f"snapshots: {len(timeline)}  link universe: "
          f"{len(trace.universe_keys)} pairs  links/snapshot: "
          f"min {min(links)}  max {max(links)}")
    print(f"demand: in({args.source})={args.in_rate} -> out({sink})={args.out_rate} "
          f"(arrival {timeline.arrival})")
    # one mark per snapshot: '#' feasible, '.' infeasible, 60 per line
    strip = "".join("#" if e.feasible else "." for e in timeline.entries)
    print("timeline ('#' feasible, '.' infeasible):")
    for i in range(0, len(strip), 60):
        print(f"  t={timeline.entries[i].t:>5}  {strip[i:i + 60]}")
    first_bad = timeline.first_infeasible()
    print(f"feasible: {timeline.feasible_fraction:.1%} of snapshots"
          + ("" if first_bad is None else f"  (first infeasible at t={first_bad})"))
    print(f"solves: {timeline.warm_solves} warm / {timeline.cold_solves} cold")
    return 0


def _run_sweep_command(args) -> int:
    from repro.sweep import (GridSpec, classify_point, mobility_point,
                             region_point, run_sweep, shared_cache)

    if args.samples < 1:
        raise ReproError(f"--samples must be a positive integer, got {args.samples}")
    grid = GridSpec(seed=args.seed)
    for spec in args.axis:
        name, values = _parse_axis(spec)
        grid = grid.cartesian(**{name: values})
    for group in args.zip_groups:
        axes = dict(_parse_axis(part) for part in group.split(";"))
        grid = grid.zipped(**axes)
    if args.samples > 1 or not grid.axis_names:
        grid = grid.cartesian(sample=list(range(args.samples)))

    point_fn = {"region": region_point, "classify": classify_point,
                "mobility": mobility_point}[args.point]
    # a singleton axis, not a closure: point functions must stay picklable,
    # and this way records are identical whatever --workers is
    if args.horizon is not None and args.point == "region":
        grid = grid.cartesian(horizon=[args.horizon])

    restore = None
    if args.progress or args.metrics_out:
        from repro import obs

        restore = obs.configure(metrics=True)
    try:
        run = run_sweep(
            grid, point_fn,
            workers=args.workers,
            chunk_size=args.chunk_size,
            checkpoint=args.checkpoint,
            resume=args.resume,
            trace=args.trace,
            progress=args.progress,
        )
        if args.metrics_out:
            from repro.obs import get_registry

            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(get_registry().render_prometheus())
    finally:
        if restore is not None:
            from repro import obs

            obs.configure(**restore)
    rows = run.rows()
    print(f"sweep: {len(run.records)} points over axes "
          f"{', '.join(grid.axis_names)}")
    print(f"workers: {run.workers}  resumed: {run.resumed}  "
          f"elapsed: {run.elapsed:.2f}s")
    if args.point == "mobility":
        always = sum(1 for r in rows if r["always_feasible"])
        mean_frac = sum(r["feasible_fraction"] for r in rows) / len(rows)
        warm = sum(r["warm_solves"] for r in rows)
        cold = sum(r["cold_solves"] for r in rows)
        print(f"always feasible: {always}/{len(rows)}  "
              f"mean feasible fraction: {mean_frac:.3f}")
        print(f"solves: {warm} warm / {cold} cold")
    else:
        # the summary /v1/sweeps stores for a finished job
        from repro.serve.jobs import summarize_rows

        summary = summarize_rows(rows, args.point)
        if args.point == "region":
            q = summary["confusion"]
            print(f"confusion: feasible/bounded={q['feasible_bounded']}  "
                  f"feasible/divergent={q['feasible_divergent']}  "
                  f"infeasible/bounded={q['infeasible_bounded']}  "
                  f"infeasible/divergent={q['infeasible_divergent']}")
            off = q["feasible_divergent"] + q["infeasible_bounded"]
            print("Theorem 1 diagonal: "
                  + ("intact" if off == 0 else f"BROKEN ({off} off-diagonal)"))
        print("class counts: " + "  ".join(
            f"{k}={v}" for k, v in sorted(summary["class_counts"].items())))
    cache = shared_cache()
    if run.workers == 0 and (cache.hits or cache.misses):
        print(f"feasibility cache: {cache.hits} hits / {cache.misses} misses "
              f"(hit rate {cache.hit_rate:.0%})")
    if args.checkpoint:
        print(f"checkpoint: {args.checkpoint}")
    if args.trace:
        print(f"trace: {args.trace}")
    if args.metrics_out:
        print(f"metrics: {args.metrics_out}")
    return 0


def _run_obs_command(args) -> int:
    from repro.obs import read_trace
    from repro.obs.spans import render_waterfall, span_records

    try:
        records = read_trace(args.path)
    except OSError as exc:
        raise ReproError(f"cannot read trace file {args.path}: {exc}") from exc
    spans = span_records(records, args.trace_id)
    if not spans:
        what = (f"trace {args.trace_id!r}" if args.trace_id
                else "any trace")
        raise ReproError(
            f"no span records for {what} in {args.path} "
            f"(did the run have spans enabled?)"
        )
    if args.list_traces:
        counts: dict[str, int] = {}
        for rec in spans:
            counts[rec["trace_id"]] = counts.get(rec["trace_id"], 0) + 1
        for tid, n in counts.items():
            print(f"{tid}  {n} span{'s' if n != 1 else ''}")
        return 0
    print(render_waterfall(spans, args.trace_id))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            from repro.exp import REGISTRY

            for exp_id in sorted(REGISTRY):
                title, _ = REGISTRY[exp_id]
                print(f"{exp_id}  {title}")
            return 0

        if args.command == "claims":
            from repro.analysis.report import format_table
            from repro.paperdata import CLAIMS

            rows = [
                {
                    "id": c.claim_id,
                    "name": c.name,
                    "section": c.section,
                    "status in paper": c.status.value,
                    "experiment": c.experiment or "-",
                }
                for c in CLAIMS
            ]
            print(format_table(rows, title="Paper claim inventory"))
            return 0

        if args.command == "run":
            from repro.exp import REGISTRY, get_experiment, render

            ids = sorted(REGISTRY) if args.exp_id == "all" else [args.exp_id]
            failed = []
            for exp_id in ids:
                result = get_experiment(exp_id)(fast=not args.full, seed=args.seed)
                print(render(result))
                print()
                if not result.passed:
                    failed.append(exp_id)
            if failed:
                print(f"CLAIMS NOT REPRODUCED: {failed}", file=sys.stderr)
                return 1
            return 0

        if args.command == "sweep":
            return _run_sweep_command(args)

        if args.command == "mobility":
            return _run_mobility_command(args)

        if args.command == "obs":
            return _run_obs_command(args)

        if args.command == "serve":
            from repro.serve import ReproServer

            ReproServer(
                host=args.host,
                port=args.port,
                batch_window=args.batch_window,
                max_batch=args.max_batch,
                queue_limit=args.queue_limit,
                rate=args.rate or None,
                burst=args.burst,
                jobs_dir=args.jobs_dir,
                max_horizon=args.max_horizon,
                workers=args.workers,
                threads=args.threads,
            ).run()
            return 0

        if args.sink is None:
            if args.topology == "grid":
                args.sink = args.rows * args.cols - 1
            else:
                args.sink = args.n - 1

        if args.command == "simulate":
            from repro.core import SimulationConfig, Simulator
            from repro.obs.spans import span

            spec = _spec_from_args(args)
            # --trace writes the run's events and its spans to one file
            sink = _run_sink(args)
            try:
                cfg = SimulationConfig(
                    horizon=args.horizon,
                    seed=args.seed,
                    trace=sink,
                )
                sim = Simulator(spec, config=cfg)
                with span("cli.simulate", sink=sink, topology=args.topology,
                          horizon=args.horizon, seed=args.seed):
                    res = sim.run()
            finally:
                if sink is not None:
                    sink.close()
            m = summarize(res)
            print(f"network: {spec}")
            print(f"bounded: {m.bounded}  slope: {m.growth_slope:.4f}")
            print(f"delivered: {m.delivered}/{m.injected} "
                  f"(throughput {m.throughput:.3f}/step)")
            print(f"peak queue: {m.peak_total_queue}  tail mean: {m.tail_mean_queue:.1f}")
            if args.profile:
                _print_profile(args, sink)
            if args.trace:
                print(f"trace: {args.trace}")
            return 0

        if args.command == "ensemble":
            from repro.core import SimulationConfig
            from repro.core.ensemble import EnsembleSimulator
            from repro.obs.spans import span

            spec = _spec_from_args(args)
            sink = _run_sink(args)
            try:
                config = SimulationConfig(
                    extraction=ExtractionMode(args.extraction),
                    activation_prob=args.activation_prob,
                    trace=sink,
                )
                ens = EnsembleSimulator(
                    spec,
                    args.replicas,
                    seed=args.seed,
                    config=config,
                    loss_p=args.loss_p,
                    uniform_arrivals=args.uniform_arrivals,
                )
                with span("cli.ensemble", sink=sink, topology=args.topology,
                          horizon=args.horizon, seed=args.seed,
                          replicas=args.replicas):
                    res = ens.run(args.horizon)
            finally:
                if sink is not None:
                    sink.close()
            final_totals = res.final_queues.sum(axis=1)
            print(f"network: {spec}")
            print(f"replicas: {res.replicas}  horizon: {args.horizon}")
            print(f"bounded fraction: {res.bounded_fraction:.3f}")
            print(f"delivered (mean/replica): {res.delivered.mean():.1f}  "
                  f"lost: {res.lost.mean():.1f}")
            print(f"final total queue: min {final_totals.min()}  "
                  f"mean {final_totals.mean():.1f}  max {final_totals.max()}")
            if args.profile:
                _print_profile(args, sink)
            if args.trace:
                print(f"trace: {args.trace}")
            return 0

        if args.command == "region":
            import json as _json

            from repro.flow import breakpoint_envelope, classify_region
            from repro.serve.codec import parse_direction, region_response

            spec = _spec_from_args(args)
            direction = None
            if args.ray:
                raw = {}
                for part in args.ray.split(","):
                    node, sep, rate = part.partition("=")
                    if not sep:
                        raise ReproError(
                            f"--ray entry {part!r} must be NODE=RATE with an "
                            "integer node and a rational rate (e.g. 0=3/2)")
                    raw[node] = rate
                # the rates /v1/region accepts, with its checks and messages
                direction = parse_direction(raw, spec)
            ext = spec.extended()
            env = breakpoint_envelope(ext, direction)
            report = (classify_region(ext, envelope=env)
                      if direction is None else None)
            if args.as_json:
                print(_json.dumps(region_response(env, report), indent=2))
                return 0
            print(f"network: {spec}")
            print("ray: " + ", ".join(f"{v}={d}" for v, d in env.direction))
            print(f"lambda*: {env.lambda_star}  "
                  f"(exact: lam·ray feasible iff lam <= lambda*)")
            if report is not None:
                print(f"class: {report.network_class.value}  "
                      f"margin: {report.margin}")
            bps = ", ".join(str(b) for b in env.breakpoints) or "(none)"
            print(f"breakpoints: {bps}")
            print(f"f*: {env.f_star}  "
                  f"solves: {env.cold_solves} cold + {env.probes} warm probes")
            print("envelope:")
            for seg in env.segments:
                hi = "inf" if seg.hi is None else seg.hi
                print(f"  [{seg.lo}, {hi}]  v(lam) = {seg.slope}*lam + {seg.intercept}")
            return 0

        if args.command == "classify":
            spec = _spec_from_args(args)
            rep = classify_network(spec.extended())
            print(f"network: {spec}")
            print(f"class: {rep.network_class.value}")
            print(f"arrival rate: {rep.arrival_rate}  max flow: {rep.max_flow_value}  "
                  f"f*: {rep.f_star}")
            if rep.certified_epsilon is not None:
                print(f"certified unsaturation epsilon: {rep.certified_epsilon}")
            print(f"min cut kind: {rep.cut_kind.value}  unique: {rep.unique_min_cut}")
            return 0

        raise ReproError(f"unknown command {args.command}")  # pragma: no cover
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI never shows a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
