"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — run one simulation and print (or JSON-dump) the summary;
  ``--telemetry DIR`` archives a manifest + instrument exports,
  ``--profile`` prints the cProfile hot spots (under ``--json``, as the
  payload's ``profile`` list).
* ``estimate`` — closed-form deployment estimates, no simulation.
* ``map`` — run part of a simulation and draw the field (ASCII or SVG).
* ``figure`` — regenerate one paper figure's table.
* ``report`` — render an archived telemetry directory as tables.
* ``drift`` — diff two telemetry/manifest directories (or a benchmark
  history file) for metric drift, naming the first diverging event when
  both directories hold an event log; exit 1 when any metric drifted.
* ``postmortem`` — render a flight-recorder bundle (written by
  ``run --postmortem DIR`` or flushed automatically on a crash or
  monitor violation) as a human-readable incident report.
* ``replay`` — restore a bundle's checkpoint and re-execute it
  deterministically, diffing every replayed tick against the recorded
  state digests; exit 1 on divergence.

Every simulation command accepts ``--preset {small,experiment,paper}``
plus individual overrides, or ``--config file.json`` (see
:mod:`repro.sim.serialization`).  Global flags: ``--version`` and
``--log-level`` (configures stdlib ``logging`` for every subcommand).

Each subcommand imports what only it uses (the estimators, the table
renderer, the experiment drivers, the recorder stack) inside its
handler, so ``repro run`` loads the simulator and nothing else.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import List, Optional

from . import __version__
from .registry import ACTIVATORS, EXPORTERS, SCHEDULERS
from .sim.config import DAY_S, SimulationConfig
from .sim.runner import run_simulation, run_with_telemetry
from .sim.serialization import config_from_dict, config_to_dict

__all__ = ["main", "build_parser"]

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")

_PRESETS = {
    "small": SimulationConfig.small,
    "experiment": SimulationConfig.experiment,
    "paper": SimulationConfig.paper,
}


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(_PRESETS), default="small",
                   help="base configuration preset (default: small)")
    p.add_argument("--config", metavar="FILE", help="JSON config file (overrides --preset)")
    # Help text comes from the live registries, so plugin registrations
    # (and future built-ins) show up without editing the CLI.
    p.add_argument("--scheduler", help=" | ".join(SCHEDULERS.names()))
    p.add_argument("--activation", choices=ACTIVATORS.names())
    p.add_argument("--erp", type=float, help="Energy Request Percentage in [0, 1]")
    p.add_argument("--days", type=float, help="simulated horizon in days")
    p.add_argument("--seed", type=int)
    p.add_argument("--rvs", type=int, dest="n_rvs", help="number of recharging vehicles")
    p.add_argument("--sensors", type=int, dest="n_sensors")
    p.add_argument("--targets", type=int, dest="n_targets")


def _build_config(args: argparse.Namespace) -> SimulationConfig:
    if args.config:
        with open(args.config) as f:
            cfg = config_from_dict(json.load(f))
    else:
        cfg = _PRESETS[args.preset]()
    overrides = {}
    for key in ("scheduler", "activation", "erp", "seed", "n_rvs", "n_sensors", "n_targets"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "days", None) is not None:
        overrides["sim_time_s"] = args.days * DAY_S
    return cfg.with_overrides(**overrides) if overrides else cfg


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    manifest = None

    def _run():
        nonlocal manifest
        if args.telemetry:
            exporters = None
            if args.exporters:
                exporters = [e.strip() for e in args.exporters.split(",") if e.strip()]
            summary, manifest = run_with_telemetry(
                cfg, args.telemetry, exporters,
                # An explicit --postmortem arms the recorder even
                # without REPRO_BLACKBOX; the bundle lands at DIR.
                blackbox=True if args.postmortem else None,
                postmortem=args.postmortem,
            )
            return summary
        if args.postmortem:
            from .sim.runner import run_recorded

            return run_recorded(cfg, args.postmortem, strict=args.strict_monitors)
        return run_simulation(cfg)

    # Only armed monitors raise InvariantViolation, so an unarmed run
    # catches nothing here and never loads the monitors.
    violation: tuple = ()
    if args.telemetry or args.postmortem:
        from .obs.monitors import InvariantViolation

        violation = (InvariantViolation,)
    try:
        if args.profile:
            from .utils.profiling import profile_call

            summary, hot_rows = profile_call(_run, top=args.profile_top)
        else:
            summary, hot_rows = _run(), None
    except violation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        if args.postmortem:
            print(f"postmortem bundle written to {args.postmortem} "
                  f"(inspect with `repro postmortem`, re-execute with "
                  f"`repro replay`)", file=sys.stderr)
        return 1
    if args.json:
        payload = {"config": config_to_dict(cfg), "summary": summary.as_dict()}
        if manifest is not None:
            payload["telemetry_dir"] = args.telemetry
        if hot_rows is not None:
            payload["profile"] = [
                {"function": loc, "ncalls": ncalls, "tottime_s": tot, "cumtime_s": cum}
                for loc, ncalls, tot, cum in hot_rows
            ]
        print(json.dumps(payload, indent=2))
        return 0
    from .utils.tables import format_table

    rows = [[k, v] for k, v in summary.as_dict().items()]
    print(format_table(["metric", "value"], rows, precision=4,
                       title=f"{cfg.scheduler} / {cfg.activation} / ERP {cfg.erp}"))
    if manifest is not None:
        print(f"\ntelemetry written to {args.telemetry} "
              f"({', '.join(manifest.exporters)}; manifest.json)")
    if hot_rows is not None:
        prof = [[loc, ncalls, tot, cum] for loc, ncalls, tot, cum in hot_rows]
        print("\n" + format_table(
            ["function", "ncalls", "tottime s", "cumtime s"], prof,
            precision=4, title=f"cProfile: top {len(prof)} by cumulative time",
        ))
    return 0


def _cmd_drift(args: argparse.Namespace) -> int:
    from .obs.drift import (
        diff_metrics,
        event_divergence,
        format_drift,
        load_history_pair,
        load_metrics,
    )

    try:
        if args.b is None:
            a, b = load_history_pair(args.a)
            label_a, label_b = "previous", "latest"
        else:
            a, b = load_metrics(args.a), load_metrics(args.b)
            label_a, label_b = args.a, args.b
    except (FileNotFoundError, ValueError, json.JSONDecodeError) as exc:
        print(f"drift: {exc}", file=sys.stderr)
        return 2
    rows = diff_metrics(a, b, rtol=args.rtol, atol=args.atol,
                        ignore=args.ignore)
    print(format_drift(rows, label_a=label_a, label_b=label_b,
                       show_ok=args.all, rtol=args.rtol, atol=args.atol))
    divergence = event_divergence(args.a, args.b) if args.b is not None else None
    if divergence is not None:
        print("\n" + divergence)
    return 1 if any(r["status"] != "ok" for r in rows) else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .obs.report import format_report, load_report

    try:
        data = load_report(args.directory)
    except FileNotFoundError:
        print(f"no telemetry manifest found under {args.directory!r} "
              f"(expected manifest.json; run `repro run --telemetry DIR` first)",
              file=sys.stderr)
        return 2
    print(format_report(data))
    return 0


def _cmd_postmortem(args: argparse.Namespace) -> int:
    from .obs.blackbox import format_postmortem, load_bundle

    try:
        bundle = load_bundle(args.bundle)
    except (FileNotFoundError, ValueError, json.JSONDecodeError) as exc:
        print(f"postmortem: {exc}", file=sys.stderr)
        return 2
    print(format_postmortem(bundle, max_records=args.records))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .obs.blackbox import load_bundle
    from .sim.replay import format_replay, replay_bundle

    try:
        bundle = load_bundle(args.bundle)
        result = replay_bundle(bundle, to_tick=args.to_tick)
    except (FileNotFoundError, ValueError, json.JSONDecodeError) as exc:
        print(f"replay: {exc}", file=sys.stderr)
        return 2
    print(format_replay(result))
    return 0 if result.ok else 1


def _cmd_estimate(args: argparse.Namespace) -> int:
    from .analysis.estimators import DeploymentModel
    from .utils.tables import format_table

    cfg = _build_config(args)
    model = DeploymentModel.from_config(cfg)
    rows = [
        ["expected cluster size", model.cluster_size],
        ["target coverage probability", model.target_coverage_probability],
        ["member power draw (mW)", model.member_power_w * 1000],
        ["recharge requests / day", model.requests_per_day],
        ["fleet lower bound (RVs)", model.fleet_lower_bound(cfg.charge_model.power_w,
                                                            cfg.rv_speed_mps)],
    ]
    print(format_table(["estimate", "value"], rows, precision=3,
                       title="Closed-form deployment estimates (no simulation)"))
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    from .sim.world import World
    from .viz.ascii import render_field
    from .viz.svg import field_svg, write_svg

    cfg = _build_config(args)
    world = World(cfg)
    horizon = min(args.at_hours * 3600.0, cfg.sim_time_s)
    world.state.sim.run_until(horizon)
    world.energy.advance()
    snap = world.snapshot()
    if args.svg:
        write_svg(args.svg, field_svg(snap, cfg.side_length_m,
                                      sensing_range=cfg.sensing_range_m,
                                      title=f"t = {horizon / 3600:.1f} h"))
        print(f"wrote {args.svg}")
    else:
        print(render_field(snap, cfg.side_length_m))
    return 0


def _jobs_type(value: str) -> int:
    """Parse a ``--jobs`` argument: a positive integer, or ``auto``
    for ``os.cpu_count()``."""
    if value.strip().lower() == "auto":
        return max(1, os.cpu_count() or 1)
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        ) from None
    if jobs < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return jobs


def _apply_jobs(args: argparse.Namespace) -> None:
    """Publish ``--jobs`` as ``REPRO_JOBS`` for the experiment layer.

    The executor consults the environment at each fan-out, so setting
    it here makes every figure/sweep/ablation path under this command
    parallel without threading a parameter through each driver.
    """
    jobs = getattr(args, "jobs", None)
    if jobs is not None:
        if jobs < 1:
            raise SystemExit("--jobs must be >= 1")
        os.environ["REPRO_JOBS"] = str(jobs)


def _cmd_figure(args: argparse.Namespace) -> int:
    from .experiments import (
        current_scale,
        format_fig4,
        format_fig5,
        format_fig7_panel,
        format_panel,
        run_fig4,
        run_fig5,
        run_fig6,
    )
    from .experiments.fig6_schemes import panel_a, panel_b, panel_c, panel_d
    from .experiments.fig7_profit import panel_a as f7a
    from .experiments.fig7_profit import panel_b as f7b

    _apply_jobs(args)
    scale = current_scale()
    fig = args.id
    if fig == "4":
        print(format_fig4(run_fig4(scale)))
    elif fig == "5":
        print(format_fig5(run_fig5(scale)))
    elif fig in ("6a", "6b", "6c", "6d"):
        sweep = run_fig6(scale)
        panel = {"6a": panel_a, "6b": panel_b, "6c": panel_c, "6d": panel_d}[fig]
        print(format_panel(fig[-1], panel(sweep)))
    elif fig in ("7a", "7b"):
        sweep = run_fig6(scale)
        panel = f7a if fig == "7a" else f7b
        print(format_fig7_panel(fig[-1], panel(sweep)))
    else:
        print(f"unknown figure {fig!r}; choose 4, 5, 6a-6d, 7a, 7b", file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments.executor import map_configs
    from .utils.stats import mean_std
    from .utils.tables import format_table

    _apply_jobs(args)
    base = _build_config(args)
    schedulers = [s.strip() for s in args.schedulers.split(",") if s.strip()]
    erps = [float(x) for x in args.erps.split(",") if x.strip()]
    seeds = [int(x) for x in args.seeds.split(",") if x.strip()]
    metric = args.metric
    # One flat grid through the cell executor: store lookups up front,
    # misses fanned out over the pool, results reassembled in order.
    grid = [(erp, sched) for erp in erps for sched in schedulers]
    configs = [
        base.with_overrides(scheduler=sched, erp=erp, seed=seed)
        for erp, sched in grid
        for seed in seeds
    ]
    summaries = map_configs(configs, jobs=getattr(args, "jobs", None))
    headers = ["ERP"] + schedulers
    rows = []
    for i, erp in enumerate(erps):
        row: list = [erp]
        for j in range(len(schedulers)):
            start = (i * len(schedulers) + j) * len(seeds)
            values = [s.as_dict()[metric] for s in summaries[start : start + len(seeds)]]
            m, sd = mean_std(values)
            row.append(f"{m:.4g} +/- {sd:.2g}")
        rows.append(row)
    print(
        format_table(
            headers,
            rows,
            title=f"{metric} vs ERP ({base.sim_time_s / 86400:.1f} days, seeds {seeds})",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WRSN joint charging & activity management (ICPP 2015 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, metavar="LEVEL",
        help=f"configure stdlib logging for all subcommands ({'|'.join(LOG_LEVELS)})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation")
    _add_config_args(p_run)
    p_run.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p_run.add_argument(
        "--telemetry", metavar="DIR",
        help="archive a run manifest + instrument exports into DIR",
    )
    p_run.add_argument(
        "--exporters", metavar="NAMES",
        help=f"comma-separated telemetry exporters (default: all; "
             f"registered: {', '.join(EXPORTERS.names())})",
    )
    p_run.add_argument(
        "--postmortem", metavar="DIR",
        help="arm the flight recorder and write a postmortem bundle to "
             "DIR (guaranteed without --telemetry; with --telemetry, "
             "flushed on failure, violation, or run end)",
    )
    p_run.add_argument(
        "--strict-monitors", action=argparse.BooleanOptionalAction, default=None,
        help="make invariant violations raise (default: REPRO_STRICT_MONITORS)",
    )
    p_run.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the hottest functions",
    )
    p_run.add_argument(
        "--profile-top", type=int, default=15, metavar="N",
        help="rows in the cProfile table (default: 15)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser("report", help="render an archived telemetry directory")
    p_report.add_argument("directory", help="directory written by `repro run --telemetry`")
    p_report.set_defaults(func=_cmd_report)

    p_drift = sub.add_parser(
        "drift", help="compare two telemetry runs (or benchmark history) for metric drift"
    )
    p_drift.add_argument(
        "a", help="telemetry directory, BENCH_*.json, or — with no second "
                  "argument — a benchmark file whose last two history rows are compared",
    )
    p_drift.add_argument(
        "b", nargs="?", default=None,
        help="second telemetry directory or BENCH_*.json to compare against",
    )
    p_drift.add_argument(
        "--rtol", type=float, default=0.05, metavar="R",
        help="relative drift tolerance (default: 0.05)",
    )
    p_drift.add_argument(
        "--atol", type=float, default=1e-9, metavar="A",
        help="absolute drift tolerance (default: 1e-9)",
    )
    p_drift.add_argument(
        "--all", action="store_true",
        help="also list metrics within tolerance (default: drifted/missing only)",
    )
    p_drift.add_argument(
        "--ignore", action="append", default=[], metavar="GLOB",
        help="drop metrics matching this fnmatch pattern from the "
             "comparison (repeatable); use for metrics that only exist "
             "on one side by design, e.g. counter.fleet.rv* across "
             "fleet sizes",
    )
    p_drift.set_defaults(func=_cmd_drift)

    p_pm = sub.add_parser(
        "postmortem", help="render a flight-recorder bundle as an incident report"
    )
    p_pm.add_argument("bundle", help="bundle directory (holds blackbox.json)")
    p_pm.add_argument(
        "--records", type=int, default=12, metavar="N",
        help="flight records to show from the tail of the ring (default: 12)",
    )
    p_pm.set_defaults(func=_cmd_postmortem)

    p_replay = sub.add_parser(
        "replay",
        help="re-execute a bundle deterministically and diff against its digests",
    )
    p_replay.add_argument("bundle", help="bundle directory (holds blackbox.json)")
    p_replay.add_argument(
        "--to-tick", type=int, default=None, metavar="T",
        help="replay up to record seq T (default: the bundle's last record)",
    )
    p_replay.set_defaults(func=_cmd_replay)

    p_est = sub.add_parser("estimate", help="closed-form deployment estimates")
    _add_config_args(p_est)
    p_est.set_defaults(func=_cmd_estimate)

    p_map = sub.add_parser("map", help="draw the field state")
    _add_config_args(p_map)
    p_map.add_argument("--at-hours", type=float, default=6.0,
                       help="simulated hours before taking the snapshot")
    p_map.add_argument("--svg", metavar="FILE", help="write an SVG instead of ASCII")
    p_map.set_defaults(func=_cmd_map)

    p_fig = sub.add_parser("figure", help="regenerate one paper figure (REPRO_SCALE applies)")
    p_fig.add_argument("id", help="4, 5, 6a, 6b, 6c, 6d, 7a or 7b")
    p_fig.add_argument(
        "--jobs", type=_jobs_type, metavar="N",
        help="worker processes for the sweep cells "
             "(N or 'auto'; default: REPRO_JOBS, else 1)",
    )
    p_fig.set_defaults(func=_cmd_figure)

    p_sweep = sub.add_parser("sweep", help="custom ERP x scheduler sweep")
    _add_config_args(p_sweep)
    p_sweep.add_argument(
        "--schedulers", default="greedy,partition,combined",
        help="comma-separated scheduler names",
    )
    p_sweep.add_argument(
        "--erps", default="0,0.2,0.4,0.6,0.8,1.0", help="comma-separated ERP values"
    )
    p_sweep.add_argument(
        "--metric", default="traveling_energy_j",
        help="summary metric to tabulate (see SimulationSummary.as_dict)",
    )
    p_sweep.add_argument(
        "--seeds", default="1,2", help="comma-separated seeds (mean +/- std reported)"
    )
    p_sweep.add_argument(
        "--jobs", type=_jobs_type, metavar="N",
        help="worker processes for the sweep cells "
             "(N or 'auto'; default: REPRO_JOBS, else 1)",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level:
        # force=True so an explicit --log-level wins even if the host
        # process (a test runner, a notebook) already configured logging.
        logging.basicConfig(
            level=getattr(logging, args.log_level),
            format="%(asctime)s %(levelname)-7s %(name)s: %(message)s",
            force=True,
        )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
