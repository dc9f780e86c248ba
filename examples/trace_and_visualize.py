#!/usr/bin/env python
"""Tracing a simulation and visualizing what happened.

Runs one simulation with an event log attached, then:

1. prints an ASCII map of the field mid-run (clusters, duty sensors,
   RVs, base station);
2. prints the backlog-over-time curve as an ASCII chart;
3. writes two SVGs next to this script: the field map and a chart of
   coverage + backlog over time;
4. summarizes the event log (requests, sorties, recharges, deaths).

Run:  python examples/trace_and_visualize.py
"""

import pathlib

from repro import EventLog, SimulationConfig, World
from repro.sim import DAY_S
from repro.viz import field_svg, render_field, render_series, series_svg, write_svg

OUT_DIR = pathlib.Path(__file__).parent


def main() -> None:
    cfg = SimulationConfig.small(scheduler="combined", erp=0.6, sim_time_s=1.5 * DAY_S, seed=21)
    log = EventLog()
    world = World(cfg, log=log)

    # Run halfway, draw the field, then finish the run.
    world.state.sim.run_until(cfg.sim_time_s / 2)
    world.energy.advance()
    snap = world.snapshot()
    print(render_field(snap, cfg.side_length_m, width=64, height=26))
    write_svg(
        OUT_DIR / "field_midrun.svg",
        field_svg(snap, cfg.side_length_m, sensing_range=cfg.sensing_range_m,
                  title=f"Field at t = {world.state.sim.now / 3600:.0f} h"),
    )

    summary = world.run()

    # Time-series views from the log.
    t_b, backlog = log.series_arrays("backlog")
    t_c, coverage = log.series_arrays("coverage")
    hours_b = t_b / 3600.0
    print()
    print(render_series(
        {"backlog": (hours_b, backlog)},
        title="Pending recharge requests over time",
        y_label="requests",
    ))
    write_svg(
        OUT_DIR / "timeseries.svg",
        series_svg(
            {"backlog (requests)": (hours_b, backlog),
             "coverage (frac)": (t_c / 3600.0, coverage)},
            title="Backlog and coverage over time",
            x_label="simulated hours",
        ),
    )

    # Event-log digest.
    print("\n--- event log digest -----------------------------------")
    for kind, count in sorted(log.summary_counts().items()):
        print(f"  {kind:20s} {count}")
    lats = [l / 3600 for _, l in log.request_latencies()]
    if lats:
        print(f"  request latency: mean {sum(lats) / len(lats):.2f} h, max {max(lats):.2f} h")
    print(f"\nfinal summary: {summary.n_recharges} recharges, "
          f"coverage {100 * summary.avg_coverage_ratio:.2f} %, "
          f"RV travel {summary.traveling_distance_m / 1000:.2f} km")
    print(f"SVGs written: {OUT_DIR / 'field_midrun.svg'}, {OUT_DIR / 'timeseries.svg'}")


if __name__ == "__main__":
    main()
