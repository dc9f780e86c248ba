"""``repro top``: a live terminal dashboard over the ``/statusz`` feed.

Polls a ``repro serve --live-port`` endpoint and renders per-worker
utilization, throughput counters, latency histogram summaries and the
in-flight job's progress — the operator's ``top`` for a sweep fleet.
Uses :mod:`curses` when a real terminal is attached; ``--plain`` (or a
dumb/absent terminal, or a finite ``--frames`` run in CI) prints each
frame to stdout instead, so the command renders anywhere without
hanging.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional

__all__ = ["fetch_status", "format_frame", "run_top"]


def fetch_status(url: str, timeout_s: float = 2.0) -> Dict[str, Any]:
    """One ``/statusz`` poll, parsed (raises URLError on a dead plane)."""
    with urllib.request.urlopen(f"{url}/statusz", timeout=timeout_s) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _fmt_rate(value: float) -> str:
    return f"{value:,.0f}" if value >= 10 else f"{value:.2f}"


def _fmt_hist(name: str, row: Dict[str, Any]) -> str:
    count = row.get("count", 0)
    mean = row.get("mean", row.get("mean_s", 0.0))
    mx = row.get("max", row.get("max_s", 0.0))
    return f"  {name:<28} n={count:<8} mean={mean * 1000:9.2f}ms max={mx * 1000:9.2f}ms"


def format_frame(status: Dict[str, Any], width: int = 100) -> List[str]:
    """Render one ``/statusz`` payload as display lines.

    Pure function of the payload (plus the clock for the header), so
    the plain and curses paths — and the tests — share one renderer.
    """
    lines: List[str] = []
    service = status.get("service", {})
    health = status.get("health", {})
    state = health.get("status", "?")
    lines.append(
        f"repro top — {time.strftime('%H:%M:%S')}  "
        f"status={state}  jobs={service.get('jobs', '?')}  "
        f"requests={service.get('requests_served', 0)}"
    )
    lines.append("-" * min(width, 100))

    current = status.get("current")
    if current:
        done = current.get("completed", 0)
        cells = max(1, current.get("cells", 1))
        frac = done / cells
        bar_w = 40
        bar = "#" * int(frac * bar_w) + "." * (bar_w - int(frac * bar_w))
        lines.append(
            f"in-flight {current.get('op', '?')}: [{bar}] "
            f"{done}/{current.get('cells', 0)} cells  "
            f"sources={json.dumps(current.get('sources', {}), sort_keys=True)}"
        )
    else:
        lines.append("in-flight: (idle)")

    counters = service.get("counters", {})
    pool = service.get("pool", {})
    store = service.get("store", {})
    lines.append(
        f"pool: alive={pool.get('workers_alive', 0)}  "
        f"tasks={pool.get('tasks', 0)}  warm_hits={pool.get('warm_hits', 0)}  "
        f"respawns={pool.get('respawns', 0)}"
    )
    if store:
        lines.append(
            f"store: entries={store.get('entries', 0)}  "
            f"bytes={store.get('bytes', 0):,}  hits={store.get('hits', 0)}  "
            f"misses={store.get('misses', 0)}  puts={store.get('puts', 0)}"
        )
    cells_total = counters.get("executor.cells", 0)
    lines.append(
        f"executor: cells={cells_total:g}  "
        f"store_hits={counters.get('executor.store_hits', 0):g}  "
        f"misses={counters.get('executor.cache_misses', 0):g}"
    )

    workers = status.get("workers") or {}
    if workers:
        lines.append("")
        lines.append(f"{'WID':>4} {'TASKS':>8} {'SHARE':>7} {'MAXRSS':>10}  DELTAS")
        total_deltas = sum(r.get("deltas", 0) for r in workers.values()) or 1
        for wid in sorted(workers, key=lambda w: int(w)):
            row = workers[wid]
            w_tasks = row.get("counters", {}).get("worker.tasks", 0)
            rss_kb = row.get("gauges", {}).get("worker.maxrss_kb", 0)
            # Utilization proxy: this worker's share of absorbed deltas.
            deltas = row.get("deltas", 0)
            share = 100.0 * deltas / total_deltas
            lines.append(
                f"{wid:>4} {_fmt_rate(w_tasks):>8} {share:>6.1f}% "
                f"{rss_kb / 1024:>9.1f}M  deltas={deltas}"
            )

    hists = status.get("histograms", {})
    if hists:
        lines.append("")
        lines.append("latency:")
        for name in sorted(hists):
            lines.append(_fmt_hist(name, hists[name]))

    slo = status.get("slo")
    if slo:
        lines.append("")
        lines.append("slo:")
        for row in slo:
            mark = "OK " if row.get("ok") else "VIOLATION"
            obs = row.get("observed")
            obs_s = "n/a" if obs is None else f"{obs:.4g}"
            lines.append(
                f"  [{mark}] {row.get('rule')}  observed={obs_s}"
            )
    return lines


def _poll(url: str, interval_s: float) -> Optional[Dict[str, Any]]:
    try:
        return fetch_status(url, timeout_s=max(2.0, interval_s))
    except (urllib.error.URLError, OSError, json.JSONDecodeError):
        return None


def _run_plain(url: str, interval_s: float, frames: Optional[int]) -> int:
    n = 0
    try:
        while frames is None or n < frames:
            if n:
                time.sleep(interval_s)
            status = _poll(url, interval_s)
            if status is None:
                print(
                    f"repro top: no live plane at {url} "
                    "(is `repro serve --live-port` up?)"
                )
                return 1
            print("\n".join(format_frame(status)))
            print()
            n += 1
    except BrokenPipeError:  # downstream pager/head closed: clean exit
        return 0
    return 0


def _run_curses(url: str, interval_s: float, frames: Optional[int]) -> int:
    import curses

    def _main(stdscr) -> int:
        curses.use_default_colors()
        stdscr.nodelay(True)
        stdscr.timeout(int(interval_s * 1000))
        n = 0
        while frames is None or n < frames:
            status = _poll(url, interval_s)
            height, width = stdscr.getmaxyx()
            stdscr.erase()
            if status is None:
                stdscr.addnstr(0, 0, f"no live plane at {url} — retrying", width - 1)
            else:
                for y, line in enumerate(format_frame(status, width=width)):
                    if y >= height - 1:
                        break
                    stdscr.addnstr(y, 0, line, width - 1)
            stdscr.refresh()
            n += 1
            if frames is not None and n >= frames:
                break
            key = stdscr.getch()  # doubles as the frame sleep (timeout)
            if key in (ord("q"), 27):  # q / ESC
                break
        return 0

    return curses.wrapper(_main)


def run_top(
    url: str,
    interval_s: float = 1.0,
    frames: Optional[int] = None,
    plain: bool = False,
) -> int:
    """Run the dashboard; returns a process exit code.

    ``frames`` bounds the run (CI uses ``--frames 2``); ``plain``
    forces the stdout renderer.  Falls back to plain automatically
    when curses is unavailable or stdout is not a terminal, so the
    command never hangs a pipeline.
    """
    import sys

    if not plain:
        try:
            import curses  # noqa: F401
        except ImportError:  # pragma: no cover - stdlib curses missing
            plain = True
        if not sys.stdout.isatty():
            plain = True
    if plain:
        return _run_plain(url, interval_s, frames)
    return _run_curses(url, interval_s, frames)
