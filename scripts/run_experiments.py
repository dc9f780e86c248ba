#!/usr/bin/env python
"""Run the full figure-reproduction suite and persist tables + JSON.

This is the script behind EXPERIMENTS.md: it runs
:func:`repro.experiments.run_suite` (Fig. 4, the ERP sweep behind
Figs. 5, 6a-d and 7a-b, the headline claims and the clustering
ablation) at the chosen scale and writes every table as
``results/<scale>/<name>.txt`` plus ``results/<scale>/results.json``.

Usage:  REPRO_SCALE=paper python scripts/run_experiments.py
"""

import json
import pathlib
import sys
import time

from repro.experiments import current_scale, format_tables, run_suite


def main() -> None:
    scale = current_scale()
    out_dir = pathlib.Path("results") / scale.name
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"scale={scale.name}: {scale.days} days x seeds {scale.seeds}", flush=True)

    t0 = time.time()
    results = run_suite(scale)
    for name, txt in format_tables(results).items():
        (out_dir / f"{name}.txt").write_text(txt + "\n")
        print("\n" + txt, flush=True)

    payload = {
        "scale": scale.name,
        "days": scale.days,
        "seeds": list(scale.seeds),
        **results,
        "elapsed_s": time.time() - t0,
    }
    (out_dir / "results.json").write_text(json.dumps(payload, indent=2))
    print(f"\ndone in {time.time() - t0:.0f}s -> {out_dir}/", flush=True)


if __name__ == "__main__":
    sys.exit(main())
