"""Ablation A5 — adaptive ERP (AIMD) vs the static sweep.

The paper picks K offline by sweeping Fig. 5; the adaptive controller
searches online. This bench compares the adaptive run against static
K in {0, 0.6, 1.0} on the experiment configuration and reports where
the controller settled.
"""

from repro.experiments import current_scale, run_cell
from repro.utils.tables import format_table

from _shared import emit


def bench_ablation_adaptive_erp(benchmark):
    scale = current_scale()

    def run():
        rows = []
        for erp in (0.0, 0.6, 1.0):
            cell = run_cell(scale, scheduler="combined", erp=erp)
            rows.append(
                [
                    f"static K={erp:.1f}",
                    cell["traveling_energy_j"] / 1e6,
                    100.0 * cell["avg_coverage_ratio"],
                    100.0 * cell["avg_nonfunctional_fraction"],
                ]
            )
        cfg = scale.base_config(scheduler="combined", erp=0.2, adaptive_erp=True)
        final_ks = []
        travel, cov, nonf = [], [], []
        for seed in scale.seeds:
            from repro.sim.world import World

            w = World(cfg.with_overrides(seed=seed))
            s = w.run()
            final_ks.append(w.gate.erc.erp)
            travel.append(s.traveling_energy_j / 1e6)
            cov.append(100.0 * s.avg_coverage_ratio)
            nonf.append(100.0 * s.avg_nonfunctional_fraction)
        n = len(scale.seeds)
        rows.append(
            [
                f"adaptive (K -> {sum(final_ks) / n:.2f})",
                sum(travel) / n,
                sum(cov) / n,
                sum(nonf) / n,
            ]
        )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["policy", "travel (MJ)", "coverage (%)", "nonfunc (%)"],
        rows,
        title="Ablation A5 - adaptive ERP vs static K (combined scheduler)",
    )
    emit("ablation_adaptive_erp", table)
    # The adaptive run must not travel more than the K=0 baseline.
    static0, adaptive = rows[0], rows[-1]
    assert adaptive[1] <= static0[1] * 1.05
