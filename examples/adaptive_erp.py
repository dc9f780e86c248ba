#!/usr/bin/env python
"""Adaptive ERP: letting the network find its own K (extension).

The paper tunes the Energy Request Percentage offline, by sweeping it
and looking for the knee (Fig. 5).  The library's
AdaptiveEnergyRequestController automates the search online with an
AIMD loop: K creeps up while no sensor dies and backs off
multiplicatively on depletions.

This example runs static K in {0, 0.4, 0.8} against the adaptive
controller on the same scenario and prints where the controller
settled, its K trajectory, and how its travel/coverage compare.

Run:  python examples/adaptive_erp.py
"""

from repro import SimulationConfig, World
from repro.sim import DAY_S, HOUR_S
from repro.utils.tables import format_table


def scenario(**overrides):
    base = dict(
        sim_time_s=4 * DAY_S,
        target_period_s=24 * HOUR_S,  # clusters persist across cycles
        scheduler="combined",
        seed=17,
    )
    base.update(overrides)
    return SimulationConfig.small(**base)


def main() -> None:
    rows = []
    for erp in (0.0, 0.4, 0.8):
        s = World(scenario(erp=erp)).run()
        rows.append(
            [
                f"static K={erp:.1f}",
                s.traveling_energy_j / 1000.0,
                100 * s.avg_coverage_ratio,
                100 * s.avg_nonfunctional_fraction,
            ]
        )

    world = World(scenario(erp=0.2, adaptive_erp=True))
    s = world.run()
    rows.append(
        [
            f"adaptive (K -> {world.gate.erc.erp:.2f})",
            s.traveling_energy_j / 1000.0,
            100 * s.avg_coverage_ratio,
            100 * s.avg_nonfunctional_fraction,
        ]
    )

    print(
        format_table(
            ["policy", "travel kJ", "coverage %", "nonfunc %"],
            rows,
            precision=2,
            title="Static vs adaptive Energy Request Percentage (4 simulated days)",
        )
    )
    print("\nAdaptive K trajectory (time h -> K):")
    for t, k in world.gate.erc.history:
        print(f"  {t / 3600:6.1f} h : K = {k:.2f}")
    print(
        "\nReading: the controller ratchets K upward while the network is "
        "healthy, capturing the travel savings of a high ERP without the "
        "operator ever sweeping it."
    )


if __name__ == "__main__":
    main()
