"""Incremental rate re-pricing (the batched engine) vs the full pass.

The serial engine runs one full energy recompute per call.  The batched
engine (:mod:`repro.sim.batch`) re-prices only the sensors whose masks
or relay counts changed since the last pass; contract under test: at
the paper's operating point that incremental path is *bit-identical* to
the serial full pass, summary for summary, and it refuses the one model
(battery leakage) with no small dirty set.
"""

import pytest

from repro.obs import Instruments
from repro.sim.batch import _batchable_world
from repro.sim.config import DAY_S, SimulationConfig
from repro.sim.runner import run_batch, run_simulation
from repro.sim.world import World


def _cfg(**overrides):
    base = dict(sim_time_s=3 * DAY_S, seed=7, scheduler="combined", erp=0.6)
    base.update(overrides)
    return SimulationConfig.experiment(**base)


def _incremental_and_full(**overrides):
    cfg = _cfg(**overrides)
    obs = Instruments()
    (incremental,) = run_batch([cfg], debug=False, instruments=obs)
    assert obs.snapshot()["counters"]["batch.cells_batched"] == 1
    return incremental.as_dict(), run_simulation(cfg).as_dict()


@pytest.mark.parametrize("scheduler", ["greedy", "partition", "combined"])
def test_incremental_matches_full_exactly(scheduler):
    fast, full = _incremental_and_full(scheduler=scheduler)
    assert fast == full  # exact float equality, not approx


def test_incremental_matches_full_with_rotation_and_relocation():
    # Shorter target period -> more rotations + relocations (cluster
    # rebuilds), the events the dirty-set diffing must absorb.
    from repro.sim.config import HOUR_S

    fast, full = _incremental_and_full(target_period_s=3 * HOUR_S)
    assert fast == full


def test_leakage_forces_full_recompute():
    # Leakage re-prices every alive sensor from its charge level, so
    # the incremental path must refuse to engage.
    assert _batchable_world(World(_cfg())) is None
    reason = _batchable_world(World(_cfg(self_discharge_fraction_per_day=0.01)))
    assert reason == "battery leakage configured"
