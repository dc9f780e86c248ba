"""The batched engine's rate recompute vs the serial full pass.

Both engines run one recompute: relay counts as prefix sums over the
routing tree's DFS preorder (:func:`repro.sim.soa.subtree_counts`),
priced by :meth:`repro.sim.components.energy.EnergyAccounting.price`.
The batched engine (:mod:`repro.sim.batch`) runs it row-wise over its
``(B, n)`` stack with the worlds' preorders concatenated.  Contract
under test: at the paper's operating point that batched pass is
*bit-identical* to the serial full pass, summary for summary, and the
engine refuses the one model it does not price (battery leakage).
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


def _batched_and_serial(*configs):
    obs = Instruments()
    batched = run_batch(list(configs), debug=False, instruments=obs)
    assert obs.snapshot()["counters"]["batch.cells_batched"] == len(configs)
    return (
        [s.as_dict() for s in batched],
        [run_simulation(cfg).as_dict() for cfg in configs],
    )


@pytest.mark.parametrize("scheduler", ["greedy", "partition", "combined"])
def test_batched_recompute_matches_serial(scheduler):
    fast, full = _batched_and_serial(_cfg(scheduler=scheduler))
    assert fast == full  # exact float equality, not approx


def test_batched_recompute_matches_serial_with_rotation_and_relocation():
    # Shorter target period -> more rotations + relocations (cluster
    # rebuilds); two seeds share the batch, so the concatenated
    # preorders of two different routing trees are exercised.
    from repro.sim.config import HOUR_S

    fast, full = _batched_and_serial(
        _cfg(target_period_s=3 * HOUR_S), _cfg(target_period_s=3 * HOUR_S, seed=8)
    )
    assert fast == full


def test_leakage_is_not_batched():
    # The batched recompute prices no charge-proportional leakage, so
    # a world with leakage must fall back to the serial engine.
    assert _batchable_world(World(_cfg())) is None
    reason = _batchable_world(World(_cfg(self_discharge_fraction_per_day=0.01)))
    assert reason == "battery leakage configured"


def test_serial_recompute_after_a_batched_tick_reprices(monkeypatch):
    # The batched pass writes every world's rates row itself.  Put the
    # world back on the masks its last *serial* pass priced from: the
    # next serial recompute must still re-price, or it would keep the
    # batched pass's rates for masks they were not priced from.
    from repro.sim.batch import BatchedEngine

    engine = BatchedEngine([_cfg(sim_time_s=DAY_S)], debug=False)
    (world,) = engine.worlds
    energy, arrays = world.energy, world.state.arrays
    serial_rates = energy.rates.copy()
    ptr = arrays.ptr.copy()
    engine.step()
    assert energy.rates.tobytes() != serial_rates.tobytes()  # rotated and re-priced
    assert energy.alive.all()  # no deaths: only the duty moved
    arrays.ptr[...] = ptr
    world.state.activator._actives_key = None  # drop the rotated duty memo
    prices = []
    real_price = energy.price
    monkeypatch.setattr(
        energy, "price", lambda *a, **kw: prices.append(1) or real_price(*a, **kw)
    )
    energy.recompute()
    assert prices == [1]
    assert energy.rates.tobytes() == serial_rates.tobytes()
