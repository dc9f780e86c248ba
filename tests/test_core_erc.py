"""Unit tests for Energy Request Control (Section III-B).

The gate cases run the scan the request gate uses,
:func:`repro.sim.soa.erc_release`, at the policy's ``erp``.
"""

import numpy as np
import pytest

from repro.core.clustering import Cluster, ClusterSet
from repro.core.erc import (
    EnergyRequestController,
    erc_travel_energy_bound,
    release_count_needed,
)
from repro.sim.soa import StateArrays, erc_gate_constants, erc_release, pack_clusters


def make_cs():
    return ClusterSet([Cluster(0, [0, 1, 2, 3]), Cluster(1, [4, 5])], n_sensors=8)


def release(ctl, cs, below, listed):
    """Sensors the gate releases at ``ctl.erp`` over ``cs``."""
    arrays = StateArrays(cs.n_sensors, 0)
    pack_clusters(cs, arrays)
    constants = erc_gate_constants(cs.membership, arrays.sizes, ctl.erp)
    return erc_release(constants, below, listed, arrays.release_scratch)


class TestReleaseCount:
    def test_zero_erp_releases_on_first(self):
        assert release_count_needed(5, 0.0) == 1

    def test_full_erp_needs_all(self):
        assert release_count_needed(5, 1.0) == 5

    def test_fractional_rounds_up(self):
        assert release_count_needed(5, 0.5) == 3
        assert release_count_needed(4, 0.5) == 2

    def test_empty_cluster(self):
        assert release_count_needed(0, 0.7) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            release_count_needed(-1, 0.5)
        with pytest.raises(ValueError):
            release_count_needed(3, 1.5)


class TestTravelBound:
    def test_k_zero_worst_case(self):
        # 2 * nc * dist * em
        assert erc_travel_energy_bound(4, 100.0, 5.6, 0.0) == pytest.approx(2 * 4 * 100 * 5.6)

    def test_k_one_single_trip(self):
        # 2 * dist * em — one trip serves the whole cluster.
        assert erc_travel_energy_bound(4, 100.0, 5.6, 1.0) == pytest.approx(2 * 100 * 5.6)

    def test_monotone_decreasing_in_k(self):
        vals = [erc_travel_energy_bound(6, 50.0, 5.6, k) for k in (0.0, 0.3, 0.6, 1.0)]
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            erc_travel_energy_bound(3, -1.0, 5.6, 0.5)


class TestController:
    def test_erp_zero_is_immediate(self):
        ctl = EnergyRequestController(0.0)
        below = np.zeros(8, dtype=bool)
        below[1] = True
        out = release(ctl, make_cs(), below, np.zeros(8, dtype=bool))
        assert out == [1]

    def test_gate_holds_until_count(self):
        ctl = EnergyRequestController(0.75)  # needs 3 of 4 in cluster 0
        below = np.zeros(8, dtype=bool)
        below[[0, 1]] = True
        assert release(ctl, make_cs(), below, np.zeros(8, dtype=bool)) == []
        below[2] = True
        assert release(ctl, make_cs(), below, np.zeros(8, dtype=bool)) == [0, 1, 2]

    def test_whole_backlog_released_at_once(self):
        ctl = EnergyRequestController(1.0)
        below = np.zeros(8, dtype=bool)
        below[[4, 5]] = True
        assert release(ctl, make_cs(), below, np.zeros(8, dtype=bool)) == [4, 5]

    def test_already_requested_not_rereleased(self):
        ctl = EnergyRequestController(0.0)
        below = np.zeros(8, dtype=bool)
        below[[0, 1]] = True
        listed = np.zeros(8, dtype=bool)
        listed[0] = True
        assert release(ctl, make_cs(), below, listed) == [1]

    def test_listed_nodes_count_toward_gate(self):
        """A member already on the list still counts as 'below threshold'
        for the percentage."""
        ctl = EnergyRequestController(0.5)  # needs 2 of 4
        below = np.zeros(8, dtype=bool)
        below[[0, 1]] = True
        listed = np.zeros(8, dtype=bool)
        listed[0] = True
        assert release(ctl, make_cs(), below, listed) == [1]

    def test_unclustered_always_release(self):
        ctl = EnergyRequestController(1.0)
        below = np.zeros(8, dtype=bool)
        below[[6, 7]] = True  # unclustered sensors
        assert release(ctl, make_cs(), below, np.zeros(8, dtype=bool)) == [6, 7]

    def test_mask_shape_validation(self):
        ctl = EnergyRequestController(0.5)
        with pytest.raises(ValueError):
            release(ctl, make_cs(), np.zeros(3, dtype=bool), np.zeros(8, dtype=bool))

    def test_erp_validation(self):
        with pytest.raises(ValueError):
            EnergyRequestController(-0.1)
        with pytest.raises(ValueError):
            EnergyRequestController(1.1)

    def test_higher_erp_releases_subset(self):
        """Anything released under a high ERP is also released under a
        lower one (the gate is monotone)."""
        cs = make_cs()
        rng = np.random.default_rng(3)
        for _ in range(20):
            below = rng.random(8) < 0.5
            lo = set(release(EnergyRequestController(0.2), cs, below, np.zeros(8, bool)))
            hi = set(release(EnergyRequestController(0.9), cs, below, np.zeros(8, bool)))
            assert hi <= lo
