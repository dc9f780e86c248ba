"""Runtime invariant monitors: the simulation's tripwires.

The paper's correctness rests on a handful of invariants that flat
end-of-run counters cannot see being broken mid-run:

* **energy conservation** — every battery's drop over a tick equals
  ``rate * dt`` (up to the clamp at empty and float tolerance);
* **battery bounds** — ``0 <= level <= capacity`` always;
* **alive mask** — the tick's cached alive mask equals ``levels > 0``
  at every energy advance;
* **ERC release threshold** — a cluster's requests are released iff at
  least ``max(ceil(nc * K), 1)`` members sit below threshold
  (Section III-B), and then *all* needy non-listed members release;
* **atomic cluster service** — schedulers that advertise
  ``atomic_cluster_service`` (the Algorithm 3 insertion family) never
  split a cluster's pending requests across a plan boundary;
* **RV capacity** — no plan's travel + delivery cost exceeds the RV's
  energy budget.

A :class:`MonitorSet` attaches to the simulation state next to the
event log; components guard the extra work with ``monitors.enabled``
so the default :class:`NullMonitors` (defined next to ``NULL_LOG`` in
:mod:`repro.obs.log`, re-exported here) costs one attribute load per
touch point.  Violations are recorded on the ``violations`` list,
marked on the run's :class:`~repro.obs.log.EventLog` (its snapshot
counts them under ``monitors.*``), and — with
``REPRO_STRICT_MONITORS=1`` (or ``strict=True``) — raised immediately
as :class:`InvariantViolation` so a broken run fails fast instead of
producing a plausible table.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .log import NULL_LOG, NULL_MONITORS, VIOLATION, NullMonitors

__all__ = [
    "InvariantViolation",
    "MonitorSet",
    "NULL_MONITORS",
    "NullMonitors",
    "strict_monitors_default",
]


class InvariantViolation(AssertionError):
    """A runtime invariant did not hold (raised in strict mode)."""


def strict_monitors_default() -> bool:
    """``REPRO_STRICT_MONITORS=1``: fail fast on any violation."""
    return os.environ.get("REPRO_STRICT_MONITORS", "") not in ("", "0")


class MonitorSet:
    """The active invariant monitors for one run.

    Args:
        log: the run's :class:`~repro.obs.log.EventLog`; each violation
            is marked on it (on the open phase, and counted in its
            snapshot).
        strict: raise :class:`InvariantViolation` on the first
            violation.  ``None`` consults ``REPRO_STRICT_MONITORS``.
        blackbox: a :class:`~repro.obs.blackbox.BlackBoxRecorder`;
            violations are registered on it so a postmortem bundle
            carries them.

    ``REPRO_MONITOR_ATOL_J`` overrides the per-instance energy
    tolerance — its intended use is *forcing* a violation (a negative
    value trips the conservation check on the first advance without
    touching any state) to exercise the postmortem/replay pipeline
    end to end.
    """

    enabled = True

    #: Absolute slack (Joules) for per-sensor energy comparisons.
    ENERGY_ATOL_J = 1e-6
    #: Relative slack for energy comparisons.
    ENERGY_RTOL = 1e-9
    #: Absolute slack (Joules) for plan-cost feasibility.
    PLAN_ATOL_J = 1e-3

    def __init__(
        self,
        log=None,
        strict: Optional[bool] = None,
        blackbox=None,
    ) -> None:
        self.log = log if log is not None else NULL_LOG
        self.strict = strict_monitors_default() if strict is None else bool(strict)
        self.blackbox = blackbox
        atol = os.environ.get("REPRO_MONITOR_ATOL_J")
        if atol is not None:
            self.ENERGY_ATOL_J = float(atol)
        self.violations: List[Dict[str, Any]] = []

    # -- recording ----------------------------------------------------

    def _violate(self, invariant: str, message: str, t: float, **attrs: Any) -> None:
        record: Dict[str, Any] = {
            "invariant": invariant,
            "t": float(t),
            "message": message,
        }
        record.update(attrs)
        self.violations.append(record)
        self.log.mark(VIOLATION, invariant=invariant, t_sim=float(t), message=message)
        if self.blackbox is not None and self.blackbox.enabled:
            self.blackbox.note_violation(record)
        if self.strict:
            raise InvariantViolation(f"[{invariant}] t={t:.1f}s: {message}")

    # -- checks --------------------------------------------------------

    def check_battery_bounds(
        self, levels_j: np.ndarray, capacity_j: float, t: float
    ) -> None:
        """``0 <= level <= capacity`` for every sensor battery."""
        tol = self.ENERGY_ATOL_J
        low = levels_j < -tol
        high = levels_j > capacity_j + tol
        if np.any(low) or np.any(high):
            bad = np.flatnonzero(low | high)
            self._violate(
                "battery_bounds",
                f"{bad.size} battery level(s) outside [0, {capacity_j:g}] "
                f"(sensors {bad[:5].tolist()}, "
                f"levels {levels_j[bad[:5]].tolist()})",
                t,
                sensors=bad[:10].tolist(),
            )

    def check_alive_mask(
        self, alive: np.ndarray, levels_j: np.ndarray, t: float
    ) -> None:
        """The tick's alive mask is exactly ``levels > 0``.

        The energy component keeps one alive mask for the whole tick
        instead of re-deriving it at each use; a level write that skips
        the re-derivation would leave it stale.
        """
        stale = alive != (levels_j > 0.0)
        if np.any(stale):
            idx = np.flatnonzero(stale)
            self._violate(
                "alive_mask",
                f"{idx.size} alive flag(s) disagree with levels > 0 "
                f"(sensors {idx[:5].tolist()}, "
                f"levels {levels_j[idx[:5]].tolist()})",
                t,
                sensors=idx[:10].tolist(),
            )

    def check_energy_conservation(
        self,
        levels_before_j: np.ndarray,
        levels_after_j: np.ndarray,
        rates_w: np.ndarray,
        dt: float,
        t: float,
    ) -> None:
        """Battery drops over an advance must equal ``rate * dt``.

        Sensors clamped at empty may drop *less* than the analytic
        drain; every other sensor must match within float tolerance.
        """
        drop = levels_before_j - levels_after_j
        expected = rates_w * dt
        tol = self.ENERGY_ATOL_J + self.ENERGY_RTOL * np.abs(expected)
        clamped = levels_after_j <= 0.0
        bad = np.abs(drop - expected) > tol
        # Clamped sensors: the drop is capped by what was left — it may
        # fall short of the analytic drain, but never go negative.
        bad &= ~(clamped & (drop >= -tol) & (drop <= expected + tol))
        if np.any(bad):
            idx = np.flatnonzero(bad)
            self._violate(
                "energy_conservation",
                f"{idx.size} battery drop(s) diverge from rate*dt over "
                f"dt={dt:g}s (sensors {idx[:5].tolist()}, "
                f"drop {drop[idx[:5]].tolist()} vs "
                f"expected {expected[idx[:5]].tolist()})",
                t,
                sensors=idx[:10].tolist(),
                dt=float(dt),
            )

    def check_erc_release(
        self,
        cluster_set,
        below_threshold: np.ndarray,
        already_requested: np.ndarray,
        released: Sequence[int],
        erp: float,
        t: float,
    ) -> None:
        """The ERC gate honored ``max(ceil(nc * K), 1)`` for every cluster.

        A cluster releases either every needy non-listed member (gate
        open: needy count at or above the threshold) or none (gate
        closed); unclustered needy sensors always release.
        """
        from ..core.erc import release_count_needed

        below = np.asarray(below_threshold, dtype=bool)
        listed = np.asarray(already_requested, dtype=bool)
        released_set = set(int(n) for n in released)
        for c in cluster_set:
            if c.size == 0:
                continue
            members = np.asarray(c.members)
            needy = members[below[members]]
            expected_open = len(needy) >= release_count_needed(c.size, erp)
            due = set(int(s) for s in needy if not listed[s])
            got = released_set & set(int(m) for m in members)
            if expected_open and got != due:
                self._violate(
                    "erc_release",
                    f"cluster {c.cluster_id} gate open "
                    f"({len(needy)}/{c.size} needy, erp={erp:g}) but released "
                    f"{sorted(got)} instead of {sorted(due)}",
                    t,
                    cluster_id=int(c.cluster_id),
                )
            elif not expected_open and got:
                self._violate(
                    "erc_release",
                    f"cluster {c.cluster_id} released {sorted(got)} with only "
                    f"{len(needy)}/{c.size} needy "
                    f"(threshold {release_count_needed(c.size, erp)}, erp={erp:g})",
                    t,
                    cluster_id=int(c.cluster_id),
                )
        unclustered = ~cluster_set.clustered_mask()
        due_uncl = set(
            int(s) for s in np.flatnonzero(unclustered & below & ~listed)
        )
        got_uncl = released_set & set(int(s) for s in np.flatnonzero(unclustered))
        if got_uncl != due_uncl:
            self._violate(
                "erc_release",
                f"unclustered release mismatch: {sorted(got_uncl)} "
                f"instead of {sorted(due_uncl)}",
                t,
            )

    def check_erc_release_arrays(
        self,
        membership: np.ndarray,
        sizes: np.ndarray,
        below_threshold: np.ndarray,
        already_requested: np.ndarray,
        released: Sequence[int],
        erp: float,
        t: float,
        cluster_set=None,
    ) -> None:
        """Array form of :meth:`check_erc_release` for the SoA engine.

        Re-derives the expected release set with one vectorized pass
        over the flat ``membership`` / ``sizes`` arrays (no per-cluster
        Python loop), so strict-monitor runs don't deoptimize the fast
        tick path.  On a mismatch it delegates to the per-cluster walk
        (when ``cluster_set`` is supplied) to produce the same detailed
        violation messages as the reference path.
        """
        from ..core.erc import release_count_needed

        membership = np.asarray(membership)
        below = np.asarray(below_threshold, dtype=bool)
        listed = np.asarray(already_requested, dtype=bool)
        m = len(sizes)
        clustered = membership >= 0
        needy = below & clustered
        counts = np.bincount(membership[needy], minlength=m)
        need = np.maximum(np.ceil(np.asarray(sizes) * erp).astype(np.int64), 1)
        open_gate = counts >= need
        expected = below & ~listed
        if m:  # a zero-cluster epoch leaves every sensor unclustered
            expected &= ~clustered | open_gate[np.maximum(membership, 0)]
        got = np.zeros(len(membership), dtype=bool)
        rel = np.asarray(list(released), dtype=np.int64)
        got[rel] = True
        if np.array_equal(expected, got):
            # Spot-check the vectorized threshold against the scalar
            # reference on one cluster so the re-derivation itself is
            # anchored (cheap: a single call).
            if m and int(need[0]) != release_count_needed(int(sizes[0]), erp):
                self._violate(
                    "erc_release",
                    f"array threshold {int(need[0])} != scalar "
                    f"release_count_needed({int(sizes[0])}, {erp:g})",
                    t,
                )
            return
        if cluster_set is not None:
            # Divergence: fall back to the slow walk for the detailed
            # per-cluster message the reference check would have given.
            self.check_erc_release(cluster_set, below, listed, released, erp, t)
            return
        diff = np.flatnonzero(expected != got)
        self._violate(
            "erc_release",
            f"release set mismatch on {diff.size} sensor(s) "
            f"(first {diff[:5].tolist()}; erp={erp:g})",
            t,
        )

    def check_plan_capacity(self, plan, view, t: float) -> None:
        """A planned sortie must fit the RV's energy budget."""
        cost = plan.travel_m * view.em_j_per_m + plan.demand_j / view.charge_efficiency
        if cost > view.budget_j + self.PLAN_ATOL_J:
            self._violate(
                "rv_capacity",
                f"RV {view.rv_id} plan costs {cost:.3f} J "
                f"(travel {plan.travel_m:.1f} m + demand {plan.demand_j:.1f} J) "
                f"over budget {view.budget_j:.3f} J",
                t,
                rv_id=int(view.rv_id),
            )

    def check_atomic_service(
        self,
        plan,
        node_cluster: Dict[int, int],
        backlog_per_cluster: Dict[int, int],
        t: float,
        rv_id: Optional[int] = None,
    ) -> None:
        """An insertion-family plan serves whole clusters or none of them.

        ``node_cluster`` maps each backlog node to its cluster at
        release time; ``backlog_per_cluster`` counts the backlog per
        cluster *before* the round's assignments.
        """
        served: Dict[int, int] = {}
        for node in plan.node_ids:
            cid = node_cluster.get(int(node), -1)
            if cid != -1:
                served[cid] = served.get(cid, 0) + 1
        for cid, count in served.items():
            total = backlog_per_cluster.get(cid, count)
            if 0 < count < total:
                self._violate(
                    "atomic_cluster_service",
                    f"plan serves {count}/{total} pending request(s) of "
                    f"cluster {cid}" + (f" (RV {rv_id})" if rv_id is not None else ""),
                    t,
                    cluster_id=int(cid),
                )

    # -- summary -------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Violation totals by invariant (JSON-friendly)."""
        by_invariant: Dict[str, int] = {}
        for v in self.violations:
            by_invariant[v["invariant"]] = by_invariant.get(v["invariant"], 0) + 1
        return {"total": len(self.violations), "by_invariant": by_invariant}

    def describe(self) -> Dict[str, Any]:
        """Strictness + tolerances, as stamped into postmortem bundles
        so a replay can arm identical tripwires without consulting the
        (possibly different) environment."""
        return {
            "strict": self.strict,
            "energy_atol_j": float(self.ENERGY_ATOL_J),
            "energy_rtol": float(self.ENERGY_RTOL),
            "plan_atol_j": float(self.PLAN_ATOL_J),
        }
