"""The Energy Request Control gate and the recharge backlog.

:class:`RequestGate` owns the base station's view of demand: it runs
the configured ERC policy over the below-threshold mask, releases
requests onto the shared :class:`~repro.core.requests.RechargeNodeList`,
keeps the per-sensor ``requested`` flags, and clears both when an RV
refills a node.  The gate is the scan :func:`~repro.sim.soa.erc_release`
at the policy's ``erp``; adaptive policies get their depletion feedback
and periodic adjustment hook through here as well, so the rest of the
system never touches the ERC object directly.
"""

from __future__ import annotations

import logging

import numpy as np

from ...core.erc import EnergyRequestController
from ...core.requests import RechargeRequest
from ...obs.log import EventKind
from ...registry import ERC_POLICIES, erc_policy_name
from ..soa import erc_gate_constants, erc_release
from .state import SimulationState

__all__ = ["RequestGate"]

logger = logging.getLogger(__name__)


class RequestGate:
    """ERC thresholding + recharge-node-list maintenance.

    Args:
        state: the shared simulation state (the gate maintains
            ``state.requests`` and ``state.requested``).
        erc: an ERC policy (the protocol of
            :data:`repro.registry.ERC_POLICIES`); built from the
            registry (``static`` or ``adaptive`` per the config) when
            omitted.
    """

    def __init__(
        self, state: SimulationState, erc: EnergyRequestController = None
    ) -> None:
        self.s = state
        if erc is None:
            erc = ERC_POLICIES.build(
                erc_policy_name(state.cfg.adaptive_erp), config=state.cfg
            )
        self.erc = erc  # resolves the policy's optional hooks (see erc)
        # The scan inputs right after the last scan's release: a state
        # equal to it releases nothing (see _check).
        self._quiet_key = None
        # The scan's GateConstants and their (cluster epoch, erp).
        self._constants = None
        self._constants_key = None

    @property
    def erc(self) -> EnergyRequestController:
        """The ERC policy.  Setting it resolves its optional
        ``observe_deaths`` / ``maybe_adjust`` hooks once."""
        return self._erc

    @erc.setter
    def erc(self, policy: EnergyRequestController) -> None:
        self._erc = policy
        self._observe = getattr(policy, "observe_deaths", None)
        self._adjust = getattr(policy, "maybe_adjust", None)

    @property
    def requests(self):
        """The base station's pending-request list."""
        return self.s.requests

    @property
    def requested(self):
        """Boolean per sensor: request currently on the list."""
        return self.s.requested

    def check(self) -> bool:
        """Run the ERC gate; returns True if anything was released."""
        log = self.s.log
        if not log.enabled:
            return self._check()
        with log.phase("gate.check") as span:
            released = self._check()
            span.set(released=released)
            return released

    def _check(self) -> bool:
        s = self.s
        a = s.arrays
        # Nodes below the recharge threshold Eth, written into the
        # preallocated gate scratch.
        below = np.less(s.bank.levels_j, s.bank.threshold_j, out=a.below_scratch)
        # The release set is a function of exactly (below, requested,
        # erp, cluster epoch).  Right after a scan's release every
        # sensor it released is listed, so those inputs release
        # nothing: while they recur the scan is skipped.
        erp = self._erc.erp
        key = (below.tobytes(), s.requested.tobytes(), erp, a.cluster_epoch)
        quiet = key == self._quiet_key
        to_release = (
            [] if quiet
            else erc_release(self._gate_constants(), below, s.requested, a.release_scratch)
        )
        if s.monitors.enabled:
            # Independent re-derivation of the max(ceil(nc*K), 1) gate,
            # before the masks below are mutated by the release loop.
            s.monitors.check_erc_release_arrays(
                a.cluster_id, a.sizes, below, s.requested, to_release, erp, s.now,
            )
        if quiet:
            return False
        released = self._release(to_release)
        if released:  # the released sensors are listed now
            key = (key[0], s.requested.tobytes(), erp, key[3])
        self._quiet_key = key
        return released

    def _gate_constants(self):
        """The scan's :class:`~repro.sim.soa.GateConstants`,
        derived once per ``(cluster epoch, erp)``."""
        a = self.s.arrays
        key = (a.cluster_epoch, self.erc.erp)
        if key != self._constants_key:
            self._constants = erc_gate_constants(a.cluster_id, a.sizes, self.erc.erp)
            self._constants_key = key
        return self._constants

    def _release(self, to_release) -> bool:
        """Put ``to_release`` onto the backlog and update all request
        bookkeeping; returns True if anything was released."""
        s = self.s
        bank = s.bank
        for node in to_release:
            request = RechargeRequest(
                node_id=int(node),
                position=s.sensor_pos[node],
                # The node's demand d_i = Ec - level_i (Section IV-A).
                demand_j=float(bank.capacity_j - bank.levels_j[node]),
                cluster_id=s.cluster_set.cluster_of(int(node)),
                release_time_s=s.now,
            )
            s.requests.add(request)
            s.requested[node] = True
            s.metrics.note_request(int(node), s.now)
            if s.log.enabled:
                s.log.emit(s.now, EventKind.REQUEST_RELEASED, int(node), request.demand_j)
        if to_release:
            logger.debug(
                "t=%.0fs: ERC released %d request(s), backlog %d",
                s.now, len(to_release), len(s.requests),
            )
        return bool(to_release)

    def mark_recharged(self, node: int) -> None:
        """Clear a node's request state after an RV refilled it."""
        self.s.requested[node] = False
        self.s.requests.remove(node)  # in case it was still listed
        self.s.metrics.note_recharge(node, self.s.now)

    def note_deaths(self, count: int) -> None:
        """Forward sensor depletions to policies that adapt on them."""
        if self._observe is not None:
            self._observe(count)

    def maybe_adjust(self) -> None:
        """Give adaptive policies their periodic tuning opportunity."""
        if self._adjust is not None:
            self._adjust(self.s.now)
