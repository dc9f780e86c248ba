"""JSON-friendly (de)serialization of configurations and summaries.

Configurations nest frozen dataclasses (charge model, radio, detector);
this module flattens them to plain dicts so runs can be described in
JSON files, launched from the CLI, and archived next to their results.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict

import numpy as np

from ..energy.consumption import NodePowerModel, RadioModel, SensingModel
from ..energy.recharge import ChargeModel
from .config import SimulationConfig
from .metrics import SimulationSummary

__all__ = [
    "config_to_dict",
    "config_from_dict",
    "restore_arrays",
    "snapshot_arrays",
    "summary_to_dict",
]


def config_to_dict(config: SimulationConfig) -> Dict[str, Any]:
    """A plain-dict (JSON-serializable) view of a configuration."""
    return {
        "n_sensors": config.n_sensors,
        "n_targets": config.n_targets,
        "n_rvs": config.n_rvs,
        "side_length_m": config.side_length_m,
        "comm_range_m": config.comm_range_m,
        "sensing_range_m": config.sensing_range_m,
        "sim_time_s": config.sim_time_s,
        "target_period_s": config.target_period_s,
        "threshold_fraction": config.threshold_fraction,
        "rv_moving_cost_j_per_m": config.rv_moving_cost_j_per_m,
        "rv_speed_mps": config.rv_speed_mps,
        "erp": config.erp,
        "adaptive_erp": config.adaptive_erp,
        "rv_depot_dwell_s": config.rv_depot_dwell_s,
        "scheduler": config.scheduler,
        "activation": config.activation,
        "clustering": config.clustering,
        "target_mobility": config.target_mobility,
        "target_speed_mps": config.target_speed_mps,
        "routing_metric": config.routing_metric,
        "battery_capacity_j": config.battery_capacity_j,
        "self_discharge_fraction_per_day": config.self_discharge_fraction_per_day,
        "initial_charge_range": list(config.initial_charge_range),
        "rv_capacity_j": config.rv_capacity_j,
        "tick_s": config.tick_s,
        "dispatch_period_s": config.dispatch_period_s,
        "dispatch_on_idle": config.dispatch_on_idle,
        "seed": config.seed,
        "charge_model": {
            "power_w": config.charge_model.power_w,
            "efficiency": config.charge_model.efficiency,
        },
        "power_model": {
            "packet_rate_hz": config.power_model.packet_rate_hz,
            "payload_bytes": config.power_model.payload_bytes,
            "radio": {
                "tx_current_a": config.power_model.radio.tx_current_a,
                "rx_current_a": config.power_model.radio.rx_current_a,
                "idle_current_a": config.power_model.radio.idle_current_a,
                "voltage_v": config.power_model.radio.voltage_v,
                "bitrate_bps": config.power_model.radio.bitrate_bps,
                "overhead_bytes": config.power_model.radio.overhead_bytes,
            },
            "sensing": {
                "active_current_a": config.power_model.sensing.active_current_a,
                "idle_current_a": config.power_model.sensing.idle_current_a,
                "voltage_v": config.power_model.sensing.voltage_v,
            },
        },
    }


def _build(cls, kwargs: Dict[str, Any], where: str):
    """``cls(**kwargs)``, or ``ValueError`` naming every key ``cls``
    does not take (``where`` names the block in the message)."""
    unknown = sorted(set(kwargs) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")
    return cls(**kwargs)


def config_from_dict(data: Dict[str, Any]) -> SimulationConfig:
    """Rebuild a :class:`SimulationConfig` from :func:`config_to_dict`
    output (missing keys fall back to the defaults).

    Raises ``ValueError`` naming any key no configuration field takes,
    at the top level or in a nested model block.
    """
    data = dict(data)
    charge = data.pop("charge_model", None)
    power = data.pop("power_model", None)
    kwargs: Dict[str, Any] = dict(data)
    if "initial_charge_range" in kwargs:
        kwargs["initial_charge_range"] = tuple(kwargs["initial_charge_range"])
    if charge is not None:
        kwargs["charge_model"] = _build(ChargeModel, charge, "charge_model")
    if power is not None:
        power = dict(power)
        radio = _build(RadioModel, power.pop("radio", {}), "power_model.radio")
        sensing = _build(SensingModel, power.pop("sensing", {}), "power_model.sensing")
        kwargs["power_model"] = _build(
            NodePowerModel, dict(power, radio=radio, sensing=sensing), "power_model"
        )
    return _build(SimulationConfig, kwargs, "config")


def summary_to_dict(summary: SimulationSummary) -> Dict[str, float]:
    """Alias of :meth:`SimulationSummary.as_dict` for API symmetry."""
    return summary.as_dict()


def snapshot_arrays(state) -> Dict[str, np.ndarray]:
    """A flat-array snapshot of one :class:`SimulationState`.

    Every array is copied out of the live state, so two snapshots can
    be compared field-by-field (``np.array_equal``) — the array-path /
    reference-path equivalence tests assert bit-equality of exactly
    this dict.  Works with or without
    ``state.arrays``: the canonical buffers are the source of truth
    either way.
    """
    alive = state.bank.alive_mask()
    snap: Dict[str, np.ndarray] = {
        "time_s": np.array(state.now),
        "levels_j": state.bank.levels_j.copy(),
        "requested": state.requested.copy(),
        "alive": alive,
        "membership": state.cluster_set.membership.copy(),
        "pending_requests": np.asarray(state.requests.node_ids, dtype=np.int64),
    }
    if state.activator is not None:
        snap["active"] = state.activator.active_mask(alive)
    return snap


def restore_arrays(state, snapshot: Dict[str, np.ndarray]) -> None:
    """Write a :func:`snapshot_arrays` dict back into a live state —
    the inverse of the snapshot for the *canonical* buffers.

    Battery levels and request flags are written in place so the SoA
    views established by ``SimulationState.__post_init__`` stay aliased
    to the same memory; the clock is rebased to the snapshot time.

    The derived fields of the snapshot (``alive``, ``membership``,
    ``active``, ``pending_requests``) are not state of their own — they
    live in the cluster set, activator, and request backlog — so the
    full restore (:func:`repro.sim.replay.restore_world`) rebuilds those
    components and then re-derives the fields; this function only
    handles the flat arrays.
    """
    state.bank.levels_j[:] = snapshot["levels_j"]
    state.requested[:] = snapshot["requested"]
    state.sim.now = float(snapshot["time_s"])
