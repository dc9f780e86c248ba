"""Named-component registries: the single source of truth for
pluggable simulation pieces.

Schedulers, activation schemes, ERC policies, clustering algorithms and
target-mobility models all register here by name, each with an optional
*schema* describing the configuration knobs its factory consumes.  The
registries replace the if-chains that used to live in
``repro.sim.runner.make_scheduler`` and the name tuples in
``repro.sim.config`` — config validation, the runner, the CLI help
text, the experiment drivers and the benchmarks all consult the same
tables, so a new component is a single registration call away from
being selectable everywhere::

    from repro.registry import SCHEDULERS

    @SCHEDULERS.register("my-scheme", schema={"fleet_size": "RV count"})
    def _build(fleet_size):
        return MyScheduler()

    cfg = SimulationConfig.small(scheduler="my-scheme")  # now valid
    run_simulation(cfg)                                  # uses MyScheduler

Registration is idempotent only when ``replace=True`` is passed;
accidental double registration of the same name raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple

from ._lazy import import_module
from .core.clustering import balanced_clustering, nearest_target_clustering
from .core.erc import AdaptiveEnergyRequestController, EnergyRequestController
from .mobility.targets import TargetProcess

__all__ = [
    "ACTIVATORS",
    "CLUSTERINGS",
    "ComponentSpec",
    "ERC_POLICIES",
    "MOBILITY_MODELS",
    "Registry",
    "SCHEDULERS",
    "erc_policy_name",
]


@dataclass(frozen=True)
class ComponentSpec:
    """One registered component.

    Attributes:
        name: the registry key (what a config string selects).
        factory: callable building a component instance.
        schema: mapping of factory keyword -> human description; the
            "config schema" a caller may pass to :meth:`Registry.build`.
        doc: one-line description (defaults to the factory's docstring).
    """

    name: str
    factory: Callable[..., Any]
    schema: Mapping[str, str] = field(default_factory=dict)
    doc: str = ""


class Registry:
    """A named factory table for one kind of pluggable component.

    Iteration and :meth:`names` preserve registration order, so the
    built-in (paper) components always list before extensions.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._specs: Dict[str, ComponentSpec] = {}

    # -- registration ------------------------------------------------

    def register(
        self,
        name: str,
        factory: Optional[Callable[..., Any]] = None,
        *,
        schema: Optional[Mapping[str, str]] = None,
        doc: str = "",
        replace: bool = False,
    ):
        """Register ``factory`` under ``name``.

        Usable directly (``reg.register("x", build_x)``) or as a
        decorator (``@reg.register("x")``).  Raises ``ValueError`` on a
        duplicate name unless ``replace=True``.
        """

        def _add(fn: Callable[..., Any]) -> Callable[..., Any]:
            if not name or not isinstance(name, str):
                raise ValueError(f"{self.kind} name must be a non-empty string")
            if name in self._specs and not replace:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered; "
                    f"pass replace=True to override"
                )
            lines = (doc or fn.__doc__ or "").strip().splitlines()
            self._specs[name] = ComponentSpec(
                name=name,
                factory=fn,
                schema=dict(schema or {}),
                doc=lines[0] if lines else "",
            )
            return fn

        if factory is not None:
            return _add(factory)
        return _add

    def unregister(self, name: str) -> None:
        """Remove a registration (mainly for tests); raises on unknown."""
        if name not in self._specs:
            raise self.unknown(name)
        del self._specs[name]

    # -- lookup ------------------------------------------------------

    def spec(self, name: str) -> ComponentSpec:
        """The :class:`ComponentSpec` registered under ``name``."""
        try:
            return self._specs[name]
        except KeyError:
            raise self.unknown(name) from None

    def get(self, name: str) -> Callable[..., Any]:
        """The raw factory registered under ``name``."""
        return self.spec(name).factory

    def build(self, name: str, **kwargs: Any) -> Any:
        """Instantiate the component registered under ``name``."""
        return self.spec(name).factory(**kwargs)

    def names(self) -> Tuple[str, ...]:
        """All registered names, in registration order."""
        return tuple(self._specs)

    def unknown(self, name: str) -> ValueError:
        """The error raised (or to raise) for an unknown name.

        The message always lists the currently registered names, so it
        can never drift from the registry contents.
        """
        return ValueError(
            f"unknown {self.kind} {name!r}; registered: {', '.join(self._specs)}"
        )

    def check(self, name: str) -> str:
        """Validate ``name`` is registered; returns it for chaining."""
        if name not in self._specs:
            raise self.unknown(name)
        return name

    # -- container protocol -----------------------------------------

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[str]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {list(self._specs)})"


# ---------------------------------------------------------------------
# The domain registries
# ---------------------------------------------------------------------

#: Recharge schedulers; factories take ``fleet_size`` (the RV count).
SCHEDULERS = Registry("scheduler")

#: Sensor activation schemes; factories take ``cluster_set`` and
#: ``arrays`` (the world's :class:`~repro.sim.soa.StateArrays`) and
#: return an object with the four methods of
#: :class:`repro.sim.soa.RoundRobinActivator`: ``active_mask``,
#: ``active_sensor_per_cluster``, ``covered_mask`` and ``rotate``.
#: ``covered_mask`` must depend only on the alive mask and the cluster
#: epoch: the world derives its coverage metric once per such pair.
#: A ``rotates = False`` attribute skips the tick's rotation.
ACTIVATORS = Registry("activation scheme")

#: Energy Request Control policies; factories take ``config`` and
#: return an object with a validated ``erp`` in ``[0, 1]`` (the gate's
#: ``K``, read on every scan), plus optional ``observe_deaths(count)``
#: and ``maybe_adjust(now_s)`` hooks.
ERC_POLICIES = Registry("ERC policy")

#: Clustering algorithms; the factory *is* the algorithm
#: ``f(sensor_positions, target_positions, sensing_range_m)``.  It must
#: be a pure function of those three arguments (no RNG draw, no global
#: state, no write to its inputs or to the returned ``ClusterSet``):
#: the deployment memo forms each target epoch once and serves its
#: clusters to every world of the deployment that reaches it
#: (:meth:`repro.sim.components.state.StaticNetwork.target_epoch`).
CLUSTERINGS = Registry("clustering algorithm")

#: Target mobility models; factories take ``field``, ``config``, ``rng``.
MOBILITY_MODELS = Registry("target mobility model")


def erc_policy_name(adaptive_erp: bool) -> str:
    """The registered ERC-policy name a configuration selects."""
    return "adaptive" if adaptive_erp else "static"


def _load(target: str) -> Any:
    """The object at ``"module:name"`` (``module`` relative to ``repro``).

    Built-in factories resolve their class through this when they are
    called, so the modules of the schedulers and mobility models a
    process never builds are never imported.  The components every run
    uses (ERC, clustering, the jump model) are imported with this
    module.  The activators are resolved here too:
    they live with the array state they run on, in :mod:`repro.sim.soa`.
    """
    module, _, name = target.partition(":")
    return getattr(import_module(f"{__package__}.{module}"), name)


# -- built-in schedulers (paper first, then extensions) ---------------

_FLEET_SCHEMA = {"fleet_size": "number of recharging vehicles"}

SCHEDULERS.register(
    "greedy",
    lambda fleet_size: _load("core.greedy:GreedyScheduler")(),
    schema=_FLEET_SCHEMA,
    doc="Online Algorithm 2: each RV chases its max-profit node.",
)
SCHEDULERS.register(
    "insertion",
    lambda fleet_size: _load("core.insertion:InsertionScheduler")(),
    schema=_FLEET_SCHEMA,
    doc="Online Algorithm 3: profit-ordered route insertion (single RV).",
)
SCHEDULERS.register(
    "partition",
    # An empty fleet never reaches assign(), so a 1-partition planner
    # is inert — but construction must not blow up for n_rvs = 0.
    lambda fleet_size: _load("core.partition:PartitionScheduler")(max(fleet_size, 1)),
    schema=_FLEET_SCHEMA,
    doc="Partition-Scheme: K-means split, one insertion route per part.",
)
SCHEDULERS.register(
    "combined",
    lambda fleet_size: _load("core.combined:CombinedScheduler")(),
    schema=_FLEET_SCHEMA,
    doc="Combined-Scheme: sequential global insertion over the fleet.",
)
SCHEDULERS.register(
    "fcfs",
    lambda fleet_size: _load("core.extensions:FCFSScheduler")(),
    schema=_FLEET_SCHEMA,
    doc="Extension: serve requests strictly in release order.",
)
SCHEDULERS.register(
    "nearest",
    lambda fleet_size: _load("core.extensions:NearestFirstScheduler")(),
    schema=_FLEET_SCHEMA,
    doc="Extension: each RV repeatedly serves the nearest request.",
)
SCHEDULERS.register(
    "insertion+2opt",
    lambda fleet_size: _load("core.extensions:TwoOptInsertionScheduler")(),
    schema=_FLEET_SCHEMA,
    doc="Extension: Algorithm 3 plus a 2-opt post-pass per route.",
)
SCHEDULERS.register(
    "deadline",
    lambda fleet_size: _load("core.extensions:DeadlineAwareScheduler")(),
    schema=_FLEET_SCHEMA,
    doc="Extension: insertion scheduling with a starvation guard.",
)

# -- built-in activation schemes --------------------------------------

_ACTIVATOR_SCHEMA = {
    "cluster_set": "the current ClusterSet",
    "arrays": "the world's StateArrays (packed clusters, rotation pointers)",
}

ACTIVATORS.register(
    "round_robin",
    lambda cluster_set, arrays: _load("sim.soa:RoundRobinActivator")(cluster_set, arrays),
    schema=_ACTIVATOR_SCHEMA,
    doc="The paper's scheme: one member monitors per rotation slot.",
)
ACTIVATORS.register(
    "full_time",
    lambda cluster_set, arrays: _load("sim.soa:FullTimeActivator")(cluster_set, arrays),
    schema=_ACTIVATOR_SCHEMA,
    doc="Prior-work baseline: every alive member monitors continuously.",
)

# -- built-in ERC policies --------------------------------------------

ERC_POLICIES.register(
    "static",
    lambda config: EnergyRequestController(config.erp),
    schema={"config": "SimulationConfig (reads erp)"},
    doc="Fixed Energy Request Percentage (the paper's ERC).",
)
ERC_POLICIES.register(
    "adaptive",
    lambda config: AdaptiveEnergyRequestController(initial_erp=config.erp),
    schema={"config": "SimulationConfig (reads erp as the AIMD start)"},
    doc="AIMD-tuned ERP (beyond the paper; see repro.core.erc).",
)

# -- built-in clustering algorithms -----------------------------------

CLUSTERINGS.register(
    "balanced",
    balanced_clustering,
    schema={
        "sensor_positions": "(n, 2) alive-sensor coordinates",
        "target_positions": "(m, 2) target coordinates",
        "sensing_range_m": "detection radius",
    },
)
CLUSTERINGS.register(
    "nearest_target",
    nearest_target_clustering,
    schema={
        "sensor_positions": "(n, 2) alive-sensor coordinates",
        "target_positions": "(m, 2) target coordinates",
        "sensing_range_m": "detection radius",
    },
)

# -- built-in target mobility models ----------------------------------

MOBILITY_MODELS.register(
    "jump",
    lambda field, config, rng: TargetProcess(
        field, config.n_targets, config.target_period_s, rng
    ),
    schema={"field": "the sensing Field", "config": "SimulationConfig", "rng": "Generator"},
    doc="The paper's model: targets teleport every dwell period.",
)
MOBILITY_MODELS.register(
    "waypoint",
    lambda field, config, rng: _load("mobility.waypoint:RandomWaypointProcess")(
        field,
        config.n_targets,
        config.target_period_s,
        rng,
        speed_mps=config.target_speed_mps,
    ),
    schema={"field": "the sensing Field", "config": "SimulationConfig", "rng": "Generator"},
    doc="Random-waypoint motion with per-leg speed (extension).",
)
