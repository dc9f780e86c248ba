"""Outside-in span tracer for the benchmark's traced run.

The tracer replaces methods of the simulator, executor, store and pool
classes *at class level* with timing wrappers, so objects built anywhere
after :meth:`Tracer.install` -- including worlds built inside
``map_cells`` -- report through it.  The targets are public, except the
world's event handlers and metric sampler, which are the only boundary
between the event loop and the components.  Nothing under ``src/``
changes.

Every wrapped call records one span ``(name, start, end, parent, op)``
in flat in-memory arrays, written out by :meth:`Tracer.dump` when the
benchmark ends.  A span's *self time* is its duration minus the
durations of the spans it directly contains, so the self times of all
spans inside an op, plus the op's own uncovered remainder, add up to
the op's wall time exactly.
"""

from __future__ import annotations

import functools
import os
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Wrap targets as ``(span name, module path, owner, attribute)``.  An
#: owner of ``None`` wraps a module-level function, which only callers
#: that look the name up through the module at call time will see.
#: Span names are the layer names the benchmark reports.
Target = Tuple[str, str, Optional[str], str]

SIM_TARGETS: List[Target] = [
    ("world.build", "repro.sim.world", "World", "__init__"),
    ("world.run", "repro.sim.world", "World", "run"),
    # The event handlers: engine.loop's self time is run_until minus these.
    ("world.handlers", "repro.sim.world", "World", "_on_tick"),
    ("world.handlers", "repro.sim.world", "World", "_on_dispatch_round"),
    ("world.handlers", "repro.sim.world", "World", "_on_relocate"),
    ("world.handlers", "repro.sim.components.fleet", "FleetController", "_rv_arrive"),
    ("world.handlers", "repro.sim.components.fleet", "FleetController", "_rv_finish_charge"),
    ("world.handlers", "repro.sim.components.fleet", "FleetController", "_rv_home"),
    ("world.handlers", "repro.sim.components.fleet", "FleetController", "_rv_ready"),
    ("engine.loop", "repro.sim.engine", "Simulator", "run_until"),
    ("energy.advance", "repro.sim.components.energy", "EnergyAccounting", "advance"),
    ("energy.recompute", "repro.sim.components.energy", "EnergyAccounting", "recompute"),
    ("energy.handoffs", "repro.sim.components.energy", "EnergyAccounting", "apply_handoffs"),
    ("clusters.rotate", "repro.sim.components.clusters", "ClusterManager", "rotate"),
    ("clusters.relocate", "repro.sim.components.clusters", "ClusterManager", "relocate"),
    ("gate.check", "repro.sim.components.gate", "RequestGate", "check"),
    ("fleet.dispatch", "repro.sim.components.fleet", "FleetController", "dispatch"),
    ("scheduler.assign", "repro.core.greedy", "GreedyScheduler", "assign"),
    ("scheduler.assign", "repro.core.partition", "PartitionScheduler", "assign"),
    ("scheduler.assign", "repro.core.insertion", "InsertionScheduler", "assign"),
    ("metrics.record", "repro.sim.world", "World", "_record_metrics"),
]

EXPERIMENT_TARGETS: List[Target] = [
    ("executor.map", "repro.experiments.executor", None, "map_cells"),
    ("executor.lookup", "repro.experiments.cache", None, "cache_lookup"),
    ("store.get", "repro.experiments.store", "ResultStore", "get"),
    ("store.put", "repro.experiments.store", "ResultStore", "put"),
    ("pool.start", "multiprocessing.pool", "Pool", "__init__"),
    ("pool.wait", "multiprocessing.pool", "Pool", "map"),
    ("pool.stop", "multiprocessing.pool", "Pool", "terminate"),
]

#: Name of the span that brackets one benchmark op; its self time is
#: the part of the op no layer span covers.
OP = "op"


class Tracer:
    """Class-level span wrappers with in-memory span storage.

    Spans are recorded only while an op is open (:meth:`begin_op`), so set-up
    work done with the wrappers installed is not counted.  A call that
    re-enters a span of the same name (a scheduler delegating to its
    base class, say) is folded into the outer span.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        # Open spans as [name id, span index, start, child time].
        self._stack: List[list] = []
        self._op = -1
        self._saved: List[Tuple[object, str, object]] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.enabled = True
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        # Forked pool workers inherit the wrappers; their spans would be
        # lost with the process, so they stop recording.
        self.enabled = False

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- install / uninstall -----------------------------------------

    def install(self, targets) -> None:
        import importlib

        for name, module, owner, attr in targets:
            mod = importlib.import_module(module)
            holder = mod if owner is None else getattr(mod, owner)
            original = holder.__dict__[attr]
            self._saved.append((holder, attr, original))
            setattr(holder, attr, self._wrap(original, self._nid(name)))

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def _wrap(self, fn: Callable, nid: int) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if tracer._op < 0 or not tracer.enabled or stack[-1][0] == nid:
                return fn(*args, **kwargs)
            tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()

        return traced

    # -- spans ------------------------------------------------------------

    def _open(self, nid: int) -> None:
        index = len(self.start)
        parent = self._stack[-1][1] if self._stack else -1
        self.name_id.append(nid)
        self.parent.append(parent)
        self.op_id.append(self._op)
        self.end.append(0.0)
        t = perf_counter()
        self.start.append(t)
        self._stack.append([nid, index, t, 0.0])

    def _close(self) -> float:
        t = perf_counter()
        nid, index, t0, child = self._stack.pop()
        self.end[index] = t
        duration = t - t0
        name = self.names[nid]
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][3] += duration
        return duration

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one benchmark op."""
        self._op = op_id
        self._open(self._nid(OP))

    def end_op(self) -> float:
        """Close the op's root span; returns its wall time."""
        duration = self._close()
        self._op = -1
        return duration

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        """Write every recorded span as flat arrays (``.npz``)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op_id, dtype=np.int32),
        )

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Self time and call count per span name, over every op."""
        return {
            name: {"self_s": self.self_s[name], "calls": self.calls[name]}
            for name in self.self_s
        }
