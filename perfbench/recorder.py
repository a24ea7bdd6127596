"""Span recorder for the benchmark's traced pass.

It attaches to a constructed :class:`~repro.sim.runtime.Simulator`
from outside the program, through seams the program already exposes:

* the handler registry's ``dispatch`` attribute, which ``Simulator.run``
  honours when an instance attribute shadows it (the observer hub uses
  the same seam). Every event becomes a span named after its kind, and
  the kind's layer is the module that registered its handler.
  ``net_deliver`` re-dispatches its payload through the same attribute,
  so spans nest;
* instance attributes looked up at call time: the commit protocol's
  ``on_execution_complete``/``on_abort``, the replica manager's routing
  and bookkeeping calls, the network's ``transmit``/``suspect_down``
  shadows, the durability manager's ``force``/``flush_pending``, and
  the observer hub's ``finalize``;
* the module globals ``repro.sim.runtime`` calls for its end-of-run
  verdict (``Schedule``, ``is_serializable``, ``find_cycle_ints``).

Spans live in memory (name, start, end, parent). A span's self time is
its duration minus its children's durations; a layer's self time sums
its spans' self times. ``runtime.loop_s`` is what no span covers: the
event loop's own work and the tail of ``run()``. The self times and
``loop_s`` partition ``run_s`` by construction, so what can go wrong
is a span recorded outside its parent (a negative self time) or
outside the run (a negative ``loop_s``); :meth:`SpanRecorder.summary`
reports both for the caller to check.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

# Handler modules -> layer, for kinds dispatched through the registry.
_LAYER_OF_MODULE = (
    ("repro.sim.commit", "commit"),
    ("repro.sim.network", "network"),
    ("repro.sim.durability", "durability"),
    ("repro.sim.failures", "failures"),
    ("repro.sim.replication", "replication"),
    ("repro.sim.arrivals", "arrivals"),
    ("repro.sim.runtime", "runtime"),
)

LAYERS = (
    "runtime", "arrivals", "core", "commit", "network", "durability",
    "failures", "replication", "observe",
)

_REPLICA_CALLS = (
    "read_sids", "write_sids", "on_commit", "on_crash", "on_recover",
    "on_partition_cut", "on_partition_heal", "finalize",
)
_VERDICT_CALLS = ("Schedule", "is_serializable", "find_cycle_ints")


def layer_of_handler(handler) -> str:
    module = getattr(handler, "__module__", "") or ""
    for prefix, layer in _LAYER_OF_MODULE:
        if module.startswith(prefix):
            return layer
    return module or "unknown"


class SpanRecorder:
    """In-memory spans plus exact per-kind dispatch counts."""

    def __init__(self) -> None:
        self._name_ids: dict[str, int] = {}
        self._names: list[str] = []
        self._layers: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.run_s = 0.0
        self._patched: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self._names)
            self._name_ids[name] = nid
            self._names.append(name)
            self._layers.append(layer)
        return nid

    def wrap(self, name: str, layer: str, fn):
        """``fn`` with every call recorded as a span."""
        nid = self._name_id(name, layer)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return spanned

    def _patch(self, owner, attr: str, name: str, layer: str) -> None:
        if not hasattr(owner, "__dict__"):
            # __slots__ instance: wrap the class's function instead (the
            # child process runs one simulation at a time).
            owner = type(owner)
        shadowed = attr in vars(owner)
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original, shadowed))
        setattr(owner, attr, self.wrap(name, layer, original))

    def attach(self, sim) -> None:
        """Install spans on ``sim``; call after construction, before run."""
        registry = sim._registry
        handlers = registry._handlers
        inner = registry.__dict__.get("dispatch")  # the observer's, if any

        def route(payload):
            handlers[payload[0]](*payload[1:])

        spanned = {}

        def dispatch(payload):
            kind = payload[0]
            fn = spanned.get(kind)
            if fn is None:
                fn = spanned[kind] = self.wrap(
                    kind, layer_of_handler(handlers[kind]), inner or route
                )
            fn(payload)

        self._patched.append((registry, "dispatch", inner,
                              inner is not None))
        registry.dispatch = dispatch

        for attr in ("on_execution_complete", "on_abort"):
            self._patch(sim.commit, attr, f"commit.{attr}", "commit")
        for attr in _REPLICA_CALLS:
            self._patch(sim.replicas, attr, f"replicas.{attr}",
                        "replication")
        if sim.network is not None:
            for attr in ("transmit", "suspect_down"):
                self._patch(sim, attr, f"network.{attr}", "network")
        if sim.durability is not None:
            for attr in ("force", "flush_pending"):
                self._patch(sim.durability, attr, f"durability.{attr}",
                            "durability")
        if sim.observe is not None:
            self._patch(sim.observe, "finalize", "observe.finalize",
                        "observe")
            for sink in sim.observe._sinks:
                self._patch(sink, "on_probe",
                            f"observe.{type(sink).__name__}", "observe")
        import repro.sim.runtime as runtime_module

        for attr in _VERDICT_CALLS:
            self._patch(runtime_module, attr, f"core.{attr}", "core")

    def detach(self) -> None:
        """Undo every patch (module globals outlive the simulator)."""
        for owner, attr, original, shadowed in reversed(self._patched):
            if shadowed:
                setattr(owner, attr, original)
            else:
                try:
                    delattr(owner, attr)
                except AttributeError:
                    setattr(owner, attr, original)
        self._patched.clear()

    def run(self, sim):
        """Run ``sim`` under the recorder; returns its result."""
        start = time.perf_counter()
        try:
            result = sim.run()
        finally:
            self.run_s += time.perf_counter() - start
            self.detach()
        return result

    # ------------------------------------------------------------------
    # reduction
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer and per-name self time, exact counts, and the
        smallest self time."""
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        n = len(names)
        child_time = [0.0] * n
        top_level = 0.0
        for idx in range(n):
            duration = ends[idx] - starts[idx]
            parent = parents[idx]
            if parent < 0:
                top_level += duration
            else:
                child_time[parent] += duration
        name_self = [0.0] * len(self._names)
        name_count = Counter()
        min_self = 0.0
        for idx in range(n):
            nid = names[idx]
            self_s = ends[idx] - starts[idx] - child_time[idx]
            name_self[nid] += self_s
            name_count[nid] += 1
            if self_s < min_self:
                min_self = self_s
        layer_self = {layer: 0.0 for layer in LAYERS}
        for nid, self_s in enumerate(name_self):
            layer = self._layers[nid]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_s
        return {
            "run_s": self.run_s,
            # Negative only if a span lies outside the run.
            "loop_s": self.run_s - top_level,
            "spans": n,
            "layer_self_s": layer_self,
            # Negative only if a child span escaped its parent's interval.
            "min_self_s": min_self,
            "names": {
                self._names[nid]: {
                    "layer": self._layers[nid],
                    "count": name_count[nid],
                    "self_s": name_self[nid],
                }
                for nid in range(len(self._names))
            },
        }
