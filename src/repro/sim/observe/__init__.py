"""Observability: probes, tracing, metrics, flight recorder.

The package splits into the attach-time wiring
(:mod:`~repro.sim.observe.probes` — :class:`ObserveConfig`,
:class:`ObserverHub`, :class:`ProbeSink`) and four stock consumers:

* :class:`EventTracer` (:mod:`~repro.sim.observe.trace`) — bounded
  ring buffer of structured events with JSONL and Chrome
  ``trace_event`` exporters;
* :class:`MetricsSampler` (:mod:`~repro.sim.observe.sampler`) —
  windowed simulated-time series of concurrency, blocking, waits-for
  pressure, queue depths, and abort rates, attached to the result as
  ``result.timeseries``;
* :class:`FlightRecorder` (:mod:`~repro.sim.observe.flight`) —
  anomaly-triggered dumps of the last-N events plus a waits-for DOT
  snapshot;
* :class:`LatencyAttribution` (:mod:`~repro.sim.observe.attribution`)
  — critical-path latency attribution: conserved per-transaction
  segment decomposition, per-cell contention profiles with
  hot-entity/convoy detection, a time-weighted blame graph, and
  abort-cost accounting, attached as ``result.attribution`` (online)
  or replayed over a saved JSONL trace (``repro analyze``).

Enable any of them through ``SimulationConfig(observe=
ObserveConfig(...))``. With the field unset nothing attaches: the
per-event path has no check at all, and counter bumps and lifecycle
points test one empty probe slot (see the
:mod:`~repro.sim.observe.probes` docstring).
``ObserveConfig(sample_every=N)`` bounds the traced-run overhead by
1-in-N transaction sampling of the tracer and attribution streams.
"""

from repro.sim.observe.attribution import (
    LatencyAttribution,
    LatencyAttributor,
)
from repro.sim.observe.flight import FlightRecorder
from repro.sim.observe.probes import ObserveConfig, ObserverHub, ProbeSink
from repro.sim.observe.sampler import MetricsSampler
from repro.sim.observe.trace import EventTracer

__all__ = [
    "EventTracer",
    "FlightRecorder",
    "LatencyAttribution",
    "LatencyAttributor",
    "MetricsSampler",
    "ObserveConfig",
    "ObserverHub",
    "ProbeSink",
]
