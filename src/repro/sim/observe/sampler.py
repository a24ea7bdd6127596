"""Simulated-time metrics: windowed time series from the probe stream.

:class:`MetricsSampler` maintains gauges driven purely by probes —
in-flight transactions (``begin``/``arrive`` up, ``commit`` down),
blocked lock requests and per-site queue depths (``wait``/``unwait``)
— and integrates them over simulated time, closing an aggregation
window every ``window`` time units. Each window records the
time-averaged gauges, the waits-for edge count and lock-queue depths
at window close, and the abort/commit/arrival counts (hence rates) of
the window.

The sampler also mirrors the run loop's steady-state in-flight
integral *exactly*: it advances its clock on the same dispatched
events, with the same warmup gating and the same operand order, so
``timeseries["inflight_area"]`` equals ``SimulationResult.
inflight_area`` bit for bit — the transparency suite pins that
time-averaged concurrency from the series matches the result
aggregate. (The one divergence: a run truncated by ``max_events``
integrates its final event in the run loop but never dispatches it,
so the sampler never sees it.)

The whole series is attached to the result as ``result.timeseries``
(a plain-JSON dict, so it survives ``SimulationResult.to_json()`` and
sweep-worker pickling).
"""

from __future__ import annotations

from repro.sim.observe.probes import ProbeSink

__all__ = ["MetricsSampler"]


class MetricsSampler(ProbeSink):
    """Windowed gauges and rates over simulated time."""

    probe_kinds = frozenset(
        {"event", "wait", "unwait", "arrive", "commit", "abort"}
    )

    def __init__(self, window: float, warmup_time: float = 0.0):
        if window <= 0:
            raise ValueError("metrics window must be positive")
        self.window = float(window)
        self._warmup = warmup_time
        self._sim = None
        # clock mirror of the run loop
        self._last = 0.0
        self.inflight_area = 0.0  # warmup-gated mirror of the result
        # gauges
        self._inflight = 0
        self._blocked = 0
        self._queue_depth: list[int] = []
        # current-window accumulators (full-time, not warmup-gated)
        self._wlast = 0.0
        self._boundary = self.window
        self._win_inflight = 0.0
        self._win_blocked = 0.0
        self._aborts = 0
        self._commits = 0
        self._arrivals = 0
        self.windows: list[dict] = []

    def bind(self, sim) -> None:
        self._sim = sim
        self._queue_depth = [0] * len(sim._site_names)

    # ------------------------------------------------------------------
    # probe stream
    # ------------------------------------------------------------------

    def on_probe(self, kind: str, time: float, args: tuple) -> None:
        if kind == "event":
            # The dispatch probe fires after the run loop advanced
            # _now, so ``time`` is the new clock; integrate the gauges
            # over the elapsed interval before the handlers mutate
            # them — the same order the run loop integrates in.
            last = self._last
            if time > last:
                lo = self._warmup if self._warmup > last else last
                if time > lo:
                    self.inflight_area += self._inflight * (time - lo)
                self._advance(time)
                self._last = time
            if args[0] == "begin":
                self._inflight += 1
        elif kind == "wait":
            self._blocked += 1
            self._queue_depth[args[0]] += 1
        elif kind == "unwait":
            self._blocked -= 1
            self._queue_depth[args[0]] -= 1
        elif kind == "commit":
            self._inflight -= 1
            self._commits += 1
        elif kind == "arrive":
            self._inflight += 1
            self._arrivals += 1
        elif kind == "abort":
            self._aborts += 1

    # ------------------------------------------------------------------
    # window bookkeeping
    # ------------------------------------------------------------------

    def _advance(self, t: float) -> None:
        """Integrate window gauges up to ``t``, closing full windows."""
        while t >= self._boundary:
            boundary = self._boundary
            self._integrate_to(boundary)
            self._close(boundary - self.window, boundary)
        self._integrate_to(t)

    def _integrate_to(self, t: float) -> None:
        dt = t - self._wlast
        if dt > 0:
            self._win_inflight += self._inflight * dt
            self._win_blocked += self._blocked * dt
            self._wlast = t

    def _close(self, t0: float, t1: float) -> None:
        width = t1 - t0
        self.windows.append({
            "t0": t0,
            "t1": t1,
            "inflight_mean": self._win_inflight / width,
            "blocked_mean": self._win_blocked / width,
            "wf_edges": self._edge_count(),
            "queue_depths": list(self._queue_depth),
            "max_queue_depth": max(self._queue_depth, default=0),
            "aborts": self._aborts,
            "commits": self._commits,
            "arrivals": self._arrivals,
            "abort_rate": self._aborts / width,
        })
        self._win_inflight = 0.0
        self._win_blocked = 0.0
        self._aborts = self._commits = self._arrivals = 0
        self._boundary = t1 + self.window

    def _edge_count(self) -> int:
        """Distinct waits-for edges right now.

        Rebuilds the edges of the transactions the lock tables list as
        blocked (cold — once per window close, never per event), so a
        close does not visit every transaction ever injected.
        """
        sim = self._sim
        edges = sim._wait_for_edges(sim._blocked())
        return sum(len(h) for h in edges.values())

    # ------------------------------------------------------------------
    # finalize
    # ------------------------------------------------------------------

    def finalize(self, sim, result) -> None:
        end = sim._now
        t0 = self._boundary - self.window
        if end > t0 or self._aborts or self._commits or self._arrivals:
            # Close the trailing partial window at the run's end time.
            self._integrate_to(end)
            self._close(t0, end if end > t0 else self._boundary)
        result.timeseries = self.series()

    def series(self) -> dict:
        """The time series as a plain-JSON dict."""
        return {
            "window": self.window,
            "warmup_time": self._warmup,
            "inflight_area": self.inflight_area,
            "windows": self.windows,
        }
