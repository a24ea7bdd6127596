"""A minimal discrete-event kernel: queue plus handler registry.

Events are opaque payloads ordered by (time, sequence number); the
sequence number makes simulation runs deterministic under equal
timestamps.

Payloads are tuples whose first element is the event *kind*; a
:class:`HandlerRegistry` maps kinds to typed handlers so subsystems
(the commit protocols, the failure injector) can add their own event
vocabulary without the core loop enumerating every kind.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

__all__ = ["EventQueue", "HandlerRegistry"]


class EventQueue:
    """A deterministic priority queue of timed events."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Any]] = []
        self._seq = 0

    def push(self, time: float, payload: Any) -> None:
        """Schedule ``payload`` at ``time``.

        Raises:
            ValueError: on negative or non-finite times.
        """
        if not (time >= 0):
            raise ValueError(f"event time must be non-negative, got {time}")
        heapq.heappush(self._heap, (time, self._seq, payload))
        self._seq += 1

    def pop(self) -> tuple[float, Any]:
        """Remove and return the earliest ``(time, payload)``.

        Raises:
            IndexError: when the queue is empty.
        """
        time, _seq, payload = heapq.heappop(self._heap)
        return time, payload

    def peek_time(self) -> float | None:
        """Earliest scheduled time, or None when empty."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class HandlerRegistry:
    """Dispatch table from event kinds to handlers.

    A payload ``(kind, *args)`` is routed to the handler registered for
    ``kind``, called as ``handler(*args)``. Kinds are claimed exactly
    once, so two subsystems cannot silently shadow each other's events.
    """

    # No __slots__: one instance per run, and instrumentation shadows
    # ``dispatch`` per instance — the observer hub, the benchmark's
    # span recorder (perfbench/recorder.py) and the waits-for
    # invariant suite.

    def __init__(self) -> None:
        self._handlers: dict[str, Callable[..., None]] = {}

    def register(self, kind: str, handler: Callable[..., None]) -> None:
        """Claim ``kind`` for ``handler``.

        Raises:
            ValueError: if the kind is already registered.
        """
        if kind in self._handlers:
            raise ValueError(f"event kind {kind!r} already registered")
        self._handlers[kind] = handler

    def dispatch(self, payload: tuple) -> None:
        """Route ``payload`` to its handler.

        Raises:
            RuntimeError: for payloads of unregistered kinds.
        """
        try:
            handler = self._handlers[payload[0]]
        except KeyError:
            raise RuntimeError(f"unknown event {payload!r}") from None
        handler(*payload[1:])

    def kinds(self) -> list[str]:
        """The registered event kinds, sorted."""
        return sorted(self._handlers)

    def __contains__(self, kind: str) -> bool:
        return kind in self._handlers
