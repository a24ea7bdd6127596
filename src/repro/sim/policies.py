"""Contention policies: what to do when a lock request hits a holder.

The *decision* vocabulary is small — wait, abort yourself, abort the
holder — and each classical scheme is a different mapping from the
(requester, holder) timestamp pair to a decision:

* blocking: always WAIT (deadlocks possible — the paper's regime);
* wound-wait [RSL]: older requester wounds (aborts) the holder, younger
  requester waits — no cycles can form, so deadlock-free;
* wait-die [RSL]: older requester waits, younger requester dies
  (aborts itself) — likewise deadlock-free;
* timeout: WAIT, but the runtime arms a timer that aborts the waiter;
* detection: WAIT, and a periodic detector breaks wait-for cycles by
  aborting the youngest participant.

Atomic commit adds a fourth decision: a holder that has *prepared*
(voted in a commit round, :mod:`repro.sim.commit`) can no longer be
unilaterally aborted, so the runtime downgrades ABORT_HOLDER to
WAIT_PREPARED — the requester blocks on the commit coordinator's
decision instead of wounding. The downgrade is safe for liveness
because a prepared transaction always receives a decision in finite
time (the coordinator retries through failures), so it cannot anchor a
permanent wait-for cycle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "BlockingPolicy",
    "Decision",
    "DetectionPolicy",
    "Policy",
    "TimeoutPolicy",
    "WaitDiePolicy",
    "WoundWaitPolicy",
    "make_policy",
    "policy_names",
]


class Decision(enum.Enum):
    """Outcome of a lock conflict.

    WAIT_PREPARED is never produced by a policy directly: the runtime
    substitutes it for ABORT_HOLDER when the holder sits in the
    PREPARED state of an atomic-commit round and therefore must keep
    its locks until the commit decision.
    """

    WAIT = "wait"
    ABORT_SELF = "abort-self"
    ABORT_HOLDER = "abort-holder"
    WAIT_PREPARED = "wait-prepared"


@dataclass(frozen=True)
class Policy:
    """Base policy: metadata plus the conflict rule (always WAIT)."""

    name: str = "blocking"
    uses_timeout: bool = False
    uses_detection: bool = False

    def on_conflict(
        self,
        requester_ts: float,
        holder_ts: float,
    ) -> Decision:
        """Decide a conflict given the two transactions' timestamps.

        Timestamps are first-start times; smaller = older. Retained
        across restarts so both RSL schemes are livelock-free.
        """
        return Decision.WAIT


class BlockingPolicy(Policy):
    """Pure waiting; deadlock possible."""

    def __init__(self) -> None:
        super().__init__(name="blocking")


class WoundWaitPolicy(Policy):
    """Older requester aborts the holder; younger requester waits."""

    def __init__(self) -> None:
        super().__init__(name="wound-wait")

    def on_conflict(self, requester_ts: float, holder_ts: float) -> Decision:
        if requester_ts < holder_ts:
            return Decision.ABORT_HOLDER
        return Decision.WAIT


class WaitDiePolicy(Policy):
    """Older requester waits; younger requester aborts itself."""

    def __init__(self) -> None:
        super().__init__(name="wait-die")

    def on_conflict(self, requester_ts: float, holder_ts: float) -> Decision:
        if requester_ts < holder_ts:
            return Decision.WAIT
        return Decision.ABORT_SELF


class TimeoutPolicy(Policy):
    """Wait, but the runtime aborts waits longer than the deadline."""

    def __init__(self) -> None:
        super().__init__(name="timeout", uses_timeout=True)


class DetectionPolicy(Policy):
    """Wait; a periodic wait-for-graph scan aborts cycle victims."""

    def __init__(self) -> None:
        super().__init__(name="detect", uses_detection=True)


_POLICIES = {
    "blocking": BlockingPolicy,
    "wound-wait": WoundWaitPolicy,
    "wait-die": WaitDiePolicy,
    "timeout": TimeoutPolicy,
    "detect": DetectionPolicy,
}


def policy_names() -> list[str]:
    """The registered policy names, sorted."""
    return sorted(_POLICIES)


def make_policy(name: str) -> Policy:
    """Instantiate a policy by name.

    Raises:
        KeyError: for unknown names (see :func:`policy_names`).
    """
    try:
        return _POLICIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; choose from {policy_names()}"
        ) from None
