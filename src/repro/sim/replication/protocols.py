"""Replica-control protocols: which replicas must a transaction lock?

A protocol is a pure site-selection rule — it owns no state. Given an
entity's ordered replica tuple, the set of sites currently up, and the
set of replicas known stale, it answers two questions:

* :meth:`ReplicaControl.read_sites` — the replicas a *read* must lock
  in shared mode, or None when no legal read set exists right now;
* :meth:`ReplicaControl.write_sites` — the replicas a *write* must
  lock in exclusive mode, or None when the entity is unwritable.

Choices are deterministic (replica-tuple order, primaries preferred),
so a simulation run never consumes randomness here — the bit-identical
reduction at ``replication_factor=1`` and the parallel sweep guarantee
both rest on that.

The registry mirrors :mod:`repro.sim.commit`: protocols register under
a name and the simulator instantiates them from
``SimulationConfig.replica_protocol``.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence

from repro.core.entity import Site

__all__ = [
    "MajorityQuorum",
    "ReadOneWriteAll",
    "ReplicaControl",
    "WriteAllAvailable",
    "make_replica_control",
    "register_replica_control",
    "replica_control_names",
]


def majority(n: int) -> int:
    """The majority quorum size over ``n`` replicas."""
    return n // 2 + 1


class ReplicaControl:
    """Base class for replica-control protocols.

    Attributes:
        name: registry key, also shown in results.
        uses_staleness: True when the protocol's read rule must avoid
            replicas that missed writes (only write-all-available; the
            quorum protocol masks staleness by intersection, and under
            strict ROWA no committed write can ever miss a replica).
    """

    name: str = "?"
    uses_staleness: bool = False

    def read_sites(
        self,
        replicas: Sequence[Site],
        up: Collection[Site],
        stale: Collection[Site],
    ) -> tuple[Site, ...] | None:
        """Sites a read must lock (shared), or None if unavailable.

        Args:
            replicas: the entity's replica sites, primary first.
            up: sites currently up (superset membership test).
            stale: replica sites whose copy missed a committed write.
        """
        raise NotImplementedError

    def write_sites(
        self,
        replicas: Sequence[Site],
        up: Collection[Site],
    ) -> tuple[Site, ...] | None:
        """Sites a write must lock (exclusive), or None if unavailable."""
        raise NotImplementedError


_PROTOCOLS: dict[str, type[ReplicaControl]] = {}


def register_replica_control(
    cls: type[ReplicaControl],
) -> type[ReplicaControl]:
    """Class decorator: add ``cls`` to the protocol registry."""
    _PROTOCOLS[cls.name] = cls
    return cls


def replica_control_names() -> list[str]:
    """The registered protocol names, sorted."""
    return sorted(_PROTOCOLS)


def make_replica_control(name: str) -> ReplicaControl:
    """Instantiate a replica-control protocol by name.

    Raises:
        KeyError: for unknown names.
    """
    try:
        return _PROTOCOLS[name]()
    except KeyError:
        raise KeyError(
            f"unknown replica protocol {name!r}; "
            f"choose from {replica_control_names()}"
        ) from None


@register_replica_control
class ReadOneWriteAll(ReplicaControl):
    """``rowa`` — read any one replica, write all of them.

    Reads are cheap (one shared lock, primary preferred) and always
    current, because a write only ever commits when *every* replica
    took it — which is exactly the protocol's weakness: one crashed
    replica blocks all writes to the entity until it repairs. At
    ``replication_factor=1`` this is the seed simulator's behaviour.
    """

    name = "rowa"

    def read_sites(self, replicas, up, stale):
        for site in replicas:
            if site in up:
                return (site,)
        return None

    def write_sites(self, replicas, up):
        if all(site in up for site in replicas):
            return tuple(replicas)
        return None


@register_replica_control
class WriteAllAvailable(ReplicaControl):
    """``rowa-available`` — write all *available* replicas.

    Writes skip crashed replicas, so one up replica keeps the entity
    writable; the skipped copies are stale until a later write (which
    always targets every up replica) refreshes them. Reads must
    therefore avoid stale replicas: a recovering site serves no reads
    for an entity until it has caught up. Without a catch-up log a
    recovering site cannot know what it missed, so recovery is
    conservative. The crash itself only closes an availability
    interval; the recovery marks every copy the site hosts unvalidated
    (stale to reads) until an anti-entropy scan or a refreshing write
    validates it (see :meth:`~repro.sim.replication.manager.
    ReplicaManager.on_recover`).
    """

    name = "rowa-available"
    uses_staleness = True

    def read_sites(self, replicas, up, stale):
        for site in replicas:
            if site in up and site not in stale:
                return (site,)
        return None

    def write_sites(self, replicas, up):
        sites = tuple(site for site in replicas if site in up)
        return sites or None


@register_replica_control
class MajorityQuorum(ReplicaControl):
    """``quorum`` — majority read and write quorums.

    Any two majorities intersect, so every read quorum contains at
    least one replica that took every committed write — staleness is
    masked by version comparison rather than avoided, and any minority
    of crashed sites is tolerated without reconfiguration. The cost is
    read latency: every read locks a majority instead of one copy.
    """

    name = "quorum"

    def read_sites(self, replicas, up, stale):
        return self._quorum(replicas, up)

    def write_sites(self, replicas, up):
        return self._quorum(replicas, up)

    @staticmethod
    def _quorum(replicas, up):
        need = majority(len(replicas))
        chosen = []
        for site in replicas:
            if site in up:
                chosen.append(site)
                if len(chosen) == need:
                    return tuple(chosen)
        return None
