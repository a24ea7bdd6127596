"""Adversarial network conditions for the simulator.

Once a :class:`NetworkModel` is attached, the simulator's
:meth:`Simulator.transmit` message seam hands it every cross-site
message, and it applies: per-link delay jitter, i.i.d. drop
probability, duplication probability, and partition episodes —
scripted or Poisson-arriving splits of the site set during which
messages crossing the cut are dropped. All chaos is drawn from a
dedicated RNG stream, so a lossless configuration (the default
``network=None``) is byte-for-byte identical to the perfect network
the simulator always had.

Because messages can now vanish, :mod:`repro.sim.network.retransmit`
provides the substrate that makes the protocols survive it: per-message
sequence numbers, ack tracking, retransmission with exponential backoff
(capped), and duplicate-delivery suppression. The commit protocols'
rounds, Paxos Commit's acceptor fan-out, and the replica-lock fan-out
all ride on it, and timeout-based failure suspicion
(:meth:`Simulator.suspect_down`) replaces the omniscient ``site_is_up()``
checks on the paths a real protocol could not see.
"""

from repro.sim.network.model import NetworkConfig, NetworkModel
from repro.sim.network.retransmit import RetransmitChannel

__all__ = ["NetworkConfig", "NetworkModel", "RetransmitChannel"]
