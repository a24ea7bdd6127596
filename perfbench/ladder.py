"""The rungs of the layer ladder, bottom to top.

Each rung adds one layer to ``stack-chaos`` (see ``workloads.ladder_rung``);
the top rung is ``stack-chaos`` itself. Standard library only, so that
``run.py`` can read it without importing the simulator.
"""

LADDER = ("instant", "paxos", "quorum", "chaos", "durability", "failures")
