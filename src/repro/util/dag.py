"""Finite DAGs (partial orders) over integer node ids, bitset-backed.

A :class:`Dag` stores, for every node, its direct successor/predecessor
sets and the full transitive closure (descendant/ancestor bitmasks). The
closure is what the paper's algorithms consume: every precedence test
``u ≺ v`` is one mask probe, and the step-set computations of Section 5
(:mod:`repro.analysis.sets`) reduce to mask sweeps.

The class also provides the order-theoretic enumeration primitives the
exhaustive oracle needs: topological orders, linear extensions, down-sets
(prefixes in the paper's terminology), and minimal elements of a residual
subgraph.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.util.bitset import bits_of, from_indices

__all__ = ["CycleError", "Dag", "DagBuilder"]


class CycleError(ValueError):
    """Raised when an alleged DAG contains a directed cycle."""

    def __init__(self, cycle: Sequence[int]):
        self.cycle = list(cycle)
        super().__init__(f"graph contains a directed cycle: {self.cycle}")


class Dag:
    """An immutable directed acyclic graph over nodes ``0..n-1``.

    Args:
        n: number of nodes.
        arcs: iterable of ``(u, v)`` pairs meaning ``u`` precedes ``v``.

    Raises:
        CycleError: if the arcs contain a directed cycle.
        ValueError: if an arc endpoint is out of range or a self-loop.
    """

    __slots__ = (
        "n", "_succ", "_pred", "_desc", "_anc", "_arcs", "_arc_src",
        "_topo",
    )

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        self.n = n
        succ = [0] * n
        pred = [0] * n
        arc_set: set[tuple[int, int]] = set()
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if (u, v) not in arc_set:
                arc_set.add((u, v))
                succ[u] |= 1 << v
                pred[v] |= 1 << u
        self._succ = succ
        self._pred = pred
        self._arcs = frozenset(arc_set)
        self._arc_src = None
        self._desc, self._anc = self._compute_closure()

    @classmethod
    def trusted(cls, n: int, arcs: Iterable[tuple[int, int]] = ()) -> "Dag":
        """Construct without validation, deferring the closure.

        The caller guarantees every arc ``(u, v)`` satisfies
        ``0 <= u < v < n`` — forward in node-id order, hence acyclic
        with no self-loops. The workload generator produces exactly
        such arcs (every arc follows the reference sequence), which is
        what lets open-system arrivals skip Kahn's algorithm and the
        transitive closure entirely: the simulator's hot path consumes
        only the direct successor/predecessor masks. The closure (and
        the cached topological order) is computed lazily on first use,
        so the resulting Dag answers every query exactly like a
        validated one.
        """
        dag = object.__new__(cls)
        dag.n = n
        arc_list = arcs if type(arcs) is list else list(arcs)
        succ = [0] * n
        pred = [0] * n
        for u, v in arc_list:
            # Duplicate arcs just re-set the same bits, so the masks
            # need no dedup pass; the canonical frozenset (which does
            # dedup) is materialized only if someone asks for it.
            succ[u] |= 1 << v
            pred[v] |= 1 << u
        dag._succ = succ
        dag._pred = pred
        dag._arcs = None
        dag._arc_src = arc_list
        dag._desc = None
        dag._anc = None
        dag._topo = None
        return dag

    def _ensure_closure(self) -> None:
        """Materialize the lazy closure of a trusted Dag."""
        if self._anc is None:
            self._desc, self._anc = self._compute_closure()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _compute_closure(self) -> tuple[list[int], list[int]]:
        """Compute descendant and ancestor masks; verify acyclicity.

        The bit scans are inlined (no generator) — Dag construction is
        on the open-system hot path, one per injected transaction.
        """
        order = self.topological_order()
        self._topo = order
        desc = [0] * self.n
        for u in reversed(order):
            mask = bits = self._succ[u]
            while bits:
                low = bits & -bits
                mask |= desc[low.bit_length() - 1]
                bits ^= low
            if mask >> u & 1:
                raise CycleError(self._trace_cycle())
            desc[u] = mask
        anc = [0] * self.n
        for u in order:
            mask = bits = self._pred[u]
            while bits:
                low = bits & -bits
                mask |= anc[low.bit_length() - 1]
                bits ^= low
            anc[u] = mask
        return desc, anc

    def _trace_cycle(self) -> list[int]:
        """Locate one directed cycle (only called on corrupt input)."""
        color = [0] * self.n  # 0 unvisited, 1 on stack, 2 done
        stack: list[int] = []

        def dfs(u: int) -> list[int] | None:
            color[u] = 1
            stack.append(u)
            for v in bits_of(self._succ[u]):
                if color[v] == 1:
                    return stack[stack.index(v):] + [v]
                if color[v] == 0:
                    found = dfs(v)
                    if found is not None:
                        return found
            color[u] = 2
            stack.pop()
            return None

        for start in range(self.n):
            if color[start] == 0:
                found = dfs(start)
                if found is not None:
                    return found
        return []

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """The direct (non-transitive) arcs as given at construction."""
        arcs = self._arcs
        if arcs is None:
            arcs = self._arcs = frozenset(self._arc_src)
            self._arc_src = None
        return arcs

    def successors(self, u: int) -> int:
        """Bitmask of direct successors of ``u``."""
        return self._succ[u]

    def predecessors(self, u: int) -> int:
        """Bitmask of direct predecessors of ``u``."""
        return self._pred[u]

    def descendants(self, u: int) -> int:
        """Bitmask of all nodes strictly after ``u`` in the partial order."""
        if self._desc is None:
            self._ensure_closure()
        return self._desc[u]

    def ancestors(self, u: int) -> int:
        """Bitmask of all nodes strictly before ``u`` in the partial order."""
        if self._anc is None:
            self._ensure_closure()
        return self._anc[u]

    def successor_masks(self) -> list[int]:
        """Per-node direct-successor bitmasks, indexed by node id.

        A borrowed view of internal state — callers must not mutate it.
        Bulk accessor for hot paths that would otherwise call
        :meth:`successors` once per node.
        """
        return self._succ

    def predecessor_masks(self) -> list[int]:
        """Per-node direct-predecessor bitmasks (borrowed; do not
        mutate). Available without materializing the closure, which is
        what makes linear schedule replay free of it."""
        return self._pred

    def precedes(self, u: int, v: int) -> bool:
        """Return True if ``u`` strictly precedes ``v`` (u ≺ v)."""
        if self._desc is None:
            self._ensure_closure()
        return bool(self._desc[u] >> v & 1)

    def comparable(self, u: int, v: int) -> bool:
        """Return True if ``u`` and ``v`` are ordered either way."""
        return self.precedes(u, v) or self.precedes(v, u)

    def all_nodes_mask(self) -> int:
        """Bitmask containing every node."""
        return (1 << self.n) - 1

    def cached_topological_order(self) -> list[int]:
        """The topological order computed at construction (no rebuild).

        Callers must not mutate the returned list. Trusted Dags compute
        it on first use.
        """
        if self._topo is None:
            self._topo = self.topological_order()
        return self._topo

    # ------------------------------------------------------------------
    # orders and enumeration
    # ------------------------------------------------------------------

    def topological_order(self) -> list[int]:
        """Return one topological order (Kahn's algorithm, smallest-first)."""
        pred = self._pred
        succ = self._succ
        indegree = [pred[u].bit_count() for u in range(self.n)]
        ready = sorted(u for u in range(self.n) if indegree[u] == 0)
        order: list[int] = []
        while ready:
            u = ready.pop()
            order.append(u)
            bits = succ[u]
            while bits:
                low = bits & -bits
                v = low.bit_length() - 1
                bits ^= low
                indegree[v] -= 1
                if indegree[v] == 0:
                    ready.append(v)
        if len(order) != self.n:
            raise CycleError(self._trace_cycle())
        return order

    def linear_extensions(self) -> Iterator[tuple[int, ...]]:
        """Yield every linear extension (total order compatible with arcs).

        The count is exponential in general; intended for small posets
        (tests, the exhaustive oracle, Corollary 1 experiments).
        """
        full = self.all_nodes_mask()
        prefix: list[int] = []

        def extend(done: int) -> Iterator[tuple[int, ...]]:
            if done == full:
                yield tuple(prefix)
                return
            remaining = full & ~done
            for u in bits_of(remaining):
                if self._anc[u] & ~done == 0:
                    prefix.append(u)
                    yield from extend(done | (1 << u))
                    prefix.pop()

        yield from extend(0)

    def count_linear_extensions(self, limit: int | None = None) -> int:
        """Count linear extensions by dynamic programming over down-sets.

        Args:
            limit: optional cap; counting stops early once exceeded and the
                running total (>= limit) is returned.
        """
        counts: dict[int, int] = {0: 1}
        frontier = [0]
        full = self.all_nodes_mask()
        total_for_full = 0
        while frontier:
            next_counts: dict[int, int] = {}
            for done in frontier:
                ways = counts[done]
                remaining = full & ~done
                for u in bits_of(remaining):
                    if self._anc[u] & ~done == 0:
                        key = done | (1 << u)
                        next_counts[key] = next_counts.get(key, 0) + ways
            counts = next_counts
            frontier = list(counts)
            if full in counts:
                total_for_full = counts[full]
            if limit is not None and counts and min(counts.values()) > limit:
                return max(total_for_full, limit)
        return total_for_full

    def down_sets(self) -> Iterator[int]:
        """Yield every down-set (prefix) of the partial order as a bitmask.

        A down-set ``D`` satisfies: no arc enters ``D`` from outside, i.e.
        every ancestor of a member is a member. The empty set and the full
        set are included. Exponential in general; for small posets only.
        """
        seen = {0}
        stack = [0]
        while stack:
            done = stack.pop()
            yield done
            remaining = self.all_nodes_mask() & ~done
            for u in bits_of(remaining):
                if self._anc[u] & ~done == 0:
                    grown = done | (1 << u)
                    if grown not in seen:
                        seen.add(grown)
                        stack.append(grown)

    def is_down_set(self, mask: int) -> bool:
        """Return True if ``mask`` is a down-set (a *prefix* per the paper)."""
        for u in bits_of(mask):
            if self._anc[u] & ~mask:
                return False
        return True

    def down_closure(self, mask: int) -> int:
        """Return the smallest down-set containing ``mask``."""
        closed = mask
        for u in bits_of(mask):
            closed |= self._anc[u]
        return closed

    def minimal_nodes(self, mask: int) -> int:
        """Bitmask of nodes of ``mask`` with no predecessor inside ``mask``.

        This is exactly "the nodes without predecessors in the subgraph
        induced by ``mask``" used in the paper's deadlock definition.
        """
        result = 0
        for u in bits_of(mask):
            if self._anc[u] & mask == 0:
                result |= 1 << u
        return result

    def maximal_down_set_avoiding(self, forbidden: int) -> int:
        """Largest down-set containing no node of ``forbidden``.

        Obtained by removing every forbidden node together with all of its
        descendants — the construction used for the maximal prefixes ``T*``
        of Theorem 4.
        """
        removed = forbidden
        for u in bits_of(forbidden):
            removed |= self._desc[u]
        return self.all_nodes_mask() & ~removed

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------

    def transitive_reduction(self) -> "Dag":
        """Return the Hasse diagram (unique minimal arc set, same order)."""
        reduced: list[tuple[int, int]] = []
        for u, v in self.arcs:
            # (u, v) is redundant iff some direct successor w != v of u
            # already reaches v.
            redundant = False
            for w in bits_of(self._succ[u] & ~(1 << v)):
                if w == v or self._desc[w] >> v & 1:
                    redundant = True
                    break
            if not redundant:
                reduced.append((u, v))
        return Dag(self.n, reduced)

    def transitive_closure_arcs(self) -> frozenset[tuple[int, int]]:
        """All ordered pairs ``(u, v)`` with ``u ≺ v``."""
        pairs = set()
        for u in range(self.n):
            for v in bits_of(self._desc[u]):
                pairs.add((u, v))
        return frozenset(pairs)

    def restricted_to(self, mask: int) -> "Dag":
        """Induced sub-DAG on ``mask``, renumbered by increasing old id.

        Returns the new Dag; node ``i`` of the result corresponds to the
        ``i``-th smallest member of ``mask``.
        """
        members = list(bits_of(mask))
        index = {u: i for i, u in enumerate(members)}
        arcs = [
            (index[u], index[v])
            for u, v in self.arcs
            if u in index and v in index
        ]
        return Dag(len(members), arcs)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return self.n == other.n and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        return f"Dag(n={self.n}, arcs={sorted(self.arcs)})"


class DagBuilder:
    """Incremental construction helper for :class:`Dag`.

    Nodes are allocated densely; arcs may be added in any order and are
    validated only at :meth:`build` time.
    """

    def __init__(self) -> None:
        self._n = 0
        self._arcs: list[tuple[int, int]] = []

    def add_node(self) -> int:
        """Allocate and return a fresh node id."""
        node = self._n
        self._n += 1
        return node

    def add_nodes(self, count: int) -> list[int]:
        """Allocate ``count`` fresh node ids."""
        return [self.add_node() for _ in range(count)]

    def add_arc(self, u: int, v: int) -> None:
        """Record the precedence ``u`` before ``v``."""
        self._arcs.append((u, v))

    def add_chain(self, nodes: Sequence[int]) -> None:
        """Record a total order over ``nodes`` via consecutive arcs."""
        for u, v in zip(nodes, nodes[1:]):
            self.add_arc(u, v)

    @property
    def node_count(self) -> int:
        return self._n

    def build(self) -> Dag:
        """Validate and return the immutable Dag."""
        return Dag(self._n, self._arcs)
