"""Integral maximum s-t flow on directed capacitated networks.

The solver is Dinic's algorithm over an adjacency-indexed residual graph.
Arcs are scanned in insertion order throughout, so for a fixed network the
returned assignment is deterministic.  The reduction networks built elsewhere
in this package have O(n) nodes, O(n^2) arcs, and constant-depth layerings,
where the algorithm needs only a handful of phases.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Iterator

from .errors import NetworkError

__all__ = ["FlowNetwork", "FlowAssignment", "max_flow"]


class FlowNetwork:
    """A directed network with integer arc capacities and one source/sink.

    Arcs are stored in three parallel arrays (tail, head, capacity) to keep
    million-arc networks compact.
    """

    __slots__ = ("node_count", "source", "sink", "tails", "heads", "caps")

    def __init__(self, node_count: int, source: int, sink: int,
                 arcs: Iterator[tuple[int, int, int]] | list[tuple[int, int, int]]):
        self.node_count = node_count
        self.source = source
        self.sink = sink
        self.tails = array("l")
        self.heads = array("l")
        self.caps = array("l")
        for u, v, c in arcs:
            self.tails.append(u)
            self.heads.append(v)
            self.caps.append(c)
        self._validate()

    def _validate(self):
        n = self.node_count
        if not (0 <= self.source < n and 0 <= self.sink < n):
            raise NetworkError("source/sink out of range")
        if self.source == self.sink:
            raise NetworkError("source and sink must differ")
        seen = set()
        for k in range(len(self.tails)):
            u, v, c = self.tails[k], self.heads[k], self.caps[k]
            if not (0 <= u < n and 0 <= v < n):
                raise NetworkError(f"arc {k} endpoint out of range")
            if u == v:
                raise NetworkError(f"arc {k} is a self-loop at node {u}")
            if c < 0:
                raise NetworkError(f"arc {k} has negative capacity {c}")
            if v == self.source:
                raise NetworkError(f"arc {k} enters the source")
            if u == self.sink:
                raise NetworkError(f"arc {k} leaves the sink")
            key = u * n + v
            if key in seen:
                raise NetworkError(f"duplicate arc ({u}, {v})")
            seen.add(key)

    @property
    def arc_count(self) -> int:
        return len(self.tails)

    def iter_arcs(self) -> Iterator[tuple[int, int, int]]:
        for k in range(len(self.tails)):
            yield (self.tails[k], self.heads[k], self.caps[k])


class FlowAssignment:
    """Per-arc integral flows for a network, plus the total value."""

    __slots__ = ("network", "flows", "value")

    def __init__(self, network: FlowNetwork, flows: array, value: int):
        self.network = network
        self.flows = flows
        self.value = value

    def validate(self):
        """Check capacity bounds and conservation; raises NetworkError."""
        net = self.network
        excess = [0] * net.node_count
        for k in range(net.arc_count):
            f = self.flows[k]
            if f < 0 or f > net.caps[k]:
                raise NetworkError(f"flow on arc {k} out of bounds")
            excess[net.tails[k]] -= f
            excess[net.heads[k]] += f
        for v in range(net.node_count):
            if v == net.source or v == net.sink:
                continue
            if excess[v] != 0:
                raise NetworkError(f"conservation violated at node {v}")
        if -excess[net.source] != self.value or excess[net.sink] != self.value:
            raise NetworkError("total value inconsistent with source/sink balance")


def max_flow(net: FlowNetwork) -> FlowAssignment:
    """Compute an integral maximum s-t flow with Dinic's algorithm."""
    n = net.node_count
    m = net.arc_count
    s, t = net.source, net.sink
    # Residual arcs: forward 2k, reverse 2k+1.
    zero = array("l", [0])
    to = zero * (2 * m)
    cap = zero * (2 * m)
    adj: list[list[int]] = [[] for _ in range(n)]
    tails, heads, caps = net.tails, net.heads, net.caps
    for k in range(m):
        u, v = tails[k], heads[k]
        e = 2 * k
        to[e] = v
        cap[e] = caps[k]
        to[e + 1] = u
        adj[u].append(e)
        adj[v].append(e + 1)

    total = 0
    level = [0] * n
    while True:
        # BFS layering on the residual graph.
        for i in range(n):
            level[i] = -1
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            lu = level[u] + 1
            for e in adj[u]:
                if cap[e] > 0:
                    v = to[e]
                    if level[v] < 0:
                        level[v] = lu
                        q.append(v)
        if level[t] < 0:
            break
        # Blocking flow via iterative DFS with current-arc pointers.
        it = [0] * n
        path: list[int] = []
        u = s
        while True:
            if u == t:
                bottleneck = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= bottleneck
                    cap[e ^ 1] += bottleneck
                total += bottleneck
                # Retreat to the first saturated arc on the path.
                cut = 0
                while cut < len(path) and cap[path[cut]] > 0:
                    cut += 1
                del path[cut:]
                u = s if not path else to[path[-1]]
                continue
            arcs_u = adj[u]
            iu = it[u]
            lu = level[u] + 1
            usable = -1
            while iu < len(arcs_u):
                e = arcs_u[iu]
                if cap[e] > 0 and level[to[e]] == lu:
                    usable = e
                    break
                iu += 1
            it[u] = iu  # current-arc pointer stays on the arc in use
            if usable >= 0:
                path.append(usable)
                u = to[usable]
            else:
                level[u] = -1  # dead end for this phase
                if u == s:
                    break
                e = path.pop()
                u = to[e ^ 1]
                it[u] += 1

    flows = zero * m
    for k in range(m):
        flows[k] = caps[k] - cap[2 * k]
    return FlowAssignment(net, flows, total)
