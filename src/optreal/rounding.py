"""Half-integral weight machinery shared by both realization pipelines.

Edge weights live in integer half-units: 0, 1, 2 stand for 0, 1/2, 1.  All
weight comparisons are exact; no floating point is involved anywhere.  The
weight-1/2 subgraph (every edge whose weight is exactly one half-unit) is
maintained incrementally because the pipelines repeatedly query and shrink
it; it is always an even graph between pipeline stages.
"""

from __future__ import annotations

from typing import Callable

from .errors import InternalError

__all__ = [
    "HalfWeights",
    "apply_alternation",
    "partition_into_circuits",
    "rotate_walk",
    "round_half_weights",
    "toggle_integral_edge",
]


class HalfWeights:
    """Symmetric n-by-n half-unit weights with the half-weight subgraph tracked.

    ``w`` is a list of bytearrays indexed 1..n (slot 0 unused), and
    ``half_adj[i]`` is the set of j with w[i][j] == 1 half-unit.
    """

    __slots__ = ("n", "degrees", "w", "half_adj")

    def __init__(self, n: int, degrees: tuple[int, ...]):
        self.n = n
        self.degrees = degrees
        self.w = [bytearray(n + 1) for _ in range(n + 1)]
        self.half_adj: list[set[int]] = [set() for _ in range(n + 1)]

    @classmethod
    def from_bipartite_adjacency(cls, n: int, degrees: tuple[int, ...],
                                 adjacency: list[bytearray]) -> "HalfWeights":
        """Fold an n-by-n 0/1 bipartite incidence into symmetric half-units."""
        hw = cls(n, degrees)
        w = hw.w
        half_adj = hw.half_adj
        for i in range(1, n + 1):
            row = adjacency[i]
            wi = w[i]
            for j in range(1, n + 1):
                v = row[j] + adjacency[j][i]
                wi[j] = v
                if v == 1 and j > i:
                    half_adj[i].add(j)
                    half_adj[j].add(i)
        return hw

    def set_weight(self, i: int, j: int, value: int):
        old = self.w[i][j]
        if old == value:
            return
        self.w[i][j] = value
        self.w[j][i] = value
        if old == 1:
            self.half_adj[i].discard(j)
            self.half_adj[j].discard(i)
        if value == 1:
            self.half_adj[i].add(j)
            self.half_adj[j].add(i)

    def integral_edges(self) -> list[tuple[int, int]]:
        """All pairs (i < j) of weight 1 (two half-units)."""
        edges = []
        n = self.n
        for i in range(1, n + 1):
            row = self.w[i]
            j = row.find(2, i + 1)
            while j != -1:
                edges.append((i, j))
                j = row.find(2, j + 1)
        return edges

    # Checked-mode invariants.  These scan the whole matrix and are meant for
    # small instances; the pipelines call them only when checked=True.

    def assert_weighted_degrees(self):
        for i in range(1, self.n + 1):
            total = sum(self.w[i])
            if total != 2 * self.degrees[i - 1]:
                raise InternalError(
                    f"weighted degree of vertex {i} is {total} half-units, "
                    f"expected {2 * self.degrees[i - 1]}")

    def assert_half_graph_even(self):
        for i in range(1, self.n + 1):
            if len(self.half_adj[i]) % 2 != 0:
                raise InternalError(f"vertex {i} has odd half-weight degree")

    def assert_domination_weight(self, gamma: int):
        for s in range(gamma + 1, self.n + 1):
            row = self.w[s]
            if sum(row[1:gamma + 1]) < 2:
                raise InternalError(
                    f"vertex {s} holds less than one unit of weight toward the prefix")

    def assert_matching_weights(self, two_nu: int):
        for i in range(1, two_nu + 1):
            if self.w[i][two_nu - i + 1] != 2:
                raise InternalError(
                    f"matching pair ({i}, {two_nu - i + 1}) lost its full weight")


def partition_into_circuits(adj: list[set[int]], n: int) -> list[list[int]]:
    """Split an even graph into one closed walk per connected component.

    ``adj`` is consumed.  Components are discovered in order of their lowest
    vertex, each walk starts at that vertex, and the lowest-numbered
    available neighbor is taken first, so the output is deterministic.
    Walks are vertex lists with walk[0] == walk[-1].
    """
    circuits = []
    for start in range(1, n + 1):
        if not adj[start]:
            continue
        # Hierholzer: build the circuit by splicing detours at stuck vertices.
        stack = [start]
        path = []
        while stack:
            v = stack[-1]
            nbrs = adj[v]
            if nbrs:
                u = min(nbrs)
                nbrs.discard(u)
                adj[u].discard(v)
                stack.append(u)
            else:
                path.append(stack.pop())
        path.reverse()
        if path[0] != path[-1]:
            raise InternalError("component has no closed traversal; graph was not even")
        circuits.append(path)
    return circuits


def rotate_walk(walk: list[int], x: int) -> list[int]:
    """Rotate a closed walk so it starts (and ends) at vertex x."""
    if walk[0] == x:
        return walk
    i = walk.index(x)
    return walk[i:-1] + walk[:i] + [x]


def apply_alternation(hw: HalfWeights, walk: list[int], odd_weight: int):
    """Round a half-weight closed walk: positions 1, 3, ... get ``odd_weight``
    half-units and even positions get the complementary 2 - odd_weight.
    Every walk edge must currently carry exactly one half-unit.
    """
    even_weight = 2 - odd_weight
    u = walk[0]
    for pos in range(1, len(walk)):
        v = walk[pos]
        if hw.w[u][v] != 1:
            raise InternalError(f"walk edge ({u}, {v}) is not half-weight")
        hw.set_weight(u, v, odd_weight if pos % 2 == 1 else even_weight)
        u = v


def toggle_integral_edge(hw: HalfWeights, x: int, y: int) -> int:
    """Flip an integral-weight pair between 0 and 1, returning its old unit value."""
    v = hw.w[x][y]
    if v == 1:
        raise InternalError(f"pair ({x}, {y}) is half-weight; cannot toggle")
    hw.set_weight(x, y, 2 - v)
    return v // 2


def round_half_weights(hw: HalfWeights, protected: set[tuple[int, int]],
                       triangles: list[tuple[int, int, int]],
                       check: Callable[[], None] | None) -> list[tuple[int, int]]:
    """Make every weight of ``hw`` integral and return the full-weight pairs.

    The half-weight graph minus the ``triangles`` (each (a, s, b) with center
    s) is covered by one closed walk per connected component; the triangles
    join as closed walks of their own.  Even walks are rounded by
    alternation.  Odd walks are paired in order of their lowest vertex: a
    pair sharing a triangle center is rounded through that center, any other
    pair through the least usable connector pair (see ``_choose_connector``),
    whose integral weight is toggled.  No weighted degree changes, no pair in
    ``protected`` (normalized as i < j) is touched, and every triangle center
    keeps a full-weight edge to one of its two triangle partners.

    ``check``, when given, is called after every individual modification.
    """
    adj = [set(neigh) for neigh in hw.half_adj]
    for a, s, b in triangles:
        for u, v in ((a, s), (s, b), (a, b)):
            adj[u].discard(v)
            adj[v].discard(u)
    walks = partition_into_circuits(adj, hw.n)

    # cycle record: (walk, triangle center s or None)
    cycles = [(walk, None) for walk in walks] + [([a, s, b, a], s) for a, s, b in triangles]

    odd_cycles = []
    for walk, center in cycles:
        if (len(walk) - 1) % 2 == 0:
            apply_alternation(hw, walk, 0)
            if check:
                check()
        else:
            odd_cycles.append((walk, center))

    if len(odd_cycles) % 2 != 0:
        raise InternalError("odd cycle count is odd; half-weight edge count was odd")
    odd_cycles.sort(key=lambda cyc: min(cyc[0]))

    for idx in range(0, len(odd_cycles), 2):
        first, second = odd_cycles[idx], odd_cycles[idx + 1]
        inter = set(first[0]) & set(second[0])
        if inter:
            if (first[1] is None) == (second[1] is None):
                raise InternalError("intersecting odd cycles are not a triangle/walk pair")
            tri, plain = (first, second) if first[1] is not None else (second, first)
            s = tri[1]
            if inter != {s}:
                raise InternalError(f"odd cycle intersection {inter} is not the triangle center")
            apply_alternation(hw, rotate_walk(tri[0], s), 2)
            apply_alternation(hw, rotate_walk(plain[0], s), 0)
        else:
            x, y = _choose_connector(hw, first, second, protected)
            xi = toggle_integral_edge(hw, x, y)
            apply_alternation(hw, rotate_walk(first[0], x), 2 * xi)
            apply_alternation(hw, rotate_walk(second[0], y), 2 * xi)
            for walk, center in (first, second):
                if center is not None:
                    others = [v for v in walk[:3] if v != center]
                    if hw.w[center][others[0]] != 2 and hw.w[center][others[1]] != 2:
                        raise InternalError(
                            f"triangle center {center} lost both prefix edges")
        if check:
            check()

    for i in range(1, hw.n + 1):
        if hw.half_adj[i]:
            raise InternalError(f"half-weight edges remain at vertex {i}")
    return hw.integral_edges()


def _choose_connector(hw: HalfWeights, first, second, protected):
    """Pick the lexicographically least cross pair (x, y) usable for joining
    two disjoint odd cycles: not a protected edge, not half-weight, and not
    a triangle center."""
    xs = sorted(v for v in set(first[0]) if v != first[1])
    ys = sorted(v for v in set(second[0]) if v != second[1])
    for x in xs:
        for y in ys:
            pair = (x, y) if x < y else (y, x)
            if pair in protected:
                continue
            if hw.w[x][y] == 1:
                continue
            return x, y
    raise InternalError("no usable pair joins two disjoint odd cycles")
