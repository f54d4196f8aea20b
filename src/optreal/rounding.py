"""Half-integral weight machinery shared by both realization pipelines.

Edge weights live in integer half-units: 0, 1, 2 stand for 0, 1/2, 1.  All
weight comparisons are exact; no floating point is involved anywhere.  The
weight-1/2 subgraph (every edge whose weight is exactly one half-unit) is
maintained incrementally because the pipelines repeatedly query and shrink
it; it is always an even graph between pipeline stages.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import InternalError
from .sequences import Certificate, Realization

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

    Two sets per vertex i (i in 1..n; slot 0 unused): ``full[i]`` holds the
    j with w[i][j] == 2 half-units and ``half_adj[i]`` those with
    w[i][j] == 1 half-unit, which is the half-weight subgraph itself; every
    other pair weighs 0.  The whole table takes O(n + sum(d)) space.
    Readers that choose among pairs take the least index, so no result
    depends on the order in which pairs were stored.
    """

    __slots__ = ("n", "degrees", "full", "half_adj")

    def __init__(self, n: int, degrees: tuple[int, ...], full: list[set[int]],
                 half_adj: list[set[int]]):
        self.n = n
        self.degrees = degrees
        self.full = full
        self.half_adj = half_adj

    @classmethod
    def fold(cls, n: int, degrees: tuple[int, ...],
             incidence: Iterable[tuple[set[int], set[int]]]) -> "HalfWeights":
        """Fold a 0/1 bipartite incidence into symmetric half-units,
        w[i][j] = A[i][j] + A[j][i].  ``incidence`` yields, for i = 1..n in
        turn, the set of ones in row i and the set of ones in column i.
        The row set becomes vertex i's full-weight set in place; the
        half-weight set is built from the two differences (``^`` would copy
        a whole operand and keep its table size however much cancels).
        """
        full: list[set[int]] = [set()]
        half_adj: list[set[int]] = [set()]
        for out_i, in_i in incidence:
            half = out_i - in_i
            out_i -= half
            half |= in_i - out_i
            full.append(out_i)
            half_adj.append(half)
        return cls(n, degrees, full, half_adj)

    @classmethod
    def from_rows(cls, n: int, degrees: tuple[int, ...], rows: list[list[int]]) -> "HalfWeights":
        """``fold`` of a sparse incidence given by rows alone (``rows[i]``
        lists the ones of row i), transposed here."""
        cols: list[list[int]] = [[] for _ in range(n + 1)]
        for i in range(1, n + 1):
            for j in rows[i]:
                cols[j].append(i)
        return cls.fold(n, degrees, ((set(rows[i]), set(cols[i])) for i in range(1, n + 1)))

    def weight(self, i: int, j: int) -> int:
        """w[i][j] in half-units."""
        if j in self.full[i]:
            return 2
        return 1 if j in self.half_adj[i] else 0

    def set_weight(self, i: int, j: int, value: int):
        old = self.weight(i, j)
        if old == value:
            return
        if old:
            sets = self.full if old == 2 else self.half_adj
            sets[i].discard(j)
            sets[j].discard(i)
        if value:
            sets = self.full if value == 2 else self.half_adj
            sets[i].add(j)
            sets[j].add(i)

    # Checked-mode invariants.  Each reads every stored weight, and the
    # pipelines call them after every modification when checked=True, so
    # they are meant for small instances.

    def assert_weighted_degrees(self):
        for i in range(1, self.n + 1):
            total = 2 * len(self.full[i]) + len(self.half_adj[i])
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
            if (sum(2 for x in self.full[s] if x <= gamma)
                    + sum(1 for x in self.half_adj[s] if x <= gamma)) < 2:
                raise InternalError(
                    f"vertex {s} holds less than one unit of weight toward the prefix")

    def assert_matching_weights(self, two_nu: int):
        for i in range(1, two_nu + 1):
            if two_nu - i + 1 not in self.full[i]:
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
        if v not in hw.half_adj[u]:
            raise InternalError(f"walk edge ({u}, {v}) is not half-weight")
        hw.set_weight(u, v, odd_weight if pos % 2 == 1 else even_weight)
        u = v


def toggle_integral_edge(hw: HalfWeights, x: int, y: int) -> int:
    """Flip an integral-weight pair between 0 and 1, returning its old unit value."""
    v = hw.weight(x, y)
    if v == 1:
        raise InternalError(f"pair ({x}, {y}) is half-weight; cannot toggle")
    hw.set_weight(x, y, 2 - v)
    return v // 2


def round_half_weights(hw: HalfWeights, protected: set[tuple[int, int]],
                       triangles: list[tuple[int, int, int]],
                       check: Callable[[], None] | None,
                       certificate: Certificate) -> Realization:
    """Make every weight of ``hw`` integral and return the graph of its
    full-weight pairs, carrying ``certificate``.

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
    A graph whose degrees differ from ``hw.degrees`` raises InternalError.
    The graph's edge array is read straight off ``hw``'s full-weight sets,
    and ``hw`` holds no weights afterwards.
    """
    adj = [set(neigh) for neigh in hw.half_adj]
    for a, s, b in triangles:
        for u, v in ((a, s), (s, b), (a, b)):
            adj[u].discard(v)
            adj[v].discard(u)
    walks = partition_into_circuits(adj, hw.n)
    del adj  # emptied, but its sets keep their tables

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
                    if others[0] not in hw.full[center] and others[1] not in hw.full[center]:
                        raise InternalError(
                            f"triangle center {center} lost both prefix edges")
        if check:
            check()

    for i in range(1, hw.n + 1):
        if hw.half_adj[i]:
            raise InternalError(f"half-weight edges remain at vertex {i}")
    graph = Realization._from_sets(hw.n, hw.full, certificate)
    hw.full = hw.half_adj = None
    if graph.degrees() != hw.degrees:
        raise InternalError("rounded graph does not carry the input degrees")
    return graph


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
            if y in hw.half_adj[x]:
                continue
            return x, y
    raise InternalError("no usable pair joins two disjoint odd cycles")
