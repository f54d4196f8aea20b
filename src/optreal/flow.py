"""Integral maximum s-t flow on directed capacitated networks.

``max_flow`` is Dinic's algorithm over an adjacency-indexed residual graph
of an explicit ``FlowNetwork``.  Arcs are scanned in insertion order
throughout, so for a fixed network the returned assignment is deterministic.

The reduction networks of this package have O(n) nodes but O(n^2) arcs,
almost all of them unit arcs in a few "rows x columns minus a known
exclusion" blocks.  The realization pipelines therefore never build them:
``_reduction_max_flow`` runs the same Dinic on the block pattern, in
O(n + flow) per phase, and returns the same flow arc for arc as sets of unit
pairs by row and by column, which the pipelines fold straight into
half-weights.  ``_build_reduction_network`` lays the same pattern out as
an explicit network; the public builders (``build_mds_flow``,
``build_mm_flow``) wrap it and, with ``max_flow``, remain the reference
the solver is tested against.  The solver's BFS reaches block columns and
reverse rows by C-level set difference.  The two phases that carry almost
all of the flow, phase 1 and the x' -> y' tail of the distance-5 phase, run
as closed-form loops that take the DFS's own steps and count units once per
row.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
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
        n = self.node_count = node_count
        self.source = source
        self.sink = sink
        if not (0 <= source < n and 0 <= sink < n):
            raise NetworkError("source/sink out of range")
        if source == sink:
            raise NetworkError("source and sink must differ")
        self.tails = array("l")
        self.heads = array("l")
        self.caps = array("l")
        seen = set()
        try:
            for k, (u, v, c) in enumerate(arcs):
                self.tails.append(u)
                self.heads.append(v)
                self.caps.append(c)
                if not (0 <= u < n and 0 <= v < n):
                    raise NetworkError(f"arc {k} endpoint out of range")
                if u == v:
                    raise NetworkError(f"arc {k} is a self-loop at node {u}")
                if c < 0:
                    raise NetworkError(f"arc {k} has negative capacity {c}")
                if v == source:
                    raise NetworkError(f"arc {k} enters the source")
                if u == sink:
                    raise NetworkError(f"arc {k} leaves the sink")
                key = u * n + v
                if key in seen:
                    raise NetworkError(f"duplicate arc ({u}, {v})")
                seen.add(key)
        except OverflowError:
            raise NetworkError(f"arc ({u}, {v}) with capacity {c} does not fit in int64") from None

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


def _build_reduction_network(n: int, prefix: int, caps, partner) -> FlowNetwork:
    """The reduction network with pattern (``prefix``, ``caps``, ``partner``);
    ``build_mds_flow`` and ``build_mm_flow`` lay out their objective's
    pattern with it.

    Node layout: source 0; x_1..x_n are 1..n; y_1..y_n are n+1..2n;
    supplementary x'_i (i > prefix) come next, then y'_j, then the sink.
    Arcs, in insertion order: s -> x_i of capacity ``caps[i]``; the unit
    arcs x_i -> y_j for j not in {i, partner[i]} with i <= prefix or
    j <= prefix; x_i -> x'_i of capacity ``caps[i] - 1``; the unit arcs
    x'_i -> y'_j for i != j; y'_j -> y_j of capacity ``caps[j] - 1``;
    y_j -> t of capacity ``caps[j]``.  The prefix rows and columns connect
    directly, and nonprefix pairs route through the supplementary nodes,
    which forces every nonprefix row and column to spend at least one unit
    on the prefix.  ``caps`` and ``partner`` are 1-based (slot 0 unused; a
    partner of 0 excludes nothing).  At ``prefix == n`` there are no
    supplementary nodes.
    """
    r = n - prefix
    sink = 2 * n + 2 * r + 1
    xp0 = 2 * n - prefix   # x'_i = xp0 + i for i > prefix
    yp0 = xp0 + r          # y'_j = yp0 + j

    def arcs():
        for i in range(1, n + 1):
            yield (0, i, caps[i])
        for i in range(1, n + 1):
            for j in range(1, (n if i <= prefix else prefix) + 1):
                if j != i and j != partner[i]:
                    yield (i, n + j, 1)
        for i in range(prefix + 1, n + 1):
            yield (i, xp0 + i, caps[i] - 1)
        for i in range(prefix + 1, n + 1):
            for j in range(prefix + 1, n + 1):
                if j != i:
                    yield (xp0 + i, yp0 + j, 1)
        for j in range(prefix + 1, n + 1):
            yield (yp0 + j, n + j, caps[j] - 1)
        for j in range(1, n + 1):
            yield (n + j, sink, caps[j])

    return FlowNetwork(sink + 1, 0, sink, arcs())


def _reduction_max_flow(n: int, prefix: int, caps, partner):
    """Dinic's algorithm on a reduction network given by its pattern.

    The network is the one ``_build_reduction_network`` lays out for the
    same arguments, without its O(n^2) arc arrays.

    The flow is kept as sets of unit pairs, by row and by column; the other
    arcs carry what conservation gives them: x_i -> x'_i carries
    len(sup_rows[i]) and y'_j -> y_j len(sup_cols[j]), while s -> x_i and
    y_j -> t are counted in ``src`` and ``snk``.

    Each node scans its residual arcs in the builders' insertion order, so
    the flow equals ``max_flow`` on the built network arc for arc.  The BFS
    finds the columns a row reaches by set difference with the per-phase
    sets of unvisited columns, and the rows a column reaches back by set
    difference with the sets of visited rows, so a phase costs O(n + flow)
    in C-level set operations.  Nodes join the queue in another order than
    in the explicit BFS, but on the same levels.  A DFS current-arc pointer
    is a (segment, position) pair over the phase's per-level column lists,
    with dead columns skipped by union-find.  Within a phase admissible arcs
    only disappear, so the first admissible arc at or after a pointer is
    exactly the arc an explicit scan finds.  Every augmenting path crosses
    a unit arc, so each one carries one unit.  Once the source arcs are
    full no path is left, and the search stops without another BFS.

    Every arc joins the classes {s, y, x'} and {x, y', t}, so the sink's
    level ``lt`` is odd, and Dinic makes it grow from phase to phase.  Two
    fast paths, chosen by ``lt`` alone, take the DFS's steps without its
    path and segment machine, and count the units of a row once per row:

    - ``lt == 3``, phase 1 as a greedy fill.  This can only be the first
      phase, so no unit flows yet.  The y'_j sit on level 3 and are cut, so
      every admissible path is s -> x_i -> y_j -> t.  The DFS fills x_1,
      x_2, ... in turn, each with the lowest live level-2 columns other than
      i, ``partner[i]`` and those past its block; a column dies once its
      sink arc is full.
    - ``lt == 5``, the tail as a run.  This phase comes first or right
      after phase 1, so no unit is on an x' -> y' arc when it starts, and
      no x'_i on level 4 ever takes one (its y' columns are cut).  So y'_j
      has no admissible reverse arc and y_j on level 4 has only its sink
      arc.  Once the DFS stands at x'_i in its y' segment, each unit goes
      x'_i -> y'_j -> y_j -> t, with y'_j (and y_j, whose sink is full)
      marked dead where the DFS would mark them, until s -> x_i or
      x_i -> x'_i is full; only then does the search return to s.

    Returns (value, rows, cols, sup_rows, sup_cols): ``rows[i]`` is the set
    of j with a unit on x_i -> y_j and ``cols[j]`` the set of i with one;
    ``sup_rows``/``sup_cols`` hold the units on x'_i -> y'_j the same way.
    Slots without an x' or y' node (index <= ``prefix``) share one empty
    frozenset.
    """
    # Node ids: s = 0, x_i = i, y_j = n + j, x'_i = 2n + i, y'_j = 3n + j.
    n2, n3 = 2 * n, 3 * n
    t = 4 * n + 1
    rows = [set() for _ in range(n + 1)]
    cols = [set() for _ in range(n + 1)]
    no_node = [frozenset()] * (prefix + 1)
    sup_rows = no_node + [set() for _ in range(n - prefix)]
    sup_cols = no_node + [set() for _ in range(n - prefix)]
    src = [0] * (n + 1)   # flow on s -> x_i
    snk = [0] * (n + 1)   # flow on y_j -> t
    colmax = [n if i <= prefix else prefix for i in range(n + 1)]
    total = 0
    most = sum(caps)   # the source arcs' capacity

    def find(nxt, p):
        root = p
        while nxt[root] != root:
            root = nxt[root]
        while nxt[p] != root:
            nxt[p], p = root, nxt[p]
        return root

    def reach(free, ri, skip):
        # The unvisited columns a row reaches, and the others as a new set:
        # a set keeps its table size as it empties, and a scan costs that size.
        hit = free - ri
        hit.difference_update(skip)
        return hit, (free - hit if hit else free)

    while total < most:
        # BFS layering.  Each row and column is expanded at most once, and a
        # block scan costs the columns it reaches plus the row's own units.
        level = [-1] * (t + 1)
        level[0] = 0
        queue = [i for i in range(1, n + 1) if src[i] < caps[i]]
        ones = len(queue)
        for i in queue:
            level[i] = 1
        seen_x = set(queue)   # rows on a level
        seen_sup = set()      # x' rows on a level
        free_pre = set(range(1, prefix + 1))        # y columns on no level
        free_rest = set(range(prefix + 1, n + 1))
        free_sup = set(range(prefix + 1, n + 1))    # y' columns on no level
        lt = -1
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            lv = level[v] + 1
            if v <= n:
                ri, skip = rows[v], (v, partner[v])
                hit, free_pre = reach(free_pre, ri, skip)
                if v <= prefix:
                    more, free_rest = reach(free_rest, ri, skip)
                    hit |= more
                found = [n + j for j in hit]
                if v > prefix and len(sup_rows[v]) < caps[v] - 1 and level[n2 + v] < 0:
                    seen_sup.add(v)
                    found.append(n2 + v)
            elif v <= n2:
                j = v - n
                if snk[j] < caps[j]:
                    lt = lv
                    break
                back = cols[j] - seen_x
                seen_x |= back
                found = list(back)
                if j > prefix and sup_cols[j] and level[n3 + j] < 0:
                    free_sup.discard(j)
                    found.append(n3 + j)
            elif v <= n3:
                i = v - n2
                found = []
                if sup_rows[i] and level[i] < 0:
                    seen_x.add(i)
                    found.append(i)
                hit, free_sup = reach(free_sup, sup_rows[i], (i,))
                found += [n3 + j for j in hit]
            else:
                j = v - n3
                back = sup_cols[j] - seen_sup
                seen_sup |= back
                found = [n2 + i for i in back]
                if len(sup_cols[j]) < caps[j] - 1 and level[n + j] < 0:
                    free_rest.discard(j)
                    found.append(n + j)
            for w in found:
                level[w] = lv
            queue += found
        del seen_x, seen_sup, free_pre, free_rest, free_sup   # O(n) each; the DFS needs none
        if lt < 0:
            break
        # Nodes on the sink's layer or beyond cannot reach it in this phase.
        for v in queue:
            if level[v] >= lt:
                level[v] = -1

        if lt == 3:
            # Phase 1 as a greedy fill (see the docstring).  ``live`` lists
            # the level-2 columns whose sink arc has room, ascending; each
            # level-1 row takes the first caps[i] of them it may use.
            live = [j for j in range(1, n + 1) if level[n + j] == 2 and caps[j]]
            for i in queue[:ones]:
                ci = caps[i]
                end = min(bisect_right(live, colmax[i]), ci + 2)
                take = live[:end]
                for j in (i, partner[i]):
                    k = bisect_left(take, j)
                    if k < len(take) and take[k] == j:
                        del take[k]
                del take[ci:]
                rows[i].update(take)
                for j in take:
                    cols[j].add(i)
                src[i] = len(take)
                total += len(take)
                live[:end] = [j for j in live[:end] if len(cols[j]) < caps[j]]
            snk = [len(c) for c in cols]   # every unit so far is on x -> y
            continue

        # Per-level column lists (ascending index) and their dead-skip links.
        def by_level(offset, first):
            order = sorted((j for j in range(first, n + 1) if level[offset + j] > 0),
                           key=lambda j: level[offset + j])
            start = [0] * (lt + 2)
            at = [0] * (n + 1)
            for p, j in enumerate(order):
                start[level[offset + j] + 1] = p + 1
                at[j] = p
            for lv in range(1, lt + 2):
                start[lv] = max(start[lv], start[lv - 1])
            return order, start, at, list(range(len(order) + 1))

        yorder, ystart, ypos, ynxt = by_level(n, 1)
        porder, pstart, ppos, pnxt = by_level(n3, prefix + 1)

        # Blocking flow: repeatedly the first admissible s-t path in arc
        # order, the same path the explicit current-arc DFS finds.
        seg = [0] * (t + 1)
        pos = [0] * (t + 1)
        rev = [None] * (t + 1)   # per-phase reverse-block lists of y_j, y'_j
        pos[0] = 1
        path = [0]
        while True:
            u = path[-1]
            if u == t:
                for k in range(len(path) - 1):
                    a, b = path[k], path[k + 1]
                    if a == 0:
                        src[b] += 1
                    elif a <= n:
                        if b <= n2:
                            rows[a].add(b - n)
                            cols[b - n].add(a)
                    elif a <= n2:
                        j = a - n
                        if b == t:
                            snk[j] += 1
                        elif b <= n:
                            rows[b].discard(j)
                            cols[j].discard(b)
                    elif a <= n3:
                        if b > n3:
                            sup_rows[a - n2].add(b - n3)
                            sup_cols[b - n3].add(a - n2)
                    elif b > n2:
                        sup_rows[b - n2].discard(a - n3)
                        sup_cols[a - n3].discard(b - n2)
                total += 1
                del path[1:]
                continue
            nl = level[u] + 1
            v = -1
            sg = seg[u]
            if u == 0:
                i = pos[0]
                while i <= n and (src[i] >= caps[i] or level[i] != 1):
                    i += 1
                pos[0] = i
                if i <= n:
                    v = i
            elif u <= n or n2 < u <= n3:
                # x_i: [reverse s], row of x -> y, [x_i -> x'_i]
                # x'_i: [reverse x_i -> x'_i], row of x' -> y'
                sup = u > n
                i = u - n2 if sup else u
                if sg == 0:
                    if sup and sup_rows[i] and level[i] == nl:
                        v = i
                    else:
                        sg = 1
                        pos[u] = (pstart if sup else ystart)[nl]
                if sg == 1:
                    if sup:
                        order, nxt, start, cm = porder, pnxt, pstart, n
                        ri, pi = sup_rows[i], 0
                    else:
                        order, nxt, start, cm = yorder, ynxt, ystart, colmax[i]
                        ri, pi = rows[i], partner[i]
                    end = start[nl + 1]
                    p = pos[u]
                    if nxt[p] != p:
                        p = find(nxt, p)
                    if sup and lt == 5:
                        # The tail as a run (see the docstring); x'_i gets
                        # no other visit in this phase.
                        ci, had = caps[i], len(ri)
                        stop = had + min(ci - src[i], ci - 1 - had)
                        while p < end:
                            j = order[p]
                            if j != i:
                                cj = sup_cols[j]
                                if len(cj) < caps[j] - 1 and level[n + j] == 4:
                                    if snk[j] < caps[j]:
                                        ri.add(j)
                                        cj.add(i)
                                        snk[j] += 1
                                        if len(ri) == stop:
                                            break
                                        p += 1
                                        if nxt[p] != p:
                                            p = find(nxt, p)
                                        continue
                                    level[n + j] = -1
                                    ynxt[ypos[j]] = ypos[j] + 1
                                level[n3 + j] = -1
                                nxt[p] = p + 1
                            p += 1
                            if nxt[p] != p:
                                p = find(nxt, p)
                        src[i] += len(ri) - had
                        total += len(ri) - had
                        if p < end:   # s -> x_i or x_i -> x'_i is full
                            seg[u], pos[u] = sg, p
                            del path[1:]
                            continue
                    while p < end:
                        j = order[p]
                        if j > cm:
                            break
                        if j != i and j != pi and j not in ri:
                            v = (n3 if sup else n) + j
                            break
                        p += 1
                        if nxt[p] != p:
                            p = find(nxt, p)
                    pos[u] = p
                    if v < 0:
                        sg = 2
                if sg == 2 and not sup:
                    if (i > prefix and len(sup_rows[i]) < caps[i] - 1
                            and level[n2 + i] == nl):
                        v = n2 + i
                    else:
                        sg = 3
            else:
                # y_j: reverse column of x -> y, [reverse y'_j -> y_j], y_j -> t
                # y'_j: reverse column of x' -> y', y'_j -> y_j
                sup = u > n3
                j = u - n3 if sup else u - n
                if sg == 0:
                    sg = 1
                    if sup:
                        rev[u] = sorted(i for i in sup_cols[j] if level[n2 + i] == nl)
                    else:
                        rev[u] = sorted(i for i in cols[j] if level[i] == nl)
                if sg == 1:
                    lst, p = rev[u], pos[u]
                    cj = sup_cols[j] if sup else cols[j]
                    off = n2 if sup else 0
                    while p < len(lst):
                        i = lst[p]
                        if level[off + i] == nl and i in cj:
                            v = off + i
                            break
                        p += 1
                    pos[u] = p
                    if v < 0:
                        sg = 2
                if sg == 2:
                    if sup:
                        if len(sup_cols[j]) < caps[j] - 1 and level[n + j] == nl:
                            v = n + j
                        else:
                            sg = 4
                    elif j > prefix and sup_cols[j] and level[n3 + j] == nl:
                        v = n3 + j
                    else:
                        sg = 3
                if sg == 3:
                    if snk[j] < caps[j] and lt == nl:
                        v = t
                    else:
                        sg = 4
            seg[u] = sg
            if v >= 0:
                path.append(v)
                continue
            if u == 0:
                break
            level[u] = -1
            if n < u <= n2:
                ynxt[ypos[u - n]] = ypos[u - n] + 1
            elif u > n3:
                pnxt[ppos[u - n3]] = ppos[u - n3] + 1
            path.pop()
    return total, rows, cols, sup_rows, sup_cols
