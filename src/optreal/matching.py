"""Maximum matching over all realizations of a degree sequence.

The achievable matching size is characterized through a flow reduction for
the doubled sequence: a realization with nu matched pairs on the top 2*nu
degree positions (paired highest-with-lowest) exists iff the reduction
network for (d, nu) saturates at sum(d) - 2*nu.  A witness realization is
built from a saturating flow by the same half-integral rounding scheme as
the dominating pipeline, with the inverted matching edges held at full
weight throughout.

Feasibility itself is answered without materializing the quadratic-size
network: the matched prefix is reduced by one and the result is tested for
graphicality, which is equivalent on graphic inputs (removing a matching
from a witness leaves a graphic sequence; conversely a graphic reduced
sequence plus the matching can be combined into one realization).  The
network is built and solved only once per witness, by ``realize_mm``; the
test suite cross-checks the reduction test against its saturation.
"""

from __future__ import annotations

import numpy as np

from .bipartite import BipartiteRealization
from .errors import (ContractError, DomainError, FlipError, InfeasibleError,
                     InternalError, NotGraphicError)
from .flow import FlowAssignment, FlowNetwork, max_flow
from .rounding import HalfWeights, round_half_weights
from .sequences import (DegreeSequence, Matching, Realization,
                        _eg_inequalities_hold, is_graphic)

__all__ = [
    "build_mm_flow",
    "extract_bipartite_mm",
    "flip",
    "invert_matching",
    "mm_feasible",
    "mm_value",
    "realize_mm",
    "round_bipartite_mm",
    "verify_matching",
]

def _check_nu(d: DegreeSequence, nu: int):
    if not (0 <= 2 * nu <= d.n):
        raise DomainError(f"nu={nu} out of range [0, {d.n // 2}]")


def build_mm_flow(d: DegreeSequence, nu: int) -> FlowNetwork:
    """Reduction network whose saturation at sum(d) - 2*nu certifies a
    realization pair with the inverted prefix matching.

    Node layout: source 0, x_1..x_n are 1..n, y_1..y_n are n+1..2n, sink
    2n+1.  Matched positions (i <= 2*nu) get source/sink capacity d_i - 1;
    the unit arcs omit the diagonal (x_i, y_i) and the matched partners
    (x_i, y_{2nu-i+1}).
    """
    _check_nu(d, nu)
    n = d.n
    two_nu = 2 * nu
    vals = d.values
    sink = 2 * n + 1

    def arcs():
        for i in range(1, n + 1):
            yield (0, i, vals[i - 1] - 1 if i <= two_nu else vals[i - 1])
        for i in range(1, n + 1):
            partner = two_nu - i + 1
            for j in range(1, n + 1):
                if j != i and j != partner:
                    yield (i, n + j, 1)
        for j in range(1, n + 1):
            yield (n + j, sink, vals[j - 1] - 1 if j <= two_nu else vals[j - 1])

    return FlowNetwork(2 * n + 2, 0, sink, arcs())


def _mm_feasible_reduction(d: DegreeSequence, nu: int) -> bool:
    arr = np.asarray(d.values, dtype=np.int64).copy()
    arr[:2 * nu] -= 1
    arr = np.sort(arr)[::-1]
    arr = arr[arr > 0]
    # parity is inherited: d graphic means sum(d) even, and 2*nu is even
    return _eg_inequalities_hold(arr)


def mm_feasible(d: DegreeSequence, nu: int) -> bool:
    """True iff some realization of ``d`` has a matching of size nu.

    Equivalent to the reduction network for (d, nu) saturating at
    sum(d) - 2*nu, and answered at every size by the O(n log n)
    prefix-reduction graphicality test instead of the flow.
    """
    _check_nu(d, nu)
    if not is_graphic(d):
        raise NotGraphicError(f"sequence {d.values} is not graphic")
    return _mm_feasible_reduction(d, nu)


def mm_value(d: DegreeSequence) -> int:
    """Largest matching size over all realizations of ``d``.

    Binary search over nu in [0, n // 2]; feasibility is monotone
    (a matching of size nu contains one of size nu - 1).  Size-zero
    matchings are always feasible, so the search is well anchored.
    Stripped zero entries never participate in a matching.
    """
    if not is_graphic(d):
        raise NotGraphicError(f"sequence {d.values} is not graphic")
    n = d.n
    if n < 2:
        return 0
    lo, hi = 0, n // 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _mm_feasible_reduction(d, mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def extract_bipartite_mm(d: DegreeSequence, nu: int,
                         assignment: FlowAssignment) -> BipartiteRealization:
    """Read an inverted-prefix-matched bipartite realization off a
    saturating flow, adding the matching pairs the network omits."""
    _check_nu(d, nu)
    n = d.n
    net = assignment.network
    if net.node_count != 2 * n + 2 or net.sink != 2 * n + 1:
        raise ContractError("assignment does not belong to the reduction network for (d, nu)")
    target = d.total - 2 * nu
    if assignment.value < target:
        raise InfeasibleError(
            f"flow value {assignment.value} < {target}: no realization with "
            f"an inverted prefix matching of size {nu}")
    adjacency = [bytearray(n + 1) for _ in range(n + 1)]
    flows = assignment.flows
    tails, heads = net.tails, net.heads
    for k in range(net.arc_count):
        if flows[k] == 1 and 1 <= tails[k] <= n and n + 1 <= heads[k] <= 2 * n:
            adjacency[tails[k]][heads[k] - n] = 1
    for i in range(1, 2 * nu + 1):
        adjacency[i][2 * nu - i + 1] = 1
    bip = BipartiteRealization(n, 2 * nu, "mm", d.values, adjacency)
    try:
        bip.validate()
    except ContractError as exc:
        raise InternalError(f"saturating flow produced an invalid realization: {exc}") from exc
    return bip


def round_bipartite_mm(bip: BipartiteRealization, checked: bool = False) -> Realization:
    """Round a matched bipartite realization to a general graph.

    The inverted matching pairs carry full weight from the start and no
    stage ever touches a full-weight edge except the integral toggle that
    joins two odd walks, which explicitly avoids them; so the matching
    survives into the output.  The half-weight edges are rounded by the
    dominating pipeline's tail, ``round_half_weights``, with the matching
    pairs as its protected set and no triangles.
    """
    if bip.mode != "mm":
        raise ContractError(f"expected a bipartite realization in mm mode, got {bip.mode!r}")
    bip.validate()
    n, two_nu = bip.n, bip.prefix
    degrees = bip.degrees
    hw = HalfWeights.from_bipartite_adjacency(n, degrees, bip.adjacency)

    def checked_state():
        hw.assert_weighted_degrees()
        hw.assert_half_graph_even()
        hw.assert_matching_weights(two_nu)

    if checked:
        checked_state()

    pairs = tuple((i, two_nu - i + 1) for i in range(1, two_nu // 2 + 1))
    edges = round_half_weights(hw, set(pairs), [], checked_state if checked else None)
    graph = Realization.from_edges(n, edges, Matching(pairs))
    if graph.degrees() != degrees:
        raise InternalError("rounded graph does not carry the input degrees")
    if not verify_matching(graph, pairs):
        raise InternalError("rounded graph lost the inverted prefix matching")
    return graph


def realize_mm(d: DegreeSequence, checked: bool = False) -> Realization:
    """Realization of ``d`` whose maximum matching size is the best possible.

    The certificate is the inverted prefix matching {(i, 2nu-i+1)}; isolated
    vertices from stripped zeros are appended and left unmatched.
    """
    if not is_graphic(d):
        raise NotGraphicError(f"sequence {d.values} is not graphic")
    n = d.n
    zeros = d.zero_count
    if n < 2:
        return Realization(n + zeros, frozenset(), Matching(()))
    nu = mm_value(d)
    assignment = max_flow(build_mm_flow(d, nu))
    if assignment.value != d.total - 2 * nu:
        raise InternalError(
            f"reduction network for nu={nu} failed to saturate after the "
            f"value search claimed feasibility")
    bip = extract_bipartite_mm(d, nu, assignment)
    graph = round_bipartite_mm(bip, checked=checked)
    if zeros == 0:
        return graph
    return Realization(n + zeros, graph.edges, graph.certificate)


def flip(g: Realization, x: int, u: int, y: int, v: int) -> Realization:
    """Swap edges (x,u), (y,v) for (x,y), (u,v), preserving all degrees.

    Requires the four vertices distinct, the removed pairs present, and the
    added pairs absent; violations raise FlipError.  The result carries no
    certificate (the input's certificate may not survive the rewiring).
    """
    ids = (x, u, y, v)
    if len(set(ids)) != 4:
        raise FlipError(f"vertices {ids} are not pairwise distinct")
    for w in ids:
        if not (1 <= w <= g.n):
            raise FlipError(f"vertex {w} out of range 1..{g.n}")
    edges = set(g.edges)

    def key(a, b):
        return (a, b) if a < b else (b, a)

    if key(x, u) not in edges or key(y, v) not in edges:
        raise FlipError("edges to remove are not both present")
    if key(x, y) in edges or key(u, v) in edges:
        raise FlipError("edges to add are not both absent")
    edges.discard(key(x, u))
    edges.discard(key(y, v))
    edges.add(key(x, y))
    edges.add(key(u, v))
    return Realization(g.n, frozenset(edges))


def verify_matching(g: Realization, pairs) -> bool:
    """True iff ``pairs`` are edges of ``g`` and pairwise vertex-disjoint."""
    seen: set[int] = set()
    for a, b in pairs:
        e = (a, b) if a < b else (b, a)
        if e not in g.edges:
            return False
        if a in seen or b in seen:
            return False
        seen.add(a)
        seen.add(b)
    return True


def invert_matching(g: Realization, pairs) -> Realization:
    """Rewire ``g`` so its prefix matching becomes the inverted form
    {(i, 2nu-i+1)}, preserving every degree.

    ``pairs`` must be a matching of ``g`` covering exactly the vertices
    1..2nu, whose degrees are non-increasing in vertex index.  Each round
    fixes the lowest unmatched-to-partner position i by exchanging partners
    with the pair currently holding 2nu-i+1, using at most one degree-
    preserving edge swap; the lowest fixed position strictly increases, so
    at most nu rounds run.  The result certificate is the inverted matching.
    """
    matched: dict[int, int] = {}
    edges = set(g.edges)
    for a, b in pairs:
        e = (a, b) if a < b else (b, a)
        if e not in edges:
            raise ContractError(f"matching pair {e} is not an edge")
        if a in matched or b in matched or a == b:
            raise ContractError(f"pair ({a}, {b}) overlaps another matching pair")
        matched[a] = b
        matched[b] = a
    two_nu = len(matched)
    nu = two_nu // 2
    if set(matched) != set(range(1, two_nu + 1)):
        raise ContractError(f"matching must cover exactly vertices 1..{two_nu}")
    deg = g.degrees()
    for i in range(1, two_nu):
        if deg[i - 1] < deg[i]:
            raise ContractError("degrees on the matched prefix must be non-increasing")

    adj = [set() for _ in range(g.n + 1)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)

    def do_flip(rm1, rm2, ad1, ad2):
        for a, b in (rm1, rm2):
            edges.discard((a, b) if a < b else (b, a))
            adj[a].discard(b)
            adj[b].discard(a)
        for a, b in (ad1, ad2):
            if b in adj[a]:
                raise InternalError(f"swap would duplicate edge ({a}, {b})")
            edges.add((a, b) if a < b else (b, a))
            adj[a].add(b)
            adj[b].add(a)

    rounds = 0
    while True:
        i = next((i for i in range(1, nu + 1) if matched[i] != two_nu - i + 1), None)
        if i is None:
            break
        rounds += 1
        if rounds > nu:
            raise InternalError("progress measure failed to increase within nu rounds")
        j = two_nu - i + 1
        x = matched[i]
        y = matched[j]
        ij_edge = j in adj[i]
        xy_edge = y in adj[x]
        if ij_edge and xy_edge:
            pass
        elif not ij_edge and not xy_edge:
            do_flip((i, x), (y, j), (i, j), (x, y))
        elif ij_edge and not xy_edge:
            z = next((z for z in range(1, g.n + 1)
                      if z not in (i, j, x, y) and z in adj[x] and z not in adj[j]), None)
            if z is None:
                raise InternalError(f"no witness vertex to free ({x}, {y})")
            do_flip((x, z), (j, y), (x, y), (j, z))
        else:
            z = next((z for z in range(1, g.n + 1)
                      if z not in (i, j, x, y) and z in adj[i] and z not in adj[y]), None)
            if z is None:
                raise InternalError(f"no witness vertex to free ({i}, {j})")
            do_flip((i, z), (j, y), (i, j), (y, z))
        matched[i], matched[j] = j, i
        matched[x], matched[y] = y, x

    result_pairs = tuple((i, two_nu - i + 1) for i in range(1, nu + 1))
    out = Realization(g.n, frozenset(edges), Matching(result_pairs))
    if out.degrees() != deg:
        raise InternalError("degree sequence changed during inversion")
    if not verify_matching(out, result_pairs):
        raise InternalError("inverted matching is not contained in the output")
    return out
