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
network is solved only once per witness, by ``realize_mm``, on its block
pattern without being built; the test suite cross-checks the reduction
test against the saturation of the built network.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .bipartite import (BipartiteRealization, _from_assignment,
                        _from_reduction_flow)
from .errors import ContractError, DomainError, FlipError, InternalError
from .flow import FlowAssignment, FlowNetwork, _build_reduction_network
from .rounding import HalfWeights, round_half_weights
from .sequences import (DegreeSequence, Matching, Realization, _edge_rows,
                        _eg_inequalities_hold, _first_holding, _integer,
                        _require_graphic, _vertex_pairs)

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

def _check_nu(d: DegreeSequence, nu: int) -> int:
    nu = _integer(nu, "nu")
    if not (0 <= 2 * nu <= d.n):
        raise DomainError(f"nu={nu} out of range [0, {d.n // 2}]")
    return nu


def build_mm_flow(d: DegreeSequence, nu: int) -> FlowNetwork:
    """Reduction network whose saturation at sum(d) - 2*nu certifies a
    realization pair with the inverted prefix matching.

    Every position is a prefix position, so there are no supplementary
    nodes: source 0, x_1..x_n are 1..n, y_1..y_n are n+1..2n, sink 2n+1
    (see ``flow._build_reduction_network``).  Matched positions (i <= 2*nu)
    get source/sink capacity d_i - 1; the unit arcs omit the diagonal
    (x_i, y_i) and the matched partners (x_i, y_{2nu-i+1}).
    """
    nu = _check_nu(d, nu)
    return _build_reduction_network(d.n, *_mm_pattern(d, nu))


def _mm_pattern(d: DegreeSequence, nu: int) -> tuple[int, list[int], list[int]]:
    """Reduction pattern (prefix, caps, partner) for (d, nu): every position
    is a prefix position, and a matched position i <= 2*nu spends one unit
    of its capacity on the pair (i, 2*nu-i+1), which the network omits."""
    two_nu = 2 * nu
    caps = [0] + [v - 1 if i <= two_nu else v for i, v in enumerate(d.values, 1)]
    partner = [0] + [two_nu - i + 1 if i <= two_nu else 0 for i in range(1, d.n + 1)]
    return d.n, caps, partner


def _mm_feasible_reduction(values: np.ndarray, nu: int) -> bool:
    """Graphicality of a graphic non-increasing ``values`` with its top
    2*nu entries lowered by one.

    Lowering the top 2*nu entries breaks the order only inside the run of
    entries equal to x = values[2*nu - 1] that straddles position 2*nu.
    Lowering the tail of that run instead gives the same multiset, still
    non-increasing, so no sort is needed.
    """
    two_nu = 2 * nu
    if two_nu == 0:
        return _eg_inequalities_hold(values)
    n = values.shape[0]
    asc = values[::-1]
    x = values[two_nu - 1]
    above = n - int(np.searchsorted(asc, x, side="right"))   # entries > x
    end = n - int(np.searchsorted(asc, x, side="left"))      # entries >= x
    arr = values.copy()
    arr[:above] -= 1
    arr[end - (two_nu - above):end] -= 1
    # entries lowered to zero sit at the end; parity is inherited: d graphic
    # means sum(d) even, and 2*nu is even
    return _eg_inequalities_hold(arr[:np.count_nonzero(arr)])


def mm_feasible(d: DegreeSequence, nu: int) -> bool:
    """True iff some realization of ``d`` has a matching of size nu.

    Equivalent to the reduction network for (d, nu) saturating at
    sum(d) - 2*nu, and answered at every size by the O(n log n)
    prefix-reduction graphicality test instead of the flow.
    """
    nu = _check_nu(d, nu)
    return _mm_feasible_reduction(_require_graphic(d), nu)


def mm_value(d: DegreeSequence) -> int:
    """Largest matching size over all realizations of ``d``.

    No matching is larger than n // 2, so the search starts there and
    gallops downward; feasibility is monotone (a matching of size nu
    contains one of size nu - 1) and size zero always holds.  On most
    inputs some realization has a (near-)perfect matching, and then one
    probe decides the value.  Stripped zero entries never participate in
    a matching.
    """
    return _mm_search(_require_graphic(d))


def _mm_search(values: np.ndarray) -> int:
    """``mm_value`` of the graphic non-increasing positive ``values``."""
    half = int(values.shape[0]) // 2
    return half - _first_holding(lambda k: _mm_feasible_reduction(values, half - k), 0, half)


def extract_bipartite_mm(d: DegreeSequence, nu: int,
                         assignment: FlowAssignment) -> BipartiteRealization:
    """Read an inverted-prefix-matched bipartite realization off a
    saturating flow, adding the matching pairs the network omits."""
    nu = _check_nu(d, nu)
    return _from_assignment(d.n, 2 * nu, "mm", d.values, *_mm_pattern(d, nu), assignment)


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
    return _round_mm(HalfWeights.from_rows(bip.n, bip.degrees, bip.rows), bip.prefix, checked)


def _round_mm(hw: HalfWeights, two_nu: int, checked: bool) -> Realization:
    """``round_bipartite_mm`` on the half-weights of a realization that is
    already validated, with 2*nu matched positions; ``hw`` is consumed."""

    def checked_state():
        hw.assert_weighted_degrees()
        hw.assert_half_graph_even()
        hw.assert_matching_weights(two_nu)

    if checked:
        checked_state()

    pairs = tuple((i, two_nu - i + 1) for i in range(1, two_nu // 2 + 1))
    graph = round_half_weights(hw, set(pairs), [], checked_state if checked else None,
                               Matching(pairs))
    if not verify_matching(graph, pairs):
        raise InternalError("rounded graph lost the inverted prefix matching")
    return graph


def realize_mm(d: DegreeSequence, checked: bool = False) -> Realization:
    """Realization of ``d`` whose maximum matching size is the best possible.

    The certificate is the inverted prefix matching {(i, 2nu-i+1)}; isolated
    vertices from stripped zeros are appended and left unmatched.
    """
    n = d.n
    nu = _mm_search(_require_graphic(d))
    hw = _from_reduction_flow(n, 2 * nu, "mm", d.values, *_mm_pattern(d, nu))
    graph = _round_mm(hw, 2 * nu, checked)
    if d.zero_count == 0:
        return graph
    return Realization._from_array(d.total_vertices, graph._array, graph.certificate)


def flip(g: Realization, x: int, u: int, y: int, v: int) -> Realization:
    """Swap edges (x,u), (y,v) for (x,y), (u,v), preserving all degrees.

    Requires the four vertices distinct, the removed pairs present, and the
    added pairs absent; violations raise FlipError, and a vertex that is not
    an integer DomainError.  The result carries no certificate (the input's
    certificate may not survive the rewiring).  It is a copy of ``g``'s edge
    array with the two removed rows overwritten by the added pairs.
    """
    ids = tuple(_integer(w, "vertex") for w in (x, u, y, v))
    if len(set(ids)) != 4:
        raise FlipError(f"vertices {ids} are not pairwise distinct")
    for w in ids:
        if not (1 <= w <= g.n):
            raise FlipError(f"vertex {w} out of range 1..{g.n}")
    x, u, y, v = ids

    def key(a, b):
        return (a, b) if a < b else (b, a)

    removed = _edge_rows(g._array, [key(x, u), key(y, v)])
    if removed.min() < 0:
        raise FlipError("edges to remove are not both present")
    if _edge_rows(g._array, [key(x, y), key(u, v)]).max() >= 0:
        raise FlipError("edges to add are not both absent")
    arr = g._array.copy()
    arr[removed] = [key(x, y), key(u, v)]
    return Realization._from_array(g.n, arr)


def verify_matching(g: Realization, pairs) -> bool:
    """True iff ``pairs`` are edges of ``g`` and pairwise vertex-disjoint;
    a pair that is not two integers raises DomainError."""
    pairs = _vertex_pairs(pairs)
    ends = list(chain.from_iterable(pairs))
    if len(set(ends)) < len(ends) or (ends and not 1 <= min(ends) <= max(ends) <= g.n):
        return False
    return bool(np.all(_edge_rows(g._array, pairs) >= 0))


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
    pairs = _vertex_pairs(pairs)
    matched: dict[int, int] = {}
    for a, b in pairs:
        if a in matched or b in matched or a == b:
            raise ContractError(f"pair ({a}, {b}) overlaps another matching pair")
        matched[a] = b
        matched[b] = a
    two_nu = len(matched)
    nu = two_nu // 2
    if set(matched) != set(range(1, two_nu + 1)):
        raise ContractError(f"matching must cover exactly vertices 1..{two_nu}")
    missing = np.flatnonzero(_edge_rows(g._array, pairs) < 0)
    if missing.size:
        raise ContractError(f"matching pair {pairs[missing[0]]} is not an edge")
    deg = g.degrees()
    for i in range(1, two_nu):
        if deg[i - 1] < deg[i]:
            raise ContractError("degrees on the matched prefix must be non-increasing")

    adj = [set() for _ in range(g.n + 1)]
    for a, b in g._array.tolist():
        adj[a].add(b)
        adj[b].add(a)

    def do_flip(rm1, rm2, ad1, ad2):
        for a, b in (rm1, rm2):
            adj[a].discard(b)
            adj[b].discard(a)
        for a, b in (ad1, ad2):
            if b in adj[a]:
                raise InternalError(f"swap would duplicate edge ({a}, {b})")
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
        else:
            # degree-preserving swap when one of (i, j), (x, y) is an edge:
            # trade (p, z), (j, y) for (p, q), (s, z), making non-edge (p, q) one
            p, q, s = (x, y, j) if ij_edge else (i, j, y)
            z = next((z for z in range(1, g.n + 1)
                      if z not in (i, j, x, y) and z in adj[p] and z not in adj[s]), None)
            if z is None:
                raise InternalError(f"no witness vertex to free ({p}, {q})")
            do_flip((p, z), (j, y), (p, q), (s, z))
        matched[i], matched[j] = j, i
        matched[x], matched[y] = y, x

    result_pairs = tuple((i, two_nu - i + 1) for i in range(1, nu + 1))
    out = Realization._from_sets(g.n, adj, Matching(result_pairs))
    if out.degrees() != deg:
        raise InternalError("degree sequence changed during inversion")
    if not verify_matching(out, result_pairs):
        raise InternalError("inverted matching is not contained in the output")
    return out
