"""Minimum dominating set over all realizations of a degree sequence.

The size is computed from three Erdős–Gallai-style constraint systems that
characterize, for a candidate prefix length gamma, whether some realization
is dominated by its gamma highest-degree vertices.  A witness realization is
built by solving a max-flow reduction for the doubled sequence, reading off
a prefix-dominated bipartite realization, and rounding its half-integral
folding to an integral graph while protecting the domination structure.
"""

from __future__ import annotations

import numpy as np

from .bipartite import BipartiteRealization
from .errors import (ContractError, DomainError, InfeasibleError,
                     InternalError, NotGraphicError)
from .flow import FlowAssignment, FlowNetwork, max_flow
from .rounding import HalfWeights, round_half_weights
from .sequences import (DegreeSequence, DominatingSet, Realization,
                        _degree_reaches_n, _eg_inequalities_hold, is_graphic)

__all__ = [
    "build_mds_flow",
    "extract_bipartite_mds",
    "mds_feasible",
    "mds_systems_hold",
    "mds_value",
    "realize_mds",
    "round_bipartite_mds",
    "verify_dominating",
]


def _systems_hold(values: np.ndarray, gamma: int) -> bool:
    """Evaluate the three constraint systems for a non-increasing array."""
    n = int(values.shape[0])
    if n == 0:
        return True
    if not _eg_inequalities_hold(values):
        return False
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(values, out=prefix[1:])
    r = n - gamma
    ks = np.arange(0, r + 1, dtype=np.int64)
    pos = gamma + ks

    # Shared tail term: sum over i > gamma + k of min(k, d_i - 1).
    reduced_asc = (values - 1)[::-1]
    cnt_reduced = n - np.searchsorted(reduced_asc, ks, side="left")
    reduced_prefix = prefix - np.arange(0, n + 1, dtype=np.int64)
    split = np.maximum(pos, cnt_reduced)
    tail = ks * np.maximum(cnt_reduced - pos, 0) + (reduced_prefix[n] - reduced_prefix[split])

    # First system: the k nondominating vertices of largest degree, reduced
    # by one, against the prefix budget.
    lhs = (prefix[pos] - prefix[gamma]) - ks
    rhs = ks * (ks - 1) - r + prefix[gamma] + tail
    if not np.all(lhs <= rhs):
        return False

    # Third system: same selection at full degree, with the prefix capped
    # per-vertex at k.  Constraints beyond min(d_1, n - gamma) are implied.
    kmax = min(int(values[0]), r)
    ks3 = ks[:kmax + 1]
    asc = values[::-1]
    cnt = n - np.searchsorted(asc, ks3, side="left")
    in_prefix = np.minimum(gamma, cnt)
    capped_prefix = ks3 * in_prefix + (prefix[gamma] - prefix[in_prefix])
    lhs3 = prefix[gamma + ks3] - prefix[gamma]
    rhs3 = ks3 * (ks3 - 1) + capped_prefix + tail[:kmax + 1]
    return bool(np.all(lhs3 <= rhs3))


def _check_gamma(d: DegreeSequence, gamma: int):
    if not (0 <= gamma <= d.n):
        raise DomainError(f"gamma={gamma} out of range [0, {d.n}]")


def mds_systems_hold(d: DegreeSequence, gamma: int) -> bool:
    """Constraint systems alone, without the degree-sum parity requirement.

    This is exactly the condition under which the reduction network for
    (d, gamma) saturates, i.e. a prefix-dominated bipartite realization of
    the doubled sequence exists -- regardless of whether d itself is graphic.
    """
    _check_gamma(d, gamma)
    if _degree_reaches_n(d):
        return False
    return _systems_hold(np.asarray(d.values, dtype=np.int64), gamma)


def mds_feasible(d: DegreeSequence, gamma: int) -> bool:
    """True iff some realization of ``d`` has a dominating set of size gamma.

    Equivalent to the constraint systems holding together with an even
    degree sum (an odd sum admits no realization at all, although the
    bipartite doubled problem may still be feasible).
    """
    _check_gamma(d, gamma)
    if d.n == 0:
        return True
    if d.total % 2 != 0 or _degree_reaches_n(d):
        return False
    return _systems_hold(np.asarray(d.values, dtype=np.int64), gamma)


def mds_value(d: DegreeSequence) -> int:
    """Smallest dominating-set size over all realizations of ``d``.

    Binary search over the prefix length, justified by monotonicity: a
    dominating prefix of length gamma is also one of length gamma + 1.
    Stripped zero entries are isolated vertices and each adds one to the
    result (they can only dominate themselves).
    """
    if not is_graphic(d):
        raise NotGraphicError(f"sequence {d.values} is not graphic")
    if d.n == 0:
        return d.zero_count
    values = np.asarray(d.values, dtype=np.int64)
    lo, hi = 1, d.n
    while lo < hi:
        mid = (lo + hi) // 2
        if _systems_hold(values, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo + d.zero_count


def build_mds_flow(d: DegreeSequence, gamma: int) -> FlowNetwork:
    """Reduction network whose saturation certifies a gamma-prefix-dominated
    bipartite realization of (d, d).

    Node layout: source 0; x_1..x_n are 1..n; y_1..y_n are n+1..2n;
    supplementary x'_i (i > gamma) come next, then y'_j, then the sink.
    The prefix rows/columns connect directly; nonprefix pairs route through
    the supplementary nodes with capacity d_i - 1, which forces every
    nonprefix vertex to spend at least one unit on a prefix partner.
    Diagonal pairs (x_i, y_i) and (x'_i, y'_i) are omitted.
    """
    if not (1 <= gamma <= d.n):
        raise DomainError(f"gamma={gamma} out of range [1, {d.n}]")
    n = d.n
    r = n - gamma
    vals = d.values
    source = 0
    sink = 2 * n + 2 * r + 1
    xp0 = 2 * n - gamma        # x'_i = xp0 + i for i in gamma+1..n
    yp0 = 2 * n + r - gamma    # y'_j = yp0 + j

    def arcs():
        for i in range(1, n + 1):
            yield (source, i, vals[i - 1])
        for i in range(1, gamma + 1):
            for j in range(1, n + 1):
                if j != i:
                    yield (i, n + j, 1)
        for i in range(gamma + 1, n + 1):
            for j in range(1, gamma + 1):
                yield (i, n + j, 1)
        for i in range(gamma + 1, n + 1):
            yield (i, xp0 + i, vals[i - 1] - 1)
        for i in range(gamma + 1, n + 1):
            for j in range(gamma + 1, n + 1):
                if j != i:
                    yield (xp0 + i, yp0 + j, 1)
        for j in range(gamma + 1, n + 1):
            yield (yp0 + j, n + j, vals[j - 1] - 1)
        for j in range(1, n + 1):
            yield (n + j, sink, vals[j - 1])

    return FlowNetwork(2 * n + 2 * r + 2, source, sink, arcs())


def extract_bipartite_mds(d: DegreeSequence, gamma: int,
                          assignment: FlowAssignment) -> BipartiteRealization:
    """Read a prefix-dominated bipartite realization off a saturating flow."""
    _check_gamma(d, gamma)
    n = d.n
    r = n - gamma
    net = assignment.network
    if net.node_count != 2 * n + 2 * r + 2 or net.sink != 2 * n + 2 * r + 1:
        raise ContractError("assignment does not belong to the reduction network for (d, gamma)")
    if assignment.value < d.total:
        raise InfeasibleError(
            f"flow value {assignment.value} < {d.total}: no realization with a "
            f"dominating prefix of length {gamma}")
    xp0 = 2 * n - gamma
    yp0 = 2 * n + r - gamma
    adjacency = [bytearray(n + 1) for _ in range(n + 1)]
    flows = assignment.flows
    tails, heads = net.tails, net.heads
    for k in range(net.arc_count):
        if flows[k] != 1:
            continue
        u, v = tails[k], heads[k]
        if 1 <= u <= n and n + 1 <= v <= 2 * n:
            adjacency[u][v - n] = 1
        elif 2 * n + 1 <= u <= 2 * n + r and 2 * n + r + 1 <= v <= 2 * n + 2 * r:
            adjacency[u - xp0][v - yp0] = 1
    bip = BipartiteRealization(n, gamma, "mds", d.values, adjacency)
    try:
        bip.validate()
    except ContractError as exc:
        raise InternalError(f"saturating flow produced an invalid realization: {exc}") from exc
    return bip


def _find_two_dom_path(hw: HalfWeights, gamma: int, s: int):
    """Lowest-index four-vertex half-weight path (a, s, b, c) with a, b prefix
    dominators, or None."""
    doms = sorted(x for x in hw.half_adj[s] if x <= gamma)
    if len(doms) < 2:
        return None
    for a in doms:
        for b in doms:
            if b == a:
                continue
            for c in sorted(hw.half_adj[b]):
                if c != s and c != a:
                    return (a, b, c)
    return None


def _checked_state(hw: HalfWeights, gamma: int):
    hw.assert_weighted_degrees()
    hw.assert_half_graph_even()
    hw.assert_domination_weight(gamma)


def round_bipartite_mds(bip: BipartiteRealization, checked: bool = False) -> Realization:
    """Round a prefix-dominated bipartite realization to a general graph.

    Folds the incidence matrix into symmetric half-unit weights, then makes
    every weight integral without changing any weighted degree and without
    ever letting a nonprefix vertex lose its unit of weight toward the
    prefix: eliminate 2-dom paths with the three local modification rules,
    set aside a protected full-weight prefix edge per nonprefix vertex where
    one exists, cover the remaining half-weight edges by per-component
    closed walks plus a triangle per vertex still lacking a protected edge,
    and round the walks by alternation (pairing up odd ones).

    With ``checked`` set, every individual modification is followed by full
    invariant assertions (intended for small instances).
    """
    if bip.mode != "mds":
        raise ContractError(f"expected a bipartite realization in mds mode, got {bip.mode!r}")
    bip.validate()
    n, gamma = bip.n, bip.prefix
    degrees = bip.degrees
    hw = HalfWeights.from_bipartite_adjacency(n, degrees, bip.adjacency)
    if checked:
        _checked_state(hw, gamma)

    # Eliminate 2-dom paths.  Each rule application removes both half-weight
    # prefix edges of the path's center, so the per-vertex loop terminates;
    # processed vertices never regain such paths.
    for s in range(gamma + 1, n + 1):
        while True:
            found = _find_two_dom_path(hw, gamma, s)
            if found is None:
                break
            a, b, c = found
            ac = hw.w[a][c]
            if ac == 0:
                hw.set_weight(a, s, 0)
                hw.set_weight(s, b, 2)
                hw.set_weight(b, c, 0)
                hw.set_weight(a, c, 1)
            elif ac == 1:
                hw.set_weight(a, s, 2)
                hw.set_weight(s, b, 0)
                hw.set_weight(b, c, 2)
                hw.set_weight(a, c, 0)
            else:
                hw.set_weight(a, s, 2)
                hw.set_weight(s, b, 0)
                hw.set_weight(b, c, 2)
                hw.set_weight(a, c, 1)
            if checked:
                _checked_state(hw, gamma)
    if checked:
        for s in range(gamma + 1, n + 1):
            if _find_two_dom_path(hw, gamma, s) is not None:
                raise InternalError(f"2-dom path survived elimination at vertex {s}")

    # Protected edges: each nonprefix vertex either has a full-weight edge
    # into the prefix (kept untouched from here on), or exactly two
    # half-weight prefix neighbors forming a triangle with it.
    protected: set[tuple[int, int]] = set()
    triangles: list[tuple[int, int, int]] = []  # (a, s, b)
    for s in range(gamma + 1, n + 1):
        row = hw.w[s]
        full = next((x for x in range(1, gamma + 1) if row[x] == 2), None)
        if full is not None:
            protected.add((full, s))
            continue
        doms = sorted(x for x in hw.half_adj[s] if x <= gamma)
        if len(doms) != 2:
            raise InternalError(
                f"vertex {s} has {len(doms)} half-weight prefix neighbors, expected 2")
        a, b = doms
        if hw.w[a][b] != 1:
            raise InternalError(f"triangle edge ({a}, {b}) missing for vertex {s}")
        triangles.append((a, s, b))

    check = (lambda: _checked_state(hw, gamma)) if checked else None
    edges = round_half_weights(hw, protected, triangles, check)
    graph = Realization.from_edges(n, edges, DominatingSet(tuple(range(1, gamma + 1))))
    if graph.degrees() != degrees:
        raise InternalError("rounded graph does not carry the input degrees")
    if not verify_dominating(graph, range(1, gamma + 1)):
        raise InternalError("rounded graph is not dominated by its prefix")
    return graph


def realize_mds(d: DegreeSequence, checked: bool = False) -> Realization:
    """Realization of ``d`` whose dominating-set size is the minimum possible.

    The certificate lists the dominating prefix (plus any isolated vertices
    from stripped zero entries, appended after the positive-degree ones).
    """
    if not is_graphic(d):
        raise NotGraphicError(f"sequence {d.values} is not graphic")
    n = d.n
    zeros = d.zero_count
    if n == 0:
        return Realization(zeros, frozenset(),
                           DominatingSet(tuple(range(1, zeros + 1))))
    gamma = mds_value(d) - zeros
    assignment = max_flow(build_mds_flow(d, gamma))
    if assignment.value != d.total:
        raise InternalError(
            f"reduction network for gamma={gamma} failed to saturate after the "
            f"value search claimed feasibility")
    bip = extract_bipartite_mds(d, gamma, assignment)
    graph = round_bipartite_mds(bip, checked=checked)
    if zeros == 0:
        return graph
    certificate = DominatingSet(tuple(range(1, gamma + 1))
                                + tuple(range(n + 1, n + zeros + 1)))
    return Realization(n + zeros, graph.edges, certificate)


def verify_dominating(g: Realization, vertices) -> bool:
    """True iff every vertex of ``g`` outside ``vertices`` has a neighbor inside."""
    chosen = set(vertices)
    for v in chosen:
        if not (1 <= v <= g.n):
            raise DomainError(f"vertex {v} out of range 1..{g.n}")
    dominated = set(chosen)
    for u, v in g.edges:
        if u in chosen:
            dominated.add(v)
        if v in chosen:
            dominated.add(u)
    return len(dominated) == g.n
