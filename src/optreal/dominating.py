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

from .bipartite import (BipartiteRealization, _from_assignment,
                        _from_reduction_flow)
from .errors import ContractError, DomainError, InternalError
from .flow import FlowAssignment, FlowNetwork, _build_reduction_network
from .rounding import HalfWeights, round_half_weights
from .sequences import (DegreeSequence, DominatingSet, Realization,
                        _degree_reaches_n, _eg_inequalities_hold,
                        _first_holding, _integer, _require_graphic,
                        _values_array)

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
    """Evaluate the first and third constraint systems for a non-increasing
    array.

    The second system is the degree-sum (Erdős–Gallai) inequalities of
    ``values`` itself.  It does not depend on gamma and is not evaluated
    here: ``mds_systems_hold`` checks it beside this call, and the value
    search runs after the graphic gate, which checks it once per sequence
    rather than once per probe.  It is not implied by the other two: on
    2,361 of the 7,158 (d, gamma) pairs with n <= 7, gamma >= 1 and
    d_1 < n, both hold while it fails, and the network does not saturate.
    """
    n = int(values.shape[0])
    if n == 0:
        return True
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


def _check_gamma(d: DegreeSequence, gamma: int) -> int:
    gamma = _integer(gamma, "gamma")
    if not (0 <= gamma <= d.n):
        raise DomainError(f"gamma={gamma} out of range [0, {d.n}]")
    return gamma


def mds_systems_hold(d: DegreeSequence, gamma: int) -> bool:
    """Constraint systems alone, without the degree-sum parity requirement.

    This is exactly the condition under which the reduction network for
    (d, gamma) saturates, i.e. a prefix-dominated bipartite realization of
    the doubled sequence exists -- regardless of whether d itself is graphic.
    """
    gamma = _check_gamma(d, gamma)
    if _degree_reaches_n(d):
        return False
    values = _values_array(d)
    return _eg_inequalities_hold(values) and _systems_hold(values, gamma)


def mds_feasible(d: DegreeSequence, gamma: int) -> bool:
    """True iff some realization of ``d`` has a dominating set of size gamma.

    Equivalent to the constraint systems holding together with an even
    degree sum (an odd sum admits no realization at all, although the
    bipartite doubled problem may still be feasible).
    """
    return mds_systems_hold(d, gamma) and d.total % 2 == 0


def mds_value(d: DegreeSequence) -> int:
    """Smallest dominating-set size over all realizations of ``d``.

    A set of k vertices dominates at most the sum of their d_i + 1, so no
    gamma below the counting bound ``min{k : sum(d_i + 1 for i <= k) >= n}``
    can be feasible.  The search starts at that bound and gallops upward;
    feasibility is monotone (a dominating prefix of length gamma is also
    one of length gamma + 1) and gamma = n always holds.  The bound is
    exact on most inputs, and then one probe decides the value.  Each probe
    evaluates the constraint systems alone: the degree-sum inequalities
    hold because ``d`` is graphic.  Stripped zero entries are isolated
    vertices and each adds one to the result (they can only dominate
    themselves).
    """
    return _mds_search(_require_graphic(d)) + d.zero_count


def _mds_search(values: np.ndarray) -> int:
    """``mds_value`` of the graphic non-increasing positive ``values``."""
    n = int(values.shape[0])
    if n == 0:
        return 0
    # the full sum of d_i + 1 is at least 2n, so the bound lies in [1, n]
    bound = int(np.searchsorted(np.cumsum(values + 1), n)) + 1
    return _first_holding(lambda gamma: _systems_hold(values, gamma), bound, n)


def _mds_pattern(d: DegreeSequence, gamma: int):
    """Reduction pattern (prefix, caps, partner) for (d, gamma): the gamma
    prefix rows and columns connect directly, every source and sink
    capacity is the degree, and no pair besides the diagonal is excluded."""
    return gamma, (0,) + d.values, [0] * (d.n + 1)


def build_mds_flow(d: DegreeSequence, gamma: int) -> FlowNetwork:
    """Reduction network whose saturation certifies a gamma-prefix-dominated
    bipartite realization of (d, d).

    The nonprefix pairs route through supplementary nodes with capacity
    d_i - 1, which forces every nonprefix vertex to spend at least one unit
    on a prefix partner; see ``flow._build_reduction_network`` for the node
    layout.
    """
    gamma = _check_gamma(d, gamma)
    return _build_reduction_network(d.n, *_mds_pattern(d, gamma))


def extract_bipartite_mds(d: DegreeSequence, gamma: int,
                          assignment: FlowAssignment) -> BipartiteRealization:
    """Read a prefix-dominated bipartite realization off a saturating flow."""
    gamma = _check_gamma(d, gamma)
    return _from_assignment(d.n, gamma, "mds", d.values, *_mds_pattern(d, gamma), assignment)


def _find_two_dom_path(hw: HalfWeights, gamma: int, s: int):
    """Lowest-index four-vertex half-weight path (a, s, b, c) with a, b prefix
    dominators, or None."""
    doms = sorted(filter(gamma.__ge__, hw.half_adj[s]))
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
    return _round_mds(HalfWeights.from_rows(bip.n, bip.degrees, bip.rows), bip.prefix, checked)


def _round_mds(hw: HalfWeights, gamma: int, checked: bool) -> Realization:
    """``round_bipartite_mds`` on the half-weights of a realization that is
    already validated, with dominating prefix length ``gamma``; ``hw`` is
    consumed."""
    n = hw.n
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
            ac = hw.weight(a, c)
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
        # the least prefix vertex at full weight: probe the prefix when it
        # is shorter than the set, else scan the set
        full_s = hw.full[s]
        if gamma < len(full_s):
            full = next(filter(full_s.__contains__, range(1, gamma + 1)), None)
        else:
            full = min(filter(gamma.__ge__, full_s), default=None)
        if full is not None:
            protected.add((full, s))
            continue
        doms = sorted(filter(gamma.__ge__, hw.half_adj[s]))
        if len(doms) != 2:
            raise InternalError(
                f"vertex {s} has {len(doms)} half-weight prefix neighbors, expected 2")
        a, b = doms
        if b not in hw.half_adj[a]:
            raise InternalError(f"triangle edge ({a}, {b}) missing for vertex {s}")
        triangles.append((a, s, b))

    check = (lambda: _checked_state(hw, gamma)) if checked else None
    graph = round_half_weights(hw, protected, triangles, check,
                               DominatingSet(tuple(range(1, gamma + 1))))
    if not verify_dominating(graph, range(1, gamma + 1)):
        raise InternalError("rounded graph is not dominated by its prefix")
    return graph


def realize_mds(d: DegreeSequence, checked: bool = False) -> Realization:
    """Realization of ``d`` whose dominating-set size is the minimum possible.

    The certificate lists the dominating prefix (plus any isolated vertices
    from stripped zero entries, appended after the positive-degree ones).
    """
    n = d.n
    gamma = _mds_search(_require_graphic(d))
    hw = _from_reduction_flow(n, gamma, "mds", d.values, *_mds_pattern(d, gamma))
    graph = _round_mds(hw, gamma, checked)
    zeros = d.zero_count
    if zeros == 0:
        return graph
    certificate = DominatingSet(tuple(range(1, gamma + 1))
                                + tuple(range(n + 1, n + zeros + 1)))
    return Realization._from_array(n + zeros, graph._array, certificate)


def verify_dominating(g: Realization, vertices) -> bool:
    """True iff every vertex of ``g`` outside ``vertices`` has a neighbor inside."""
    chosen = {_integer(v, "vertex") for v in vertices}
    for v in chosen:
        if not (1 <= v <= g.n):
            raise DomainError(f"vertex {v} out of range 1..{g.n}")
    inside = np.zeros(g.n + 1, dtype=bool)
    inside[list(chosen)] = True
    u, v = g._array[:, 0], g._array[:, 1]
    dominated = inside.copy()
    dominated[v[inside[u]]] = True
    dominated[u[inside[v]]] = True
    return bool(dominated[1:].all())
