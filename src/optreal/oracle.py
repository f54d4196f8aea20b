"""Exhaustive ground truth for small instances.

Enumerates every labeled realization of a degree sequence and computes exact
minimum-dominating-set and maximum-matching sizes per graph, so the optimized
values over all realizations can be checked against the fast algorithms.
Instances are capped at a configurable vertex limit (default 8), which may
not exceed MAX_LIMIT = 10.  The number of realizations grows exponentially
with n: a 4-regular sequence has 19,355 labeled realizations at n = 8 and
1,024,380 at n = 9, enumerated in ~0.6 s and ~27 s on a 2-core host, so a
higher limit would admit inputs that do not finish.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .errors import LimitError
from .sequences import (DegreeSequence, Realization, _integer,
                        _require_graphic)

__all__ = [
    "DEFAULT_LIMIT",
    "MAX_LIMIT",
    "enumerate_realizations",
    "exact_mds",
    "exact_mm",
    "oracle_mds",
    "oracle_mm",
]

DEFAULT_LIMIT = 8
MAX_LIMIT = 10


def _check_limit(n: int, limit: int):
    limit = _integer(limit, "limit")
    if limit > MAX_LIMIT:
        raise LimitError(f"enumeration limit {limit} exceeds the maximum {MAX_LIMIT}")
    if n > limit:
        raise LimitError(f"n={n} exceeds the enumeration limit {limit}")


def _residuals_graphic(residuals: list[int]) -> bool:
    """Feasibility of completing the remaining degrees with fresh edges."""
    vals = sorted((r for r in residuals if r > 0), reverse=True)
    if sum(vals) % 2 != 0:
        return False
    n = len(vals)
    prefix = 0
    for k in range(1, n + 1):
        prefix += vals[k - 1]
        tail = sum(min(k, vals[i]) for i in range(k, n))
        if prefix > k * (k - 1) + tail:
            return False
    return True


def enumerate_realizations(d: DegreeSequence, limit: int = DEFAULT_LIMIT) -> Iterator[Realization]:
    """Yield every labeled simple graph realizing ``d``, each exactly once.

    Vertices carry the degrees position-by-position (vertex 1 has degree
    d_1, ...).  Backtracks over each vertex's higher-indexed neighbor set
    with exact graphicality pruning on the residual degrees, so only
    extendable partial graphs are explored.  Stripped zeros are not
    represented as vertices here.
    """
    n = d.n
    _check_limit(n, limit)
    residual = list(d.values)
    edges: list[tuple[int, int]] = []

    def backtrack(u: int) -> Iterator[Realization]:
        if u > n:
            yield Realization.from_edges(n, list(edges))
            return
        need = residual[u - 1]
        if need == 0:
            yield from backtrack(u + 1)
            return
        candidates = [v for v in range(u + 1, n + 1) if residual[v - 1] > 0]
        if len(candidates) < need:
            return
        for chosen in combinations(candidates, need):
            for v in chosen:
                residual[v - 1] -= 1
            residual[u - 1] = 0
            if _residuals_graphic(residual[u:]):
                edges.extend((u, v) for v in chosen)
                yield from backtrack(u + 1)
                del edges[-need:]
            residual[u - 1] = need
            for v in chosen:
                residual[v - 1] += 1

    return backtrack(1)


def _closed_neighborhood_masks(g: Realization) -> list[int]:
    masks = [0] * (g.n + 1)
    for v in range(1, g.n + 1):
        masks[v] = 1 << v
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def exact_mds(g: Realization) -> int:
    """Exact minimum dominating set size by subset search in increasing size."""
    n = g.n
    if n == 0:
        return 0
    masks = _closed_neighborhood_masks(g)
    full = ((1 << n) - 1) << 1
    vertices = range(1, n + 1)
    for size in range(1, n + 1):
        for subset in combinations(vertices, size):
            covered = 0
            for v in subset:
                covered |= masks[v]
            if covered == full:
                return size
    raise AssertionError("unreachable: the full vertex set always dominates")


def exact_mm(g: Realization) -> int:
    """Exact maximum matching size by branching over edges with pruning.

    The search stops as soon as a matching covers all but at most one of
    the vertices that have an edge, since none can be larger.
    """
    edges = sorted(g.edges)
    m = len(edges)
    perfect = len({w for e in edges for w in e}) // 2
    best = 0

    def branch(idx: int, used: int, size: int):
        nonlocal best
        if size > best:
            best = size
        # remaining edges bound
        if best == perfect or size + (m - idx) <= best:
            return
        for k in range(idx, m):
            u, v = edges[k]
            bit = (1 << u) | (1 << v)
            if used & bit:
                continue
            branch(k + 1, used | bit, size + 1)
            if best == perfect:
                return

    branch(0, 0, 0)
    return best


def _require_small_graphic(d: DegreeSequence, limit: int):
    _check_limit(d.n, limit)
    _require_graphic(d)


def oracle_mds(d: DegreeSequence, limit: int = DEFAULT_LIMIT) -> int:
    """Minimum dominating set size achievable over all realizations of ``d``.

    Stripped zero entries count as isolated vertices, each of which must be
    in every dominating set.
    """
    _require_small_graphic(d, limit)
    best = min((exact_mds(g) for g in enumerate_realizations(d, limit)), default=0)
    return best + d.zero_count


def oracle_mm(d: DegreeSequence, limit: int = DEFAULT_LIMIT) -> int:
    """Maximum matching size achievable over all realizations of ``d``."""
    _require_small_graphic(d, limit)
    return max((exact_mm(g) for g in enumerate_realizations(d, limit)), default=0)
