"""Degree sequences, graphicality testing, and the basic realization objects.

Vertices are 1-based everywhere in the public API.  A degree sequence is kept
sorted in non-increasing order with zero entries stripped at construction;
the number of stripped zeros is remembered so that operations which care
about isolated vertices can add them back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

from .errors import DomainError, NotGraphicError, ParseError

__all__ = [
    "DegreeSequence",
    "DominatingSet",
    "Matching",
    "Realization",
    "format_sequence",
    "havel_hakimi_realize",
    "is_graphic",
    "parse_sequence",
]

_TOKEN_SPLIT = re.compile(r"[\s,]+")


@dataclass(frozen=True)
class DegreeSequence:
    """A non-increasing sequence of positive vertex degrees.

    ``values`` holds the positive entries; ``zero_count`` records how many
    zero entries were stripped during construction.
    """

    values: tuple[int, ...]
    zero_count: int = 0

    def __post_init__(self):
        for i, v in enumerate(self.values):
            if not isinstance(v, int) or v < 1:
                raise DomainError(f"degree at position {i + 1} is {v!r}, expected a positive integer")
            if i > 0 and self.values[i - 1] < v:
                raise DomainError("degrees must be sorted in non-increasing order")
        if self.zero_count < 0:
            raise DomainError("zero_count must be non-negative")

    @classmethod
    def from_degrees(cls, degrees: Iterable[int]) -> "DegreeSequence":
        """Build a sequence from arbitrary order, stripping zeros."""
        vals = []
        zeros = 0
        for v in degrees:
            if not isinstance(v, int) or isinstance(v, bool):
                raise DomainError(f"degree {v!r} is not an integer")
            if v < 0:
                raise DomainError(f"degree {v} is negative")
            if v == 0:
                zeros += 1
            else:
                vals.append(v)
        vals.sort(reverse=True)
        return cls(tuple(vals), zeros)

    @property
    def n(self) -> int:
        """Number of positive-degree vertices."""
        return len(self.values)

    @property
    def total(self) -> int:
        """Sum of all degrees."""
        return sum(self.values)

    @property
    def total_vertices(self) -> int:
        """Vertex count including stripped zeros."""
        return len(self.values) + self.zero_count

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


def parse_sequence(text: str) -> DegreeSequence:
    """Parse whitespace- or comma-separated degrees into a DegreeSequence.

    Input order is not preserved: the result is sorted non-increasing with
    zeros stripped (and counted).  Raises ParseError for non-integer tokens
    and DomainError for negative entries or empty input.
    """
    tokens = [t for t in _TOKEN_SPLIT.split(text.strip()) if t]
    if not tokens:
        raise DomainError("empty degree sequence input")
    degrees = []
    for tok in tokens:
        try:
            degrees.append(int(tok))
        except ValueError:
            raise ParseError(f"token {tok!r} is not an integer") from None
    return DegreeSequence.from_degrees(degrees)


def format_sequence(d: DegreeSequence) -> str:
    """Render a sequence as space-separated degrees, stripped zeros included."""
    parts = [str(v) for v in d.values] + ["0"] * d.zero_count
    return " ".join(parts)


def _eg_inequalities_hold(values_desc: np.ndarray) -> bool:
    """Check the classical degree-sum inequalities for a non-increasing array.

    Does not test parity of the degree sum; zero entries are permitted.
    Runs in O(n log n) via vectorized prefix sums.
    """
    n = int(values_desc.shape[0])
    if n == 0:
        return True
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(values_desc, out=prefix[1:])
    ks = np.arange(1, n + 1, dtype=np.int64)
    asc = values_desc[::-1]
    # cnt[k-1] = number of entries >= k
    cnt = n - np.searchsorted(asc, ks, side="left")
    split = np.maximum(ks, cnt)
    rhs = ks * (ks - 1) + ks * np.maximum(cnt - ks, 0) + (prefix[n] - prefix[split])
    return bool(np.all(prefix[1:] <= rhs))


def _degree_reaches_n(d: DegreeSequence) -> bool:
    """True iff the largest degree is at least n.

    No vertex can have more than n - 1 partners among the n positive-degree
    vertices, in a graph or in the doubled bipartite problem, so such a
    sequence is infeasible everywhere.  Testing this first also keeps every
    degree (and every prefix sum, below n^2) well inside int64.
    """
    return d.n > 0 and d.values[0] >= d.n


def is_graphic(d: DegreeSequence) -> bool:
    """Decide whether some simple graph has exactly these vertex degrees.

    True iff the degree sum is even and every prefix inequality
    ``sum(d[:k]) <= k(k-1) + sum(min(k, d_i) for i > k)`` holds.
    """
    if _degree_reaches_n(d):
        return False
    arr = np.asarray(d.values, dtype=np.int64)
    if int(arr.sum()) % 2 != 0:
        return False
    return _eg_inequalities_hold(arr)


class DominatingSet(NamedTuple):
    """Certificate: every vertex outside ``vertices`` has a neighbor inside."""

    vertices: tuple[int, ...]


class Matching(NamedTuple):
    """Certificate: pairwise vertex-disjoint edges of the realization."""

    pairs: tuple[tuple[int, int], ...]


Certificate = Union[DominatingSet, Matching]


@dataclass(frozen=True)
class Realization:
    """A simple graph on vertices ``1..n`` with an optional certificate."""

    n: int
    edges: frozenset[tuple[int, int]]
    certificate: Optional[Certificate] = None

    def __post_init__(self):
        for (u, v) in self.edges:
            if not (1 <= u < v <= self.n):
                raise DomainError(f"edge ({u}, {v}) is not a normalized pair within 1..{self.n}")

    @staticmethod
    def normalize_edges(edges: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
        out = set()
        for u, v in edges:
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            out.add((u, v) if u < v else (v, u))
        return frozenset(out)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   certificate: Optional[Certificate] = None) -> "Realization":
        return cls(n, cls.normalize_edges(edges), certificate)

    def degrees(self) -> tuple[int, ...]:
        """Per-vertex degrees, indexed by vertex (position 0 is vertex 1)."""
        deg = [0] * (self.n + 1)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg[1:])

    def realizes(self, d: DegreeSequence) -> bool:
        """True iff vertex i has degree d_i (stripped zeros appended last)."""
        if self.n != d.total_vertices:
            return False
        want = tuple(d.values) + (0,) * d.zero_count
        return self.degrees() == want


def havel_hakimi_realize(d: DegreeSequence) -> Realization:
    """Construct some realization by repeatedly satisfying the largest residual degree.

    Deterministic: the vertex with the largest residual (lowest index on ties)
    is connected to the next-largest residuals (again lowest index first).
    Isolated vertices stripped from ``d`` are appended at the end.
    Raises NotGraphicError when no realization exists.
    """
    if not is_graphic(d):
        raise NotGraphicError(f"sequence {d.values} is not graphic")
    n = d.n
    residual = list(d.values)
    edges = []
    # active vertices re-sorted by (-residual, index) each round
    active = list(range(1, n + 1))
    while True:
        active = [v for v in active if residual[v - 1] > 0]
        if not active:
            break
        active.sort(key=lambda v: (-residual[v - 1], v))
        u = active[0]
        need = residual[u - 1]
        if need > len(active) - 1:
            raise NotGraphicError(f"sequence {d.values} is not graphic")
        residual[u - 1] = 0
        for v in active[1:need + 1]:
            residual[v - 1] -= 1
            edges.append((u, v) if u < v else (v, u))
    return Realization.from_edges(n + d.zero_count, edges)
