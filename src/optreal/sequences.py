"""Degree sequences, graphicality testing, and the basic realization objects.

Vertices are 1-based everywhere in the public API.  A degree sequence is kept
sorted in non-increasing order with zero entries stripped at construction;
the number of stripped zeros is remembered so that operations which care
about isolated vertices can add them back.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError, dataclass
from itertools import chain, islice
from typing import Collection, Iterable, Iterator, NamedTuple, Optional, Union

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

@dataclass(frozen=True)
class DegreeSequence:
    """A non-increasing sequence of positive vertex degrees.

    ``values`` holds the positive entries; ``zero_count`` records how many
    zero entries were stripped during construction.
    """

    values: tuple[int, ...]
    zero_count: int = 0

    # ``values`` as a read-only int64 array when the sequence was built from
    # one (see ``_from_array``), and the graphicality verdict once computed
    # (see ``_graphic_array``).  Not fields, so equality and hashing ignore
    # them; the sequence is frozen, so neither can go stale.
    _array = None
    _graphic = None

    def __post_init__(self):
        for i, v in enumerate(self.values):
            if type(v) is not int or v < 1:  # exact int: bool and subclasses are rejected
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
            if type(v) is not int:
                raise DomainError(f"degree {v!r} is not an integer")
            if v < 0:
                raise DomainError(f"degree {v} is negative")
            if v == 0:
                zeros += 1
            else:
                vals.append(v)
        vals.sort(reverse=True)
        return cls(tuple(vals), zeros)

    @classmethod
    def _from_array(cls, desc: np.ndarray, zero_count: int) -> "DegreeSequence":
        """Build from a non-increasing int64 array of positive degrees,
        without ``__post_init__``'s loop per entry.

        Nothing is checked again: the only caller, ``parse_sequence``, passes
        ``np.sort(arr[arr > 0])[::-1]`` of a one-dimensional int64 ``arr``
        and ``arr.size - positive.size``, so the order, the positivity and
        the zero count hold by construction, and ``tolist`` of an int64
        array yields exact ints.  The sequence keeps a read-only contiguous
        copy of ``desc`` as ``_array``, so the value path reads the degrees
        without converting ``values`` back.
        """
        arr = np.array(desc, order="C")
        arr.flags.writeable = False
        seq = object.__new__(cls)
        object.__setattr__(seq, "values", tuple(arr.tolist()))
        object.__setattr__(seq, "zero_count", zero_count)
        object.__setattr__(seq, "_array", arr)
        return seq

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


# Bytes of "plain" degree text: ASCII digits, ASCII whitespace and commas.
_PLAIN_BYTES = b"0123456789 \t\n\r\x0b\x0c,"
# A plain parse is kept only below this: numpy saturates a digit run past
# int64 at 2**63 - 1, so a larger value cannot be told from a saturated one.
_PLAIN_MAX = 10**18


def _parse_plain(text: str) -> Optional[np.ndarray]:
    """The degrees of a plain ``text`` as one int64 array, or None.

    Plain text holds only the bytes of ``_PLAIN_BYTES`` and at least one
    digit; each digit run is then one token, read by one C-level
    ``np.fromstring`` call.  The array is kept only if it has one entry per
    digit run and every entry is below ``_PLAIN_MAX``: otherwise numpy
    stopped early or saturated, and None sends the text to the general path.
    """
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    if raw.translate(None, _PLAIN_BYTES):
        return None
    digit = np.frombuffer(raw, np.uint8) >= 48   # the separators all lie below "0"
    # a run starts at a leading digit or at a digit after a separator
    runs = int(digit[:1].sum()) + int(np.count_nonzero(digit[1:] > digit[:-1]))
    if runs == 0:
        return None
    arr = np.fromstring(raw.replace(b",", b" "), dtype=np.int64, sep=" ")
    if arr.size != runs or arr.max() >= _PLAIN_MAX:
        return None
    return arr


def parse_sequence(text: str) -> DegreeSequence:
    """Parse whitespace- or comma-separated degrees into a DegreeSequence.

    Input order is not preserved: the result is sorted non-increasing with
    zeros stripped (and counted).  Raises ParseError for non-integer tokens
    and DomainError for negative entries or empty input.

    Plain text -- ASCII digits separated by ASCII whitespace and commas,
    every degree below 10**18 -- is read by one numpy call (``_parse_plain``)
    and keeps its int64 array.  Any other text is split and each token read
    by ``int()`` (signs, leading zeros, underscores, any Unicode decimal
    digits): that raises the ParseError naming the first bad token.  The
    tokens' ints then become one int64 array as well, unless one is negative
    or too big for int64: those go through ``from_degrees``, which names the
    first negative entry, or keeps a too-big degree as a Python int (at
    least n, so ``is_graphic`` rejects it before any fixed-width conversion).
    """
    arr = _parse_plain(text)
    if arr is None:
        tokens = text.replace(",", " ").split()
        if not tokens:
            raise DomainError("empty degree sequence input")
        degrees = []
        for tok in tokens:
            try:
                degrees.append(int(tok))
            except ValueError:
                # int() reads at most sys.get_int_max_str_digits() digits
                digits = tok[1:] if tok[0] in "+-" else tok
                what = "has more digits than int() reads" if digits.isdecimal() else "is not an integer"
                quoted = repr(tok) if len(tok) <= 40 else f"{tok[:40]!r}... ({len(tok)} characters)"
                raise ParseError(f"token {quoted} {what}") from None
        try:
            arr = np.array(degrees, dtype=np.int64)
        except OverflowError:
            arr = None
        if arr is None or arr.min() < 0:
            return DegreeSequence.from_degrees(degrees)
    positive = np.sort(arr[arr > 0])[::-1]
    return DegreeSequence._from_array(positive, arr.size - positive.size)


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


def _values_array(d: DegreeSequence) -> np.ndarray:
    """``d.values`` as an int64 array: the one ``d`` keeps, if any, else a
    fresh conversion (each call converts again; nothing is cached)."""
    if d._array is not None:
        return d._array
    return np.asarray(d.values, dtype=np.int64)


def _graphic_array(d: DegreeSequence) -> Optional[np.ndarray]:
    """``d.values`` as an int64 array if ``d`` is graphic, else None.

    The verdict is computed once per sequence and kept on it as ``_graphic``;
    two threads computing it at once store the same bool.
    """
    graphic = d._graphic
    if graphic is None:
        arr = None if _degree_reaches_n(d) else _values_array(d)
        graphic = arr is not None and int(arr.sum()) % 2 == 0 and _eg_inequalities_hold(arr)
        object.__setattr__(d, "_graphic", graphic)
        return arr if graphic else None
    return _values_array(d) if graphic else None


def _not_graphic(d: DegreeSequence) -> NotGraphicError:
    """The error for a non-graphic ``d``.  Past ten degrees the message names
    the count and the first ten only, so it stays short at any n."""
    if d.n <= 10:
        return NotGraphicError(f"sequence {d.values} is not graphic")
    return NotGraphicError(f"sequence of {d.n} degrees, starting {d.values[:10]}, is not graphic")


def _require_graphic(d: DegreeSequence) -> np.ndarray:
    """``d.values`` as an int64 array; raises NotGraphicError unless ``d`` is graphic."""
    arr = _graphic_array(d)
    if arr is None:
        raise _not_graphic(d)
    return arr


def is_graphic(d: DegreeSequence) -> bool:
    """Decide whether some simple graph has exactly these vertex degrees.

    True iff the degree sum is even and every prefix inequality
    ``sum(d[:k]) <= k(k-1) + sum(min(k, d_i) for i > k)`` holds.
    """
    return _graphic_array(d) is not None


def _first_holding(holds, lo: int, hi: int) -> int:
    """Smallest x in [lo, hi] with ``holds(x)``, for a monotone predicate
    (false, then true) known to fail below lo and to hold at hi.

    Gallops upward from lo -- probing lo, lo + 2, lo + 6, lo + 14, ... --
    then bisects the last gap, so an answer at lo costs one probe and an
    answer t steps above it O(log t) probes.  hi itself is never probed.
    """
    step = 1
    while lo < hi:
        probe = lo + step - 1
        if probe >= hi:
            break
        if holds(probe):
            hi = probe
            break
        lo = probe + 1
        step *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


class DominatingSet(NamedTuple):
    """Certificate: every vertex outside ``vertices`` has a neighbor inside."""

    vertices: tuple[int, ...]


class Matching(NamedTuple):
    """Certificate: pairwise vertex-disjoint edges of the realization."""

    pairs: tuple[tuple[int, int], ...]


Certificate = Union[DominatingSet, Matching]


class Realization:
    """A simple graph on vertices ``1..n`` with an optional certificate.

    Its edges are one read-only (m, 2) int64 array, a row (u, v) with
    1 <= u < v <= n per edge, which the degrees, the verifiers and the CLI
    read.  ``edges``, the same edges as a frozenset, is built on first read
    (racing threads keep equal sets).  Equality and hashing compare n, the
    edge set and the certificate.  Edges given as a list or tuple must not
    repeat a pair.
    """

    __slots__ = ("n", "certificate", "_array", "_edges")

    def __new__(cls, n: int, edges: Collection[tuple[int, int]],
                certificate: Optional[Certificate] = None):
        n = _integer(n, "vertex count")
        if not 0 <= n < 2**63:
            raise DomainError(f"vertex count {n} out of range 0..2**63-1")
        flat = None
        try:
            # one C-level pass each: every edge a pair, every endpoint an
            # integer (``operator.index`` refuses 2.5 and "3", which
            # ``np.fromiter`` alone would truncate or parse) within int64
            if set(map(len, edges)) <= {2}:
                flat = np.fromiter(map(operator.index, chain.from_iterable(edges)),
                                   dtype=np.int64, count=2 * len(edges))
        except (TypeError, OverflowError):
            pass
        if flat is None:
            _reject_first_bad_edge(n, edges)
        graph = cls._from_array(n, flat.reshape(-1, 2), certificate, edges)
        if not isinstance(edges, (set, frozenset)):
            pairs, counts = np.unique(graph._array, axis=0, return_counts=True)
            if pairs.shape[0] < len(edges):
                u, v = pairs[int(np.argmax(counts > 1))].tolist()
                raise DomainError(f"edge ({u}, {v}) is repeated")
        return graph

    @classmethod
    def _from_array(cls, n: int, arr: np.ndarray, certificate: Optional[Certificate] = None,
                    edges=None) -> "Realization":
        """The graph of the (m, 2) int64 ``arr``, kept read-only once every row
        has 1 <= u < v <= n.  ``edges``, the same edges in the rows' order,
        names a bad row when given and is kept if a frozenset."""
        u, v = arr[:, 0], arr[:, 1]
        bad = np.flatnonzero((u < 1) | (u >= v) | (v > n))
        if bad.size:
            rows = arr.tolist() if edges is None else edges
            _reject_first_bad_edge(n, islice(rows, int(bad[0]), None))
        arr.flags.writeable = False
        graph = object.__new__(cls)
        for name, value in (("n", n), ("certificate", certificate), ("_array", arr),
                            ("_edges", edges if isinstance(edges, frozenset) else None)):
            object.__setattr__(graph, name, value)
        return graph

    @classmethod
    def _from_sets(cls, n: int, adj: list[set[int]],
                   certificate: Optional[Certificate] = None) -> "Realization":
        """The graph where vertex i in 1..n has the neighbours ``adj[i]``
        (symmetric, ``adj[0]`` empty): a row (i, j) per j > i in ``adj[i]``."""
        lengths = np.fromiter(map(len, adj), dtype=np.int64, count=n + 1)
        cols = np.fromiter(chain.from_iterable(adj), dtype=np.int64, count=int(lengths.sum()))
        rows = np.repeat(np.arange(n + 1, dtype=np.int64), lengths)
        upper = cols > rows
        return cls._from_array(n, np.column_stack((rows[upper], cols[upper])), certificate)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as (u, v) tuples, u < v; built from the array on first read."""
        if self._edges is None:
            object.__setattr__(self, "_edges", frozenset(zip(*self._array.T.tolist())))
        return self._edges

    def _sorted_array(self) -> np.ndarray:
        arr = self._array
        return arr[np.lexsort((arr[:, 1], arr[:, 0]))]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n == other.n and self.certificate == other.certificate
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.n, self.edges, self.certificate))

    def __repr__(self):
        edges = list(map(tuple, self._sorted_array().tolist()))
        return f"Realization(n={self.n}, edges={edges}, certificate={self.certificate!r})"

    def __reduce__(self):
        return type(self)._from_array, (self.n, self._array, self.certificate)

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

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
        return tuple(np.bincount(self._array.ravel(), minlength=self.n + 1)[1:].tolist())

    def realizes(self, d: DegreeSequence) -> bool:
        """True iff vertex i has degree d_i (stripped zeros appended last)."""
        if self.n != d.total_vertices:
            return False
        want = tuple(d.values) + (0,) * d.zero_count
        return self.degrees() == want


def _reject_first_bad_edge(n: int, edges):
    """Raise DomainError for the first of ``edges`` that is not a pair of
    integers u, v with 1 <= u < v <= n; n < 2**63, so an endpoint beyond
    int64 is one of them."""
    for edge in edges:
        u, v = _pair(edge, "edge")
        if not (1 <= u < v <= n):
            raise DomainError(f"edge ({u}, {v}) is not a normalized pair within 1..{n}")
    raise DomainError("edges must be a sized collection of integer pairs")


def _integer(value, what: str) -> int:
    """``value`` as an int, for the library's integer arguments: whatever
    ``operator.index`` takes counts (numpy integers, and bools as 0 and 1),
    anything else raises DomainError.  Edge endpoints and matching pairs
    follow the same rule in bulk."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} {value!r} is not an integer") from None


def _pair(pair, what: str) -> tuple[int, int]:
    """``pair`` as two ints by ``_integer``'s rule; DomainError naming it as
    a ``what`` if it is not two integers."""
    try:
        a, b = map(operator.index, pair)
    except (TypeError, ValueError):
        raise DomainError(f"{what} {pair!r} is not a pair of integers") from None
    return a, b


def _vertex_pairs(pairs) -> list[tuple[int, int]]:
    """``pairs`` as int tuples (a, b), a <= b, by ``_pair``."""
    return [tuple(sorted(_pair(pair, "pair"))) for pair in pairs]


def _edge_rows(arr: np.ndarray, pairs: list[tuple[int, int]]) -> np.ndarray:
    """The row of the edge array ``arr`` holding each of ``pairs``, or -1.
    Each pair (a, b) has a < b within int64 and its own a, so one
    ``searchsorted`` of the rows' u among the a's finds every match."""
    where = np.full(len(pairs), -1, dtype=np.int64)
    if pairs:
        q = np.array(pairs, dtype=np.int64)
        order = np.argsort(q[:, 0])
        a, b = q[order, 0], q[order, 1]
        u, v = arr[:, 0], arr[:, 1]
        k = np.minimum(np.searchsorted(a, u), len(pairs) - 1)
        hit = np.flatnonzero((a[k] == u) & (b[k] == v))
        where[order[k[hit]]] = hit
    return where


def havel_hakimi_realize(d: DegreeSequence) -> Realization:
    """Construct some realization by repeatedly satisfying the largest residual degree.

    Deterministic: the vertex with the largest residual (lowest index on ties)
    is connected to the next-largest residuals (again lowest index first).
    Isolated vertices stripped from ``d`` are appended at the end.
    Raises NotGraphicError when no realization exists.
    """
    _require_graphic(d)
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
            raise _not_graphic(d)
        residual[u - 1] = 0
        for v in active[1:need + 1]:
            residual[v - 1] -= 1
            edges.append((u, v) if u < v else (v, u))
    return Realization.from_edges(n + d.zero_count, edges)
