"""Bipartite realizations of a doubled degree sequence.

These are the intermediate objects of both realization pipelines: a 0/1
incidence between a V-side and a W-side, both carrying the same degree
sequence, with a zero diagonal and one extra structural property depending
on the mode (prefix domination for "mds", an inverted prefix matching for
"mm").  The incidence is held sparsely, as the sorted list of W-side
neighbours of each V-side vertex, so it takes O(n + sum(d)) space.

One function, ``_checked_incidence``, checks the rules on row sets:
``validate()`` runs it on ``rows``, and both read-offs of a flow (the
extraction's ``_from_assignment`` and realize's ``_from_reduction_flow``)
on the sets they read, through ``_flow_checked``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import islice
from typing import Literal

import numpy as np

from .errors import ContractError, InfeasibleError, InternalError
from .flow import _reduction_max_flow
from .rounding import HalfWeights

__all__ = ["BipartiteRealization"]


@dataclass
class BipartiteRealization:
    """Sparse 0/1 incidence realizing (d, d) with a structural prefix property.

    ``rows[i]`` is the strictly increasing list of columns j with a one at
    (i, j); vertices are 1-based and ``rows[0]`` is an empty placeholder.  In
    mds mode ``prefix`` is the dominating prefix length gamma; in mm mode it
    is 2*nu, the number of matched positions.
    """

    n: int
    prefix: int
    mode: Literal["mds", "mm"]
    degrees: tuple[int, ...]
    rows: list[list[int]]

    @property
    def adjacency(self) -> list[bytearray]:
        """A fresh dense (n+1)-by-(n+1) 0/1 view of ``rows`` (row and column 0
        unused); writing to it does not change the realization."""
        n = self.n
        adjacency = [bytearray(n + 1) for _ in range(n + 1)]
        for row, cols in zip(adjacency, self.rows):
            for j in cols:
                row[j] = 1
        return adjacency

    def validate(self):
        """Raise ContractError unless the mode's structural properties hold.

        Checks the list form here -- the shape, the mode, the prefix range,
        an empty ``rows[0]`` and each row a strictly increasing list of ints
        in 1..n -- and the rules on the rows' sets (see
        ``_checked_incidence``), in O(n + sum(d)).
        """
        n, rows = self.n, self.rows
        if len(self.degrees) != n or not isinstance(rows, list) or len(rows) != n + 1:
            raise ContractError("rows shape does not match n")
        if self.mode not in ("mds", "mm"):
            raise ContractError(f"unknown mode {self.mode!r}")
        if not (0 <= self.prefix <= n):
            raise ContractError(f"prefix {self.prefix} out of range")
        if rows[0] != []:
            raise ContractError("row 0 is not an empty list")

        def row_sets():
            for i in range(1, n + 1):
                row = rows[i]
                if not isinstance(row, list):
                    raise ContractError(f"row {i} is not a list")
                if row and not (set(map(type, row)) == {int} and 1 <= row[0] and row[-1] <= n
                                and all(map(operator.lt, row, islice(row, 1, None)))):
                    raise ContractError(
                        f"row {i} is not a strictly increasing list of columns in 1..{n}")
                yield set(row), None

        for _ in _checked_incidence(n, self.prefix, self.mode, self.degrees, row_sets()):
            pass


def _checked_incidence(n: int, prefix: int, mode: Literal["mds", "mm"],
                       degrees: tuple[int, ...], incidence):
    """Yield each (row set, column set) pair of ``incidence``, vertex
    i = 1..n in turn, once row i passes the row rules, then check the
    column rules after the last row; the column set is passed on unread.
    This is the one implementation of the bipartite rules: ``validate()``
    and both flow read-offs (see ``_flow_checked``) run it.

    The rules are checked on the sets, in O(n) Python steps plus C-level
    set and numpy work, before anyone changes the row set: row i has d_i
    entries and no diagonal one; in mds mode each nonprefix row meets the
    prefix and the prefix rows together cover every nonprefix column; in mm
    mode row i <= prefix holds its partner prefix - i + 1.  Every entry
    goes into one int64 array, whose range check and ``bincount`` give the
    column sums.  A broken rule raises ContractError naming it.
    """
    mds = mode == "mds"
    prefix_set = set(range(1, prefix + 1)) if mds else None
    entries = []
    prefix_entries = 0   # the prefix rows' entries open ``entries``
    for i, (out_i, in_i) in enumerate(incidence, 1):
        entries.extend(out_i)
        if i in out_i:
            raise ContractError(f"diagonal entry ({i}, {i}) is set")
        if len(out_i) != degrees[i - 1]:
            raise ContractError(f"row {i} sums to {len(out_i)}, expected {degrees[i - 1]}")
        if i <= prefix:
            prefix_entries = len(entries)
            if not mds and prefix - i + 1 not in out_i:
                raise ContractError(f"inverted matching entry ({i}, {prefix - i + 1}) missing")
        elif mds and out_i.isdisjoint(prefix_set):
            raise ContractError(f"row {i} has no neighbor in the dominating prefix")
        yield out_i, in_i
    cols = np.fromiter(entries, dtype=np.int64, count=len(entries))
    outside = np.flatnonzero((cols < 1) | (cols > n))
    if outside.size:
        # every row before it held d_i entries
        row = int(np.searchsorted(np.cumsum(degrees), outside[0], side="right")) + 1
        raise ContractError(f"row {row} is not a strictly increasing list of columns in 1..{n}")
    sums = np.bincount(cols, minlength=n + 1)[1:]
    wrong = np.flatnonzero(sums != np.array(degrees, dtype=np.int64))
    if wrong.size:
        j = int(wrong[0]) + 1
        raise ContractError(f"column {j} sums to {sums[j - 1]}, expected {degrees[j - 1]}")
    if mds:
        reached = np.bincount(cols[:prefix_entries], minlength=n + 1)[prefix + 1:]
        unreached = np.flatnonzero(reached == 0)
        if unreached.size:
            raise ContractError(f"column {prefix + 1 + int(unreached[0])} has no neighbor "
                                "in the dominating prefix")


def _flow_checked(n: int, prefix: int, mode: Literal["mds", "mm"],
                  degrees: tuple[int, ...], incidence):
    """``_checked_incidence`` on an incidence read off a saturating flow.
    The flow was not the one the reduction guarantees if a rule breaks, so
    that is a bug: InternalError, in the rule's words."""
    try:
        yield from _checked_incidence(n, prefix, mode, degrees, incidence)
    except ContractError as exc:
        raise InternalError(f"saturating flow produced an invalid realization: {exc}") from exc


def _from_assignment(n: int, prefix: int, mode: Literal["mds", "mm"],
                     degrees: tuple[int, ...], flow_prefix: int, caps, partner,
                     assignment) -> BipartiteRealization:
    """The realization carried by ``assignment``, a flow on the reduction
    network with pattern (``flow_prefix``, ``caps``, ``partner``); see
    ``flow._build_reduction_network``.

    Row i's ones are its x_i -> y_j and x'_i -> y'_j units plus
    ``partner[i]``, a pair the network omits.  An assignment on another
    network (its node count, sink or source capacities differ) raises
    ContractError, and a flow short of ``sum(caps)`` raises InfeasibleError.
    The row sets are checked (see ``_flow_checked``), then sorted.
    """
    net = assignment.network
    r = n - flow_prefix
    if (net.node_count != 2 * n + 2 * r + 2 or net.sink != 2 * n + 2 * r + 1
            or list(net.caps[:n]) != list(caps[1:])):
        raise ContractError(
            f"assignment does not belong to the {mode} reduction network with prefix {prefix}")
    if assignment.value < sum(caps):
        shape = (f"a dominating prefix of length {prefix}" if mode == "mds"
                 else f"an inverted prefix matching of size {prefix // 2}")
        raise InfeasibleError(
            f"flow value {assignment.value} < {sum(caps)}: no realization with {shape}")
    xp0 = 2 * n - flow_prefix   # x'_i = xp0 + i, y'_j = xp0 + r + j
    rows = [{p} if p else set() for p in partner]
    flows, tails, heads = assignment.flows, net.tails, net.heads
    for k in range(net.arc_count):
        if flows[k] != 1:
            continue
        u, v = tails[k], heads[k]
        if 1 <= u <= n and n < v <= 2 * n:
            rows[u].add(v - n)
        elif 2 * n < u <= 2 * n + r < v:
            rows[u - xp0].add(v - xp0 - r)
    checked = _flow_checked(n, prefix, mode, degrees, ((rows[i], None) for i in range(1, n + 1)))
    return BipartiteRealization(n, prefix, mode, degrees,
                                [[]] + [sorted(out_i) for out_i, _ in checked])


def _from_reduction_flow(n: int, prefix: int, mode: Literal["mds", "mm"],
                         degrees: tuple[int, ...], flow_prefix: int, caps,
                         partner) -> HalfWeights:
    """The half-unit weights of the realization carried by the maximum flow
    of the reduction network with pattern (``flow_prefix``, ``caps``,
    ``partner``); see ``flow._reduction_max_flow``.

    Row i's ones are its x_i -> y_j and x'_i -> y'_j units plus
    ``partner[i]``, a pair the network omits, and column i's are the same
    pairs transposed.  Vertex i's row and column sets are checked against
    the bipartite rules (see ``_flow_checked``) and then folded
    straight into its weights (see ``HalfWeights.fold``); each solver set is
    released as it is merged or folded, so memory stays at the flow's own
    peak, and no sorted row is built.  The value search found the network
    feasible, so a flow short of ``sum(caps)`` is a bug.
    """
    value, rows, cols, sup_rows, sup_cols = _reduction_max_flow(n, flow_prefix, caps, partner)
    if value != sum(caps):
        raise InternalError(
            f"{mode} reduction network with prefix {prefix} carries {value} of "
            f"{sum(caps)} units after the value search claimed feasibility")

    def incidence():
        for i in range(1, n + 1):
            out_i, in_i = rows[i], cols[i]
            out_i |= sup_rows[i]
            in_i |= sup_cols[i]
            if partner[i]:
                out_i.add(partner[i])
                in_i.add(partner[i])
            rows[i] = cols[i] = sup_rows[i] = sup_cols[i] = None
            yield out_i, in_i

    return HalfWeights.fold(n, degrees, _flow_checked(n, prefix, mode, degrees, incidence()))
