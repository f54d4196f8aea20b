"""Bipartite realizations of a doubled degree sequence.

These are the intermediate objects of both realization pipelines: an n-by-n
0/1 incidence between a V-side and a W-side, both carrying the same degree
sequence, with a zero diagonal and one extra structural property depending
on the mode (prefix domination for "mds", an inverted prefix matching for
"mm").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .errors import ContractError, InternalError

__all__ = ["BipartiteRealization"]


@dataclass
class BipartiteRealization:
    """0/1 incidence matrix realizing (d, d) with a structural prefix property.

    ``adjacency`` is 1-based: row 0 and column 0 are unused padding.  In mds
    mode ``prefix`` is the dominating prefix length gamma; in mm mode it is
    2*nu, the number of matched positions.
    """

    n: int
    prefix: int
    mode: Literal["mds", "mm"]
    degrees: tuple[int, ...]
    adjacency: list[bytearray]

    def validate(self):
        """Raise ContractError unless the mode's structural properties hold."""
        n, adj = self.n, self.adjacency
        if len(self.degrees) != n or len(adj) != n + 1 or any(len(r) != n + 1 for r in adj):
            raise ContractError("adjacency shape does not match n")
        if self.mode not in ("mds", "mm"):
            raise ContractError(f"unknown mode {self.mode!r}")
        if not (0 <= self.prefix <= n):
            raise ContractError(f"prefix {self.prefix} out of range")
        col = [0] * (n + 1)
        for i in range(1, n + 1):
            row = adj[i]
            if row[i] != 0:
                raise ContractError(f"diagonal entry ({i}, {i}) is set")
            s = 0
            for j in range(1, n + 1):
                v = row[j]
                if v not in (0, 1):
                    raise ContractError(f"entry ({i}, {j}) is {v}, expected 0/1")
                s += v
                col[j] += v
            if s != self.degrees[i - 1]:
                raise ContractError(f"row {i} sums to {s}, expected {self.degrees[i - 1]}")
        for j in range(1, n + 1):
            if col[j] != self.degrees[j - 1]:
                raise ContractError(f"column {j} sums to {col[j]}, expected {self.degrees[j - 1]}")
        if self.mode == "mds":
            gamma = self.prefix
            for i in range(gamma + 1, n + 1):
                if not any(adj[i][j] for j in range(1, gamma + 1)):
                    raise ContractError(f"row {i} has no neighbor in the dominating prefix")
                if not any(adj[j][i] for j in range(1, gamma + 1)):
                    raise ContractError(f"column {i} has no neighbor in the dominating prefix")
        else:
            two_nu = self.prefix
            for i in range(1, two_nu + 1):
                j = two_nu - i + 1
                if adj[i][j] != 1:
                    raise ContractError(f"inverted matching entry ({i}, {j}) missing")


def _from_flow_rows(n: int, prefix: int, mode: Literal["mds", "mm"],
                    degrees: tuple[int, ...], rows) -> BipartiteRealization:
    """The realization with ones at the columns ``rows[i]`` of each row i,
    read off a saturating flow and validated once.

    A realization that fails validation means the flow was not the one the
    reduction guarantees, which is a bug, so it raises InternalError.
    """
    adjacency = [bytearray(n + 1) for _ in range(n + 1)]
    for i, cols in enumerate(rows):
        row = adjacency[i]
        for j in cols:
            row[j] = 1
    bip = BipartiteRealization(n, prefix, mode, degrees, adjacency)
    try:
        bip.validate()
    except ContractError as exc:
        raise InternalError(f"saturating flow produced an invalid realization: {exc}") from exc
    return bip
