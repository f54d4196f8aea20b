"""Output checks that do not use optreal's own verifiers.

A witness must be a simple graph on vertices 1..n whose degrees equal the
sorted sequence position by position, and its certificate must hold: the
dominating set is the prefix 1..gamma and dominates every other vertex, or
the matching is the inverted prefix {(i, 2nu - i + 1)} made of disjoint
edges of the graph.
"""

from __future__ import annotations

from itertools import chain

import numpy as np


class CheckFailure(Exception):
    """An output of optreal is wrong."""


def edge_array(graph) -> np.ndarray:
    m = len(graph.edges)
    flat = np.fromiter(chain.from_iterable(graph.edges), dtype=np.int64, count=2 * m)
    return flat.reshape(m, 2)


def check_witness(values: tuple[int, ...], graph, objective: str) -> int:
    """Validate a realize_* result; return its certificate size."""
    n = len(values)
    if graph.n != n:
        raise CheckFailure(f"witness has {graph.n} vertices, expected {n}")
    edges = edge_array(graph)
    u, v = edges[:, 0], edges[:, 1]
    if edges.size and not (u.min() >= 1 and v.max() <= n and np.all(u < v)):
        raise CheckFailure("an edge is a loop, leaves 1..n or is not written u < v")
    if np.unique(u * (n + 1) + v).size != len(edges):
        raise CheckFailure("an edge is repeated")
    degrees = np.bincount(edges.ravel(), minlength=n + 1)[1:]
    wrong = np.flatnonzero(degrees != np.asarray(values))
    if wrong.size:
        i = int(wrong[0])
        raise CheckFailure(f"vertex {i + 1} has degree {degrees[i]}, expected {values[i]}")
    cert = graph.certificate
    if objective == "mds":
        gamma = len(cert.vertices)
        if tuple(cert.vertices) != tuple(range(1, gamma + 1)):
            raise CheckFailure("dominating set is not the prefix 1..gamma")
        dominated = np.zeros(n + 1, dtype=bool)
        dominated[1:gamma + 1] = True
        dominated[v[u <= gamma]] = True  # u < v, so a prefix neighbour is always u
        if not dominated[1:].all():
            raise CheckFailure(f"vertex {int(np.argmin(dominated[1:])) + 1} is not dominated")
        return gamma
    nu = len(cert.pairs)
    if tuple(cert.pairs) != tuple((i, 2 * nu - i + 1) for i in range(1, nu + 1)):
        raise CheckFailure("matching is not the inverted prefix")
    if not all(pair in graph.edges for pair in cert.pairs):
        raise CheckFailure("a matching pair is not an edge")
    if len(set(chain.from_iterable(cert.pairs))) != 2 * nu:
        raise CheckFailure("matching pairs share a vertex")
    return nu
