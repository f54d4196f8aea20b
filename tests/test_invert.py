import hashlib
import itertools
import random

import pytest

from optreal import (ContractError, FlipError, Realization, flip,
                     invert_matching, verify_matching)


def all_degree_sorted_graphs(n):
    """All labeled graphs on n vertices with non-increasing degree vectors."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        deg = [0] * (n + 1)
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        if all(deg[i] >= deg[i + 1] for i in range(1, n)):
            yield Realization.from_edges(n, edges)


def prefix_matchings(g, nu):
    """All matchings of g covering exactly the vertices 1..2nu."""
    def rec(vs):
        if not vs:
            yield []
            return
        a = vs[0]
        for b in vs[1:]:
            if ((a, b) if a < b else (b, a)) in g.edges:
                for rest in rec([v for v in vs[1:] if v != b]):
                    yield [(a, b)] + rest
    yield from rec(list(range(1, 2 * nu + 1)))


# ----------------------------------------------------------------------- flip

def test_flip_on_four_cycle():
    c4 = Realization.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    g = flip(c4, 1, 2, 3, 4)
    assert g.edges == frozenset({(1, 3), (2, 4), (2, 3), (1, 4)})
    assert g.degrees() == c4.degrees()


def test_flip_rejects_existing_target_edge():
    c4 = Realization.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(FlipError):
        flip(c4, 1, 2, 4, 3)  # would add (1, 4), already present


def test_flip_rejects_missing_source_edge():
    c4 = Realization.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(FlipError):
        flip(c4, 1, 3, 2, 4)


def test_flip_rejects_repeated_vertices():
    c4 = Realization.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(FlipError):
        flip(c4, 1, 2, 2, 3)


def test_flip_preserves_degrees_randomized():
    rng = random.Random(41)
    done = 0
    while done < 60:
        n = rng.randint(4, 9)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < 0.5]
        g = Realization.from_edges(n, edges)
        candidates = [(x, u, y, v)
                      for (x, u) in g.edges for (y, v) in g.edges
                      if len({x, u, y, v}) == 4
                      and (min(x, y), max(x, y)) not in g.edges
                      and (min(u, v), max(u, v)) not in g.edges]
        if not candidates:
            continue
        x, u, y, v = rng.choice(candidates)
        assert flip(g, x, u, y, v).degrees() == g.degrees()
        done += 1


# -------------------------------------------------------------------- invert

def test_invert_noop_when_already_inverted():
    g = Realization.from_edges(4, [(1, 4), (2, 3), (1, 2)])
    out = invert_matching(g, [(1, 4), (2, 3)])
    assert out.edges == g.edges
    assert out.certificate.pairs == ((1, 4), (2, 3))


def test_invert_single_pair_is_trivial():
    g = Realization.from_edges(3, [(1, 2), (1, 3)])
    out = invert_matching(g, [(1, 2)])
    assert out.edges == g.edges


def test_invert_requires_sorted_prefix_degrees():
    g = Realization.from_edges(3, [(1, 2), (2, 3)])  # deg(1)=1 < deg(2)=2
    with pytest.raises(ContractError):
        invert_matching(g, [(1, 2)])


def test_invert_spec_four_vertex_family():
    hits = 0
    for g in all_degree_sorted_graphs(4):
        if (1, 3) in g.edges and (2, 4) in g.edges:
            out = invert_matching(g, [(1, 3), (2, 4)])
            assert (1, 4) in out.edges and (2, 3) in out.edges
            assert out.degrees() == g.degrees()
            hits += 1
    assert hits > 0


def test_invert_rejects_non_matching():
    g = Realization.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(ContractError):
        invert_matching(g, [(1, 2), (2, 3)])  # shares vertex 2


def test_invert_rejects_off_prefix_matching():
    g = Realization.from_edges(4, [(1, 2), (3, 4)])
    with pytest.raises(ContractError):
        invert_matching(g, [(3, 4)])  # covers {3,4}, not {1,2}


def test_invert_rejects_non_edge():
    g = Realization.from_edges(4, [(1, 2), (3, 4)])
    with pytest.raises(ContractError):
        invert_matching(g, [(1, 3)])


def test_invert_exhaustive_four_vertices():
    for g in all_degree_sorted_graphs(4):
        for nu in (1, 2):
            for matching in prefix_matchings(g, nu):
                out = invert_matching(g, matching)
                want = tuple((i, 2 * nu - i + 1) for i in range(1, nu + 1))
                assert out.degrees() == g.degrees()
                assert out.certificate.pairs == want
                assert verify_matching(out, want)


# Exact outputs of every inversion over the degree-sorted 4- and 6-vertex
# graphs; both one-edge swap cases (only (i, j) or only (x, y) an edge) occur.
INVERT_PIN = (4339, "cf38528d4415241bbd05e09f95abcb9be9a0f7b638acc2ac8512eb3f09cd3023")


def test_invert_exact_outputs_pinned():
    h = hashlib.sha256()
    count = 0
    for n in (4, 6):
        for g in all_degree_sorted_graphs(n):
            for nu in range(1, n // 2 + 1):
                for matching in prefix_matchings(g, nu):
                    out = invert_matching(g, matching)
                    h.update(f"{n} {sorted(g.edges)} {matching} {sorted(out.edges)}\n".encode())
                    count += 1
    assert (count, h.hexdigest()) == INVERT_PIN
