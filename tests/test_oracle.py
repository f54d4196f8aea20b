import math
import random

import networkx as nx
import pytest

from optreal import (DegreeSequence, LimitError, NotGraphicError, Realization,
                     exact_mds, exact_mm, oracle_mds, oracle_mm)
from optreal.oracle import MAX_LIMIT, enumerate_realizations

from conftest import graphic_sequences_upto


def test_enumeration_counts():
    assert len(list(enumerate_realizations(DegreeSequence((2, 2, 2))))) == 1
    assert len(list(enumerate_realizations(DegreeSequence((1, 1, 1, 1))))) == 3
    assert len(list(enumerate_realizations(DegreeSequence((4, 3, 1, 1, 1))))) == 0


def test_enumeration_perfect_matching_count():
    # (1,...,1) with 2k entries has (2k-1)!! labeled realizations
    for k in range(1, 5):
        d = DegreeSequence((1,) * (2 * k))
        count = sum(1 for _ in enumerate_realizations(d))
        assert count == math.prod(range(1, 2 * k, 2))


def test_enumeration_no_duplicates_and_exact_degrees():
    d = DegreeSequence((3, 2, 2, 2, 1))
    seen = set()
    for g in enumerate_realizations(d):
        assert g.realizes(d)
        assert g.edges not in seen
        seen.add(g.edges)


def test_enumeration_limit():
    with pytest.raises(LimitError):
        list(enumerate_realizations(DegreeSequence((1,) * 9)))
    # a raised limit admits the same sequence
    assert sum(1 for _ in enumerate_realizations(DegreeSequence((1,) * 10), limit=10)) == 945


def test_exact_mds_known_graphs():
    triangle = Realization.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    p4 = Realization.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    c5 = Realization.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert exact_mds(triangle) == 1
    assert exact_mds(p4) == 2
    assert exact_mds(c5) == 2


def test_exact_mm_known_graphs():
    triangle = Realization.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    c4 = Realization.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert exact_mm(triangle) == 1
    assert exact_mm(c4) == 2


def test_exact_mm_matches_blossom_matcher():
    # independent augmenting-path implementation on random graphs
    rng = random.Random(31)
    for _ in range(120):
        n = rng.randint(2, 8)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < 0.45]
        g = Realization.from_edges(n, edges)
        h = nx.Graph()
        h.add_nodes_from(range(1, n + 1))
        h.add_edges_from(edges)
        want = len(nx.max_weight_matching(h, maxcardinality=True))
        assert exact_mm(g) == want


def test_exact_mm_matches_blossom_matcher_on_every_enumerated_graph():
    # exact_mm stops early at a matching covering all non-isolated vertices
    # (but one); every graph the n <= 6 enumeration yields checks the stop
    graphs = 0
    for d in graphic_sequences_upto(6):
        for g in enumerate_realizations(d):
            h = nx.Graph(list(g.edges))
            assert exact_mm(g) == len(nx.max_weight_matching(h, maxcardinality=True)), g
            graphs += 1
    assert graphs == 935


def test_oracle_values():
    assert oracle_mds(DegreeSequence((2, 2, 2))) == 1
    assert oracle_mm(DegreeSequence((1, 1, 1, 1))) == 2
    assert oracle_mds(DegreeSequence((2, 2, 1, 1))) == 2


def test_oracle_rejects_non_graphic():
    with pytest.raises(NotGraphicError):
        oracle_mds(DegreeSequence((4, 3, 1, 1, 1)))
    with pytest.raises(NotGraphicError):
        oracle_mm(DegreeSequence((3, 1)))


def test_oracle_limit():
    with pytest.raises(LimitError):
        oracle_mds(DegreeSequence((1,) * 10))


def test_oracle_limit_capped():
    # a limit above MAX_LIMIT is refused before anything is enumerated, even
    # for a sequence small enough to run
    assert MAX_LIMIT == 10
    d = DegreeSequence((4,) * 11)
    for call in (oracle_mds, oracle_mm, enumerate_realizations):
        with pytest.raises(LimitError, match="exceeds the maximum"):
            call(d, limit=MAX_LIMIT + 1)
        with pytest.raises(LimitError, match="exceeds the maximum"):
            call(DegreeSequence((1, 1)), limit=10**6)
    assert oracle_mm(DegreeSequence((1, 1)), limit=MAX_LIMIT) == 1


def test_oracle_counts_isolated_vertices():
    d = DegreeSequence((2, 2, 2), zero_count=2)
    assert oracle_mds(d) == 3  # triangle prefix vertex + both isolated vertices
    assert oracle_mm(d) == 1


def test_enumeration_closed_under_equal_degree_relabeling():
    # swapping two equal-degree labels maps realizations to realizations and
    # preserves the exact per-graph optima, so oracle values are well defined
    rng = random.Random(13)
    d = DegreeSequence((2, 2, 1, 1, 1, 1))
    graphs = list(enumerate_realizations(d))
    edge_sets = {g.edges for g in graphs}
    swaps = [(1, 2), (3, 4), (4, 5), (5, 6)]
    for g in rng.sample(graphs, min(10, len(graphs))):
        a, b = rng.choice(swaps)
        relabel = {a: b, b: a}
        mapped = Realization.from_edges(
            g.n, [(relabel.get(u, u), relabel.get(v, v)) for u, v in g.edges])
        assert mapped.edges in edge_sets
        assert exact_mds(mapped) == exact_mds(g)
        assert exact_mm(mapped) == exact_mm(g)
