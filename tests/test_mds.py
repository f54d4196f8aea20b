import bisect
import random

import pytest

from optreal import (ContractError, DegreeSequence, DomainError, DominatingSet,
                     InfeasibleError, NetworkError, NotGraphicError, Realization,
                     build_mds_flow, extract_bipartite_mds, max_flow,
                     mds_feasible, mds_systems_hold, mds_value, oracle_mds,
                     realize_mds, round_bipartite_mds, verify_dominating)
from optreal.bipartite import BipartiteRealization

from conftest import all_positive_sequences, graphic_sequences_upto, random_graphic_sequence

DS = DegreeSequence


def saturates(d, gamma):
    return max_flow(build_mds_flow(d, gamma)).value == d.total


# ---------------------------------------------------------------- feasibility

def test_feasible_triangle():
    assert mds_feasible(DS((2, 2, 2)), 1)


def test_infeasible_prefix_budget():
    # one degree-1 vertex cannot reach the three others
    assert not mds_feasible(DS((1, 1, 1, 1)), 1)


def test_path_needs_two_dominators():
    d = DS((2, 2, 1, 1))  # the 4-path is the only realization
    assert not mds_feasible(d, 1)
    assert mds_feasible(d, 2)


def test_feasible_gamma_range():
    with pytest.raises(DomainError):
        mds_feasible(DS((2, 2, 2)), 4)
    with pytest.raises(DomainError):
        mds_feasible(DS((2, 2, 2)), -1)


def test_feasible_requires_even_sum():
    d = DS((1, 1, 1))
    assert not mds_feasible(d, 3)
    # the constraint systems alone are satisfied: the doubled bipartite
    # problem is feasible even though no general realization exists
    assert mds_systems_hold(d, 3)
    assert saturates(d, 3)


def test_feasible_empty_sequence():
    assert mds_feasible(DS(()), 0)


# ---------------------------------------------------------------------- value

def test_value_universal_vertex():
    assert mds_value(DS((4, 3, 2, 2, 1))) == 1


def test_value_two_disjoint_edges():
    assert mds_value(DS((1, 1, 1, 1))) == 2


def test_value_oracle_derived():
    assert mds_value(DS((2, 2, 1, 1, 1, 1))) == 2


def test_value_rejects_non_graphic():
    with pytest.raises(NotGraphicError):
        mds_value(DS((4, 3, 2, 1, 1)))


def test_value_counts_isolated_vertices():
    assert mds_value(DS((2, 2, 2), zero_count=2)) == 3
    assert mds_value(DS((), zero_count=3)) == 3


# ------------------------------------------------------------------- networks

def test_build_flow_no_supplementary_nodes_at_full_prefix():
    net = build_mds_flow(DS((2, 2, 2)), 3)
    arcs = set(net.iter_arcs())
    sink = 7
    expected = ({(0, i, 2) for i in (1, 2, 3)}
                | {(3 + j, sink, 2) for j in (1, 2, 3)}
                | {(i, 3 + j, 1) for i in (1, 2, 3) for j in (1, 2, 3) if i != j})
    assert arcs == expected


def test_build_flow_supplementary_arcs():
    # n=3, gamma=1: x'_2=7, x'_3=8, y'_2=9, y'_3=10, sink=11
    net = build_mds_flow(DS((2, 2, 2)), 1)
    arcs = set(net.iter_arcs())
    assert (2, 7, 1) in arcs          # (x_2, x'_2, d_2 - 1)
    assert (10, 6, 1) in arcs         # (y'_3, y_3, d_3 - 1)
    assert (7, 10, 1) in arcs         # (x'_2, y'_3, 1)
    assert not any(u == 7 and v == 9 for u, v, _ in arcs)  # no (x'_2, y'_2)


def test_build_flow_arc_count_closed_form():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 12)
        d = DS(tuple(sorted((rng.randint(1, max(n - 1, 1)) for _ in range(n)), reverse=True)))
        gamma = rng.randint(1, n)
        r = n - gamma
        # families counted independently: source, prefix rows, nonprefix-to-prefix,
        # into supplementary, supplementary cross, out of supplementary, sink
        expected = (n
                    + gamma * (n - 1)
                    + r * gamma
                    + r
                    + r * (r - 1)
                    + r
                    + n)
        assert build_mds_flow(d, gamma).arc_count == expected


def test_build_flow_gamma_range():
    # the same range [0, n] as mds_feasible and extract_bipartite_mds
    d = DS((2, 2, 2))
    for gamma in (-1, 4):
        with pytest.raises(DomainError):
            build_mds_flow(d, gamma)
    # with no prefix, no vertex can spend a unit on it
    for d in (d, DS((1, 1)), DS((3, 3, 3, 3))):
        assert not saturates(d, 0)
    assert saturates(DS(()), 0)


def test_gamma_zero_network_matches_the_systems_exhaustive():
    # every sequence with n <= 7 and degrees in [1, max(n - 1, 1)], and the
    # empty one: the gamma = 0 network saturates, and extraction accepts its
    # flow, exactly when the constraint systems hold at gamma = 0
    seqs = [DS(())] + [d for n in range(1, 8) for d in all_positive_sequences(n)]
    assert len(seqs) == 1080
    for d in seqs:
        holds = mds_systems_hold(d, 0)
        assignment = max_flow(build_mds_flow(d, 0))
        assert (assignment.value == d.total) == holds, d
        try:
            extract_bipartite_mds(d, 0, assignment)
            accepted = True
        except InfeasibleError:
            accepted = False
        assert accepted == holds, d


def test_build_flow_capacity_beyond_int64():
    with pytest.raises(NetworkError):
        build_mds_flow(DS((10**20, 1)), 1)
    # a degree >= n that fits keeps building a network that cannot saturate
    assert max_flow(build_mds_flow(DS((5, 1)), 1)).value < 6


# ----------------------------------------------------------------- extraction

def test_extract_forced_triangle_matrix():
    d = DS((2, 2, 2))
    bip = extract_bipartite_mds(d, 3, max_flow(build_mds_flow(d, 3)))
    for i in range(1, 4):
        for j in range(1, 4):
            assert bip.adjacency[i][j] == (0 if i == j else 1)


def test_extract_infeasible():
    d = DS((1, 1, 1, 1))
    assignment = max_flow(build_mds_flow(d, 1))
    # the prefix source arc caps at d_1 = 1 and the prefix column at 1,
    # so the flow stalls at 2 < 4
    assert assignment.value == 2
    with pytest.raises(InfeasibleError):
        extract_bipartite_mds(d, 1, assignment)


def test_extract_properties_hold():
    d = DS((3, 2, 2, 2, 1))
    # gamma=1 cannot saturate (the prefix budget d_1 = 3 < n - 1 = 4)
    with pytest.raises(InfeasibleError):
        extract_bipartite_mds(d, 1, max_flow(build_mds_flow(d, 1)))
    gamma = mds_value(d)
    assert gamma == 2
    bip = extract_bipartite_mds(d, gamma, max_flow(build_mds_flow(d, gamma)))
    bip.validate()  # D1-D3
    assert bip.prefix == gamma and bip.mode == "mds"


# ------------------------------------------------------------------- rounding

def symmetric_bipartite(n, gamma, degrees):
    rows = [[]] + [[j for j in range(1, n + 1) if j != i] for i in range(1, n + 1)]
    return BipartiteRealization(n, gamma, "mds", degrees, rows)


def test_round_symmetric_input_is_immediate():
    bip = symmetric_bipartite(3, 1, (2, 2, 2))
    g = round_bipartite_mds(bip, checked=True)
    assert g.edges == frozenset({(1, 2), (1, 3), (2, 3)})
    assert g.certificate.vertices == (1,)


def test_round_path_sequence():
    d = DS((2, 2, 1, 1))
    bip = extract_bipartite_mds(d, 2, max_flow(build_mds_flow(d, 2)))
    g = round_bipartite_mds(bip, checked=True)
    assert g.realizes(d)
    assert verify_dominating(g, [1, 2])


def test_round_rejects_wrong_mode():
    bip = symmetric_bipartite(3, 1, (2, 2, 2))
    bip.mode = "mm"
    with pytest.raises(ContractError):
        round_bipartite_mds(bip)


def test_round_rejects_contract_violation():
    bip = symmetric_bipartite(3, 1, (2, 2, 2))
    bip.rows[1].remove(2)  # break row/column sums
    with pytest.raises(ContractError):
        round_bipartite_mds(bip)


def bip_from_entries(n, gamma, degrees, ones):
    rows = [[] for _ in range(n + 1)]
    for i, j in sorted(ones):
        rows[i].append(j)
    return BipartiteRealization(n, gamma, "mds", degrees, rows)


def test_round_triangle_protection_intersecting_cycles():
    # Half-weight graph = two triangles sharing vertex 3: vertex 3 has no
    # full-weight prefix edge, so it is protected by the triangle (1, 3, 2),
    # which intersects the odd circuit [3, 4, 5]; both are rounded jointly
    # with vertex 3 keeping full-weight prefix edges.
    ones = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3),
            (1, 4), (4, 1), (2, 5), (5, 2)]
    bip = bip_from_entries(5, 2, (2, 2, 2, 2, 2), ones)
    g = round_bipartite_mds(bip, checked=True)
    assert sorted(g.edges) == [(1, 3), (1, 4), (2, 3), (2, 5), (4, 5)]
    assert verify_dominating(g, [1, 2])


def test_round_triangle_protection_disjoint_cycles():
    # Protected triangle (1, 6, 2) disjoint from the odd circuit [3, 4, 5]:
    # the pair is joined through an integral cross edge, and vertex 6 keeps
    # a full-weight prefix edge afterwards.
    half_euler = [(1, 6), (6, 2), (2, 1), (3, 4), (4, 5), (5, 3)]
    full = [(1, 3), (3, 1), (2, 4), (4, 2), (1, 5), (5, 1), (2, 7), (7, 2)]
    bip = bip_from_entries(7, 2, (3, 3, 2, 2, 2, 1, 1), half_euler + full)
    g = round_bipartite_mds(bip, checked=True)
    assert sorted(g.edges) == [(1, 3), (1, 4), (1, 5), (2, 4), (2, 6), (2, 7), (3, 5)]
    assert verify_dominating(g, [1, 2])


def two_by_two_swaps(rows, n, rng, steps, forbidden=frozenset()):
    """Random degree-preserving rewires of a sparse 0/1 incidence (sorted
    column lists per row) that keep the diagonal empty and never touch
    forbidden cells."""
    for _ in range(steps):
        i, i2 = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
        j, j2 = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
        if i == i2 or j == j2 or i == j or i == j2 or i2 == j or i2 == j2:
            continue
        if any((a, b) in forbidden for a in (i, i2) for b in (j, j2)):
            continue
        r, r2 = rows[i], rows[i2]
        if j in r and j2 in r2 and j2 not in r and j not in r2:
            r.remove(j)
            r2.remove(j2)
            bisect.insort(r, j2)
            bisect.insort(r2, j)


def test_round_swap_walked_inputs():
    # rounding must accept any valid prefix-dominated incidence, not just
    # the ones the flow solver happens to produce
    rng = random.Random(2718)
    runs = 0
    while runs < 150:
        d = random_graphic_sequence(rng, rng.randint(3, 10), dmax=rng.choice([2, 3, 9]))
        gammas = [g for g in range(1, d.n + 1) if mds_feasible(d, g)]
        if not gammas:
            continue
        gamma = rng.choice(gammas)
        bip = extract_bipartite_mds(d, gamma, max_flow(build_mds_flow(d, gamma)))
        two_by_two_swaps(bip.rows, d.n, rng, rng.randint(0, 4 * d.n))
        try:
            bip.validate()
        except ContractError:
            continue  # a swap broke prefix domination; not a valid input
        g = round_bipartite_mds(bip, checked=True)
        assert g.realizes(d)
        assert verify_dominating(g, range(1, gamma + 1))
        runs += 1


def test_round_randomized_feasible_pairs():
    # every oracle-feasible (d, gamma) with n <= 6 rounds to a valid graph
    rng = random.Random(97)
    cases = 0
    for d in graphic_sequences_upto(6):
        if rng.random() < 0.5:
            continue
        for gamma in range(1, d.n + 1):
            if not mds_feasible(d, gamma):
                continue
            bip = extract_bipartite_mds(d, gamma, max_flow(build_mds_flow(d, gamma)))
            g = round_bipartite_mds(bip, checked=True)
            assert g.realizes(d)
            assert verify_dominating(g, range(1, gamma + 1))
            cases += 1
    assert cases > 50


# ----------------------------------------------------------- realize and verify

def test_realize_triangle():
    g = realize_mds(DS((2, 2, 2)))
    assert g.edges == frozenset({(1, 2), (1, 3), (2, 3)})
    assert g.certificate.vertices == (1,)


def test_realize_universal_vertex_sequence():
    d = DS((4, 3, 2, 2, 1))
    g = realize_mds(d)
    assert g.realizes(d)
    assert g.certificate.vertices == (1,)


def test_realize_appends_isolated_vertices():
    d = DS((2, 2, 2), zero_count=2)
    g = realize_mds(d)
    assert g.n == 5
    assert g.degrees() == (2, 2, 2, 0, 0)
    assert g.certificate.vertices == (1, 4, 5)
    assert verify_dominating(g, g.certificate.vertices)
    for zeros in (0, 3):
        g = realize_mds(DS((), zeros))
        assert g == Realization(zeros, frozenset(), DominatingSet(tuple(range(1, zeros + 1))))


def test_realize_rejects_non_graphic():
    with pytest.raises(NotGraphicError):
        realize_mds(DS((4, 3, 1, 1, 1)))


def test_realize_matches_oracle_small():
    rng = random.Random(55)
    for _ in range(25):
        d = random_graphic_sequence(rng, rng.randint(1, 7))
        value = mds_value(d)
        assert value == oracle_mds(d)
        g = realize_mds(d, checked=True)
        assert g.realizes(d)
        assert verify_dominating(g, g.certificate.vertices)
        assert len(g.certificate.vertices) == value


def test_verify_dominating_examples():
    triangle = Realization.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    two_edges = Realization.from_edges(4, [(1, 2), (3, 4)])
    p4 = Realization.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    assert verify_dominating(triangle, [1])
    assert not verify_dominating(two_edges, [1])
    assert verify_dominating(p4, [2, 3])


def test_verify_dominating_range_check():
    triangle = Realization.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    with pytest.raises(DomainError):
        verify_dominating(triangle, [4])


# ----------------------------------------------------------------- invariants

def test_system_flow_equivalence_randomized():
    rng = random.Random(321)
    for _ in range(250):
        n = rng.randint(1, 12)
        d = DS(tuple(sorted((rng.randint(1, max(n - 1, 1)) for _ in range(n)), reverse=True)))
        gamma = rng.randint(1, n)
        assert mds_systems_hold(d, gamma) == saturates(d, gamma), (d.values, gamma)
    # a degree of n: x_1 reaches at most n - 1 partners, so nothing saturates
    d = DS((6, 2, 2, 2, 2, 2))
    assert not saturates(d, 2)
    assert not mds_systems_hold(d, 2)


def test_feasibility_monotone_in_gamma():
    for d in graphic_sequences_upto(6):
        feasible = [mds_feasible(d, gamma) for gamma in range(d.n + 1)]
        for lo, hi in zip(feasible, feasible[1:]):
            assert not (lo and not hi), d.values


def test_realize_deterministic():
    d = DS((3, 3, 2, 2, 2, 2))
    assert realize_mds(d).edges == realize_mds(d).edges
