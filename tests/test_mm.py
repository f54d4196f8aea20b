import random

import pytest

from optreal import (ContractError, DegreeSequence, DomainError,
                     InfeasibleError, NotGraphicError, build_mm_flow,
                     extract_bipartite_mm, max_flow, mm_feasible, mm_value,
                     oracle_mm, realize_mm, round_bipartite_mm,
                     verify_matching)
from optreal.bipartite import BipartiteRealization

from conftest import graphic_sequences_upto, random_graphic_sequence

DS = DegreeSequence


# ------------------------------------------------------------------- networks

def test_build_flow_single_edge_all_excluded():
    net = build_mm_flow(DS((1, 1)), 1)
    arcs = list(net.iter_arcs())
    assert (0, 1, 0) in arcs and (0, 2, 0) in arcs
    assert not any(1 <= u <= 2 and 3 <= v <= 4 for u, v, _ in arcs)
    assert max_flow(net).value == 0  # == sum(d) - 2*nu


def test_build_flow_triangle_exclusions():
    net = build_mm_flow(DS((2, 2, 2)), 1)
    arcs = set(net.iter_arcs())
    unit = {(u, v - 3) for u, v, _ in arcs if 1 <= u <= 3 and 4 <= v <= 6}
    assert unit == {(1, 3), (3, 1), (2, 3), (3, 2)}  # i != j and j != 3 - i
    assert {(0, 1, 1), (0, 2, 1), (0, 3, 2)} <= arcs


def test_build_flow_unit_arc_count_closed_form():
    # the diagonal removes n pairs and the inverted matching 2*nu more
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(2, 12)
        d = DS(tuple(sorted((rng.randint(1, n - 1) for _ in range(n)), reverse=True)))
        nu = rng.randint(0, n // 2)
        net = build_mm_flow(d, nu)
        unit = sum(1 for u, v, _ in net.iter_arcs() if 1 <= u <= n < v <= 2 * n)
        assert unit == n * (n - 1) - 2 * nu


def test_build_flow_nu_range():
    with pytest.raises(DomainError):
        build_mm_flow(DS((2, 2, 2)), 2)
    with pytest.raises(DomainError):
        build_mm_flow(DS((2, 2, 2)), -1)


# ---------------------------------------------------------------- feasibility

def test_feasible_examples():
    assert mm_feasible(DS((2, 2, 2)), 1)
    assert mm_feasible(DS((1, 1, 1, 1)), 2)


def test_feasible_flow_value_derived():
    assert max_flow(build_mm_flow(DS((2, 2, 2)), 1)).value == 4


def test_feasible_rejects_non_graphic():
    with pytest.raises(NotGraphicError):
        mm_feasible(DS((4, 3, 1, 1, 1)), 1)


def _flow_saturates(d, nu):
    """Reference for mm_feasible: the definition by network saturation."""
    return max_flow(build_mm_flow(d, nu)).value == d.total - 2 * nu


def test_flow_and_reduction_probes_agree():
    # the reduction test behind mm_feasible must answer exactly as the
    # network saturation it replaces: on every (d, nu) with n <= 7, on small
    # sparse inputs and on the n in [16, 128] shapes with degrees up to
    # n - 1, including nu = n // 2
    rng = random.Random(88)
    cases = [(d, nu) for d in graphic_sequences_upto(7) for nu in range(d.n // 2 + 1)]
    for _ in range(150):
        d = random_graphic_sequence(rng, rng.randint(2, 24), dmax=8)
        cases.append((d, rng.randint(0, d.n // 2)))
    for _ in range(16):
        d = random_graphic_sequence(rng, rng.randint(16, 128))
        cases += [(d, rng.randint(0, d.n // 2)), (d, d.n // 2)]
        # complete split graph: k hubs joined to everything force nu <= k
        n = rng.randint(16, 128)
        k = rng.randint(1, n // 2 - 1)
        split = DS((n - 1,) * k + (k,) * (n - k))
        cases += [(split, k), (split, k + 1), (split, n // 2)]
    for d, nu in cases:
        assert _flow_saturates(d, nu) == mm_feasible(d, nu), (d.values, nu)


def test_feasibility_monotone_decreasing_and_binary_matches_linear():
    for d in graphic_sequences_upto(6):
        feasible = [mm_feasible(d, nu) for nu in range(d.n // 2 + 1)]
        for hi, lo in zip(feasible, feasible[1:]):
            assert not (lo and not hi), d.values
        linear = max(nu for nu, ok in enumerate(feasible) if ok)
        assert mm_value(d) == linear, d.values


# ---------------------------------------------------------------------- value

def test_value_examples():
    assert mm_value(DS((1, 1, 1, 1))) == 2
    assert mm_value(DS((2, 2, 2))) == 1
    assert mm_value(DS((2, 2, 1, 1, 1, 1))) == 3


def test_value_rejects_non_graphic():
    with pytest.raises(NotGraphicError):
        mm_value(DS((4, 3, 2, 1, 1)))


def test_value_ignores_isolated_vertices():
    assert mm_value(DS((2, 2, 2), zero_count=4)) == 1
    assert mm_value(DS((), zero_count=3)) == 0


# ----------------------------------------------------------------- extraction

def test_extract_only_matching_edges():
    d = DS((1, 1))
    bip = extract_bipartite_mm(d, 1, max_flow(build_mm_flow(d, 1)))
    want = {(1, 2), (2, 1)}
    got = {(i, j) for i in range(1, 3) for j in range(1, 3) if bip.adjacency[i][j]}
    assert got == want


def test_extract_inverted_prefix_present():
    d = DS((1, 1, 1, 1))
    bip = extract_bipartite_mm(d, 2, max_flow(build_mm_flow(d, 2)))
    for i in range(1, 5):
        assert bip.adjacency[i][5 - i] == 1


def test_extract_triangle_properties():
    d = DS((2, 2, 2))
    bip = extract_bipartite_mm(d, 1, max_flow(build_mm_flow(d, 1)))
    bip.validate()  # M1-M3
    assert bip.prefix == 2 and bip.mode == "mm"


def test_extract_infeasible():
    # a star admits no perfect matching: the nu=2 network cannot saturate
    d = DS((3, 1, 1, 1))
    assignment = max_flow(build_mm_flow(d, 2))
    assert assignment.value < d.total - 4
    with pytest.raises(InfeasibleError):
        extract_bipartite_mm(d, 2, assignment)


# ------------------------------------------------------------------- rounding

def test_round_symmetric_triangle():
    adj = [bytearray(4) for _ in range(4)]
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                adj[i][j] = 1
    bip = BipartiteRealization(3, 2, "mm", (2, 2, 2), adj)
    g = round_bipartite_mm(bip, checked=True)
    assert g.edges == frozenset({(1, 2), (1, 3), (2, 3)})
    assert g.certificate.pairs == ((1, 2),)


def test_round_forced_double_edge():
    d = DS((1, 1, 1, 1))
    bip = extract_bipartite_mm(d, 2, max_flow(build_mm_flow(d, 2)))
    g = round_bipartite_mm(bip, checked=True)
    assert g.edges == frozenset({(1, 4), (2, 3)})
    assert g.certificate.pairs == ((1, 4), (2, 3))


def test_round_rejects_wrong_mode():
    adj = [bytearray(4) for _ in range(4)]
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                adj[i][j] = 1
    bip = BipartiteRealization(3, 1, "mds", (2, 2, 2), adj)
    with pytest.raises(ContractError):
        round_bipartite_mm(bip)


def test_round_swap_walked_inputs():
    from test_mds import two_by_two_swaps
    rng = random.Random(1618)
    runs = 0
    while runs < 150:
        d = random_graphic_sequence(rng, rng.randint(3, 10), dmax=rng.choice([2, 3, 9]))
        if d.n < 2:
            continue
        feasible = [nu for nu in range(0, d.n // 2 + 1) if mm_feasible(d, nu)]
        nu = rng.choice(feasible)
        bip = extract_bipartite_mm(d, nu, max_flow(build_mm_flow(d, nu)))
        frozen = {(i, 2 * nu - i + 1) for i in range(1, 2 * nu + 1)}
        two_by_two_swaps(bip.adjacency, d.n, rng, rng.randint(0, 4 * d.n), frozen)
        bip.validate()
        g = round_bipartite_mm(bip, checked=True)
        assert g.realizes(d)
        assert verify_matching(g, [(i, 2 * nu - i + 1) for i in range(1, nu + 1)])
        runs += 1


def test_round_randomized_feasible_pairs():
    rng = random.Random(19)
    cases = 0
    for d in graphic_sequences_upto(6):
        if rng.random() < 0.5:
            continue
        for nu in range(0, d.n // 2 + 1):
            if not mm_feasible(d, nu):
                continue
            bip = extract_bipartite_mm(d, nu, max_flow(build_mm_flow(d, nu)))
            g = round_bipartite_mm(bip, checked=True)
            assert g.realizes(d)
            assert verify_matching(g, [(i, 2 * nu - i + 1) for i in range(1, nu + 1)])
            cases += 1
    assert cases > 50


# -------------------------------------------------------------------- realize

def test_realize_single_edge():
    g = realize_mm(DS((1, 1)))
    assert g.edges == frozenset({(1, 2)})
    assert g.certificate.pairs == ((1, 2),)


def test_realize_complete_graph():
    g = realize_mm(DS((3, 3, 3, 3)))
    assert g.edges == frozenset({(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)})
    assert len(g.certificate.pairs) == 2


def test_realize_matches_oracle_small():
    rng = random.Random(60)
    for _ in range(25):
        d = random_graphic_sequence(rng, rng.randint(1, 7))
        value = mm_value(d)
        assert value == oracle_mm(d)
        g = realize_mm(d, checked=True)
        assert g.realizes(d)
        assert verify_matching(g, g.certificate.pairs)
        assert len(g.certificate.pairs) == value
        assert g.certificate.pairs == tuple((i, 2 * value - i + 1) for i in range(1, value + 1))


def test_realize_with_isolated_vertices():
    d = DS((1, 1), zero_count=2)
    g = realize_mm(d)
    assert g.n == 4
    assert g.degrees() == (1, 1, 0, 0)
    assert g.certificate.pairs == ((1, 2),)


def test_realize_deterministic():
    d = DS((3, 3, 2, 2, 2, 2))
    assert realize_mm(d).edges == realize_mm(d).edges


# ------------------------------------------------------------ verify_matching

def test_verify_matching_examples():
    from optreal import Realization
    triangle = Realization.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    assert verify_matching(triangle, [(1, 2)])
    assert not verify_matching(triangle, [(1, 2), (2, 3)])
    assert verify_matching(triangle, [])
    assert not verify_matching(triangle, [(1, 4)])
