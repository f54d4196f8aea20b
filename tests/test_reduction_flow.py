"""The implicit reduction-network flow against the explicit reference.

``realize_mds``/``realize_mm`` solve the reduction networks on their
pattern (``flow._reduction_max_flow``).  Here that flow is laid out in the
arc order of ``flow._build_reduction_network`` and compared with
``max_flow`` on the built network arc for arc, saturating or not, on the
patterns of both objectives and on patterns neither produces.  The
realize witnesses are compared with the composed explicit route.
"""

import random
import types

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import optreal
from optreal import (BipartiteRealization, ContractError, DegreeSequence,
                     build_mds_flow, build_mm_flow, extract_bipartite_mds,
                     extract_bipartite_mm, is_graphic, max_flow, mds_systems_hold,
                     mds_value, mm_feasible, mm_value, realize_mds, realize_mm,
                     round_bipartite_mds, round_bipartite_mm, verify_dominating,
                     verify_matching)
from optreal.dominating import _mds_pattern
from optreal.flow import _build_reduction_network, _reduction_max_flow
from optreal.matching import _mm_pattern

from conftest import (all_positive_sequences, random_graphic_sequence,
                      record_checked_realizations)

DS = DegreeSequence


def transpose(rows, n):
    """Per-column sets of the rows with a one in that column."""
    cols = [set() for _ in range(n + 1)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    return cols


def implicit_arc_flows(n: int, pattern, net):
    """The implicit flow on ``pattern`` = (prefix, caps, partner) as
    (value, per-arc flows of ``net``), its built network.

    Only unit arcs are returned by the solver; every other arc's flow
    follows by conservation at x_i, x'_i, y'_j and y_j.
    """
    value, rows, cols, sup_rows, sup_cols = _reduction_max_flow(n, *pattern)
    # the column sets are the exact transposes of the row sets
    assert cols == transpose(rows, n), (n, pattern)
    assert sup_cols == transpose(sup_rows, n), (n, pattern)
    r = n - pattern[0]
    xp0 = 2 * n - pattern[0]   # x'_i = xp0 + i, y'_j = xp0 + r + j
    yp0 = xp0 + r
    col, sup_col = [0] * (n + 1), [0] * (n + 1)
    for i in range(1, n + 1):
        for j in rows[i]:
            col[j] += 1
        for j in sup_rows[i]:
            sup_col[j] += 1
    flows = []
    for u, v, _ in net.iter_arcs():
        if u == net.source:
            f = len(rows[v]) + len(sup_rows[v])
        elif v == net.sink:
            f = col[u - n] + sup_col[u - n]
        elif u <= n:
            f = int(v - n in rows[u]) if v <= 2 * n else len(sup_rows[u])
        elif u <= 2 * n + r:
            f = int(v - yp0 in sup_rows[u - xp0])
        else:
            f = sup_col[u - yp0]
        flows.append(f)
    return value, flows


def assert_same_pattern_flow(n: int, pattern, net=None) -> bool:
    """Assert the implicit flow on ``pattern`` equals ``max_flow`` on its
    built network (``net`` if given); True if it saturates."""
    if net is None:
        net = _build_reduction_network(n, *pattern)
    reference = max_flow(net)
    value, flows = implicit_arc_flows(n, pattern, net)
    assert value == reference.value, (n, pattern)
    assert flows == list(reference.flows), (n, pattern)
    return value == sum(pattern[1])


def assert_same_flow(d: DegreeSequence, k: int, mds: bool) -> bool:
    """``assert_same_pattern_flow`` on the public builder's network for
    (d, k); True if it saturates."""
    pattern = (_mds_pattern if mds else _mm_pattern)(d, k)
    net = (build_mds_flow if mds else build_mm_flow)(d, k)
    return assert_same_pattern_flow(d.n, pattern, net)


def test_implicit_flow_matches_explicit_exhaustive():
    # every (d, k) with n <= 7 and degrees in [1, n - 1], graphic or not
    saturated = {True: 0, False: 0}
    for n in range(1, 8):
        for d in all_positive_sequences(n):
            for gamma in range(1, n + 1):
                saturated[assert_same_flow(d, gamma, True)] += 1
            for nu in range(n // 2 + 1):
                saturated[assert_same_flow(d, nu, False)] += 1
    assert saturated[True] and saturated[False]


# Seeded (seed, n, dmax) cases, dense and sparse, past the exhaustive range.
# In each, the mds flow's lt == 5 phase interleaves s -> x -> y -> x -> y -> t
# units with x'_i -> y'_j -> y_j -> t runs, and in the n = 120 dense and
# n = 100 sparse cases some y_j's sink fills on the x -> y route before a
# run reaches it.  The mm flow carries almost all its units in phase 1.
LARGE_CASES = [(1, 60, 59), (25, 120, 119), (0, 100, 10), (0, 120, 20)]


@pytest.mark.parametrize("seed, n, dmax", LARGE_CASES)
def test_implicit_flow_matches_explicit_large(seed, n, dmax):
    d = random_graphic_sequence(random.Random(seed), n, dmax)
    assert assert_same_flow(d, mds_value(d), True)
    assert assert_same_flow(d, mm_value(d), False)


@st.composite
def degree_sequences(draw, max_n=40):
    """Positive degree sequences of several shapes, graphic or not."""
    n = draw(st.integers(2, max_n))
    shape = draw(st.sampled_from(("uniform", "ones", "near_regular", "star")))
    if shape == "uniform":
        cap = draw(st.integers(1, n - 1))
        vals = draw(st.lists(st.integers(1, cap), min_size=n, max_size=n))
    elif shape == "ones":
        vals = [1] * n
    elif shape == "near_regular":
        k = draw(st.integers(1, n - 1))
        vals = draw(st.lists(st.integers(max(k - 1, 1), k), min_size=n, max_size=n))
    else:
        hubs = draw(st.integers(1, max(n // 4, 1)))
        vals = [n - 1] * hubs + draw(st.lists(st.integers(1, hubs), min_size=n - hubs,
                                              max_size=n - hubs))
    return DS(tuple(sorted(vals, reverse=True)))


@st.composite
def mds_cases(draw):
    d = draw(degree_sequences())
    return d, draw(st.integers(1, d.n))


@st.composite
def mm_cases(draw):
    d = draw(degree_sequences())
    return d, draw(st.integers(0, d.n // 2))


@given(mds_cases())
@example((DS((3, 3, 3, 1, 1, 1)), 2))   # gamma = 3: the counting bound 2 is loose
@example((DS((4, 4, 4, 3, 1, 1, 1)), 2))
@example((DS((3, 3, 3, 2, 1, 1)), 3))   # odd degree sum
def test_implicit_mds_flow_matches_explicit(case):
    assert_same_flow(*case, True)


@given(mm_cases())
@example((DS((3, 3, 3, 1, 1, 1)), 3))   # above mm_value = 2
@example((DS((4, 4, 4, 3, 1, 1, 1)), 3))
@example((DS((5, 1, 1, 1, 1, 1)), 3))   # a star matches one pair only
def test_implicit_mm_flow_matches_explicit(case):
    assert_same_flow(*case, False)


@st.composite
def patterns(draw, max_n=9):
    """(n, pattern) with a prefix in [0, n], capacities of at least 1 past
    the prefix and arbitrary partners (0 excludes nothing): mostly patterns
    that neither objective produces."""
    n = draw(st.integers(1, max_n))
    prefix = draw(st.integers(0, n))
    caps = [0] + [draw(st.integers(int(i > prefix), n)) for i in range(1, n + 1)]
    partner = [0] + draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    return n, (prefix, caps, partner)


@given(patterns())
@example((4, (2, [0, 3, 3, 2, 2], [0, 2, 1, 4, 3])))   # partners past the prefix
@example((3, (0, [0, 2, 2, 2], [0, 0, 0, 0])))         # no prefix
@example((5, (3, [0, 4, 1, 3, 1, 2], [0, 1, 5, 0, 2, 2])))
def test_implicit_flow_matches_explicit_on_any_pattern(case):
    assert_same_pattern_flow(*case)


def test_characterization_matches_saturation_exhaustive_n8():
    # the constraint systems against saturation of the mds pattern, at any
    # parity; gamma = 0 for every n <= 8 (it never saturates)
    for n in range(1, 9):
        for d in all_positive_sequences(n):
            for gamma in (range(n + 1) if n == 8 else (0,)):
                value = _reduction_max_flow(n, *_mds_pattern(d, gamma))[0]
                assert mds_systems_hold(d, gamma) == (value == d.total), (d.values, gamma)
    # mm feasibility against saturation at sum(d) - 2 nu, on the graphic ones
    for d in all_positive_sequences(8):
        if not is_graphic(d):
            continue
        for nu in range(5):
            value = _reduction_max_flow(8, *_mm_pattern(d, nu))[0]
            assert mm_feasible(d, nu) == (value == d.total - 2 * nu), (d.values, nu)


def test_extraction_rejects_a_foreign_assignment():
    # every mm network of an n has the same node count, and the mm network
    # at nu and the mds network at gamma = n share it; the source
    # capacities tell them apart
    d = DS((3, 3, 2, 2, 1, 1))
    assert mm_value(d) == 3
    for extract, k, net in ((extract_bipartite_mm, 3, build_mm_flow(d, 2)),
                            (extract_bipartite_mm, 3, build_mds_flow(d, 6)),
                            (extract_bipartite_mds, 6, build_mm_flow(d, 3))):
        with pytest.raises(ContractError):
            extract(d, k, max_flow(net))


def test_mm_extraction_at_nu_zero_accepts_the_full_prefix_mds_network():
    # at nu = 0 the mm pattern is the mds pattern at gamma = n
    d = DS((3, 3, 2, 2, 1, 1))
    prefix, caps, partner = _mm_pattern(d, 0)
    assert (prefix, tuple(caps), partner) == _mds_pattern(d, d.n)
    bip = extract_bipartite_mm(d, 0, max_flow(build_mds_flow(d, d.n)))
    assert bip == extract_bipartite_mm(d, 0, max_flow(build_mm_flow(d, 0)))


@given(degree_sequences())
@example(DS((3, 3, 3, 1, 1, 1)))
@example(DS((4, 4, 4, 3, 1, 1, 1)))
def test_realize_equals_explicit_route(d):
    if not is_graphic(d):
        return
    gamma = mds_value(d)
    bip = extract_bipartite_mds(d, gamma, max_flow(build_mds_flow(d, gamma)))
    g = realize_mds(d)
    assert g == round_bipartite_mds(bip)
    assert g.realizes(d) and verify_dominating(g, g.certificate.vertices)
    assert len(g.certificate.vertices) == gamma
    assert realize_mds(d, checked=True) == g
    nu = mm_value(d)
    bip = extract_bipartite_mm(d, nu, max_flow(build_mm_flow(d, nu)))
    g = realize_mm(d)
    assert g == round_bipartite_mm(bip)
    assert g.realizes(d) and verify_matching(g, g.certificate.pairs)
    assert len(g.certificate.pairs) == nu
    assert realize_mm(d, checked=True) == g


def test_realize_validates_each_bipartite_realization_once(monkeypatch):
    # realize checks the flow's sets once per call and never builds the
    # sorted rows that validate() reads
    calls = []
    validate = BipartiteRealization.validate
    monkeypatch.setattr(BipartiteRealization, "validate",
                        lambda bip: calls.append("validate") or validate(bip))
    checked = record_checked_realizations(monkeypatch)
    d = DS((3, 3, 3, 1, 1, 1))
    realize_mds(d)
    realize_mm(d)
    assert calls == [] and [bip.mode for bip in checked] == ["mds", "mm"]
    assert all(len(bip.rows) == d.n + 1 for bip in checked)


def test_realize_gates_graphicality_once(monkeypatch):
    calls = []
    graphic_array = optreal.sequences._graphic_array
    for name in dir(optreal):
        module = getattr(optreal, name)
        if isinstance(module, types.ModuleType) and hasattr(module, "_graphic_array"):
            monkeypatch.setattr(module, "_graphic_array",
                                lambda d: calls.append(d) or graphic_array(d))
    d = DS((3, 3, 3, 1, 1, 1))
    for realize in (realize_mds, realize_mm):
        calls.clear()
        realize(d)
        assert len(calls) == 1, realize.__name__
