"""Realize's checks at set and array speed against the per-entry references.

``realize_*`` checks the bipartite realization its flow carries on the
flow's row and column sets (``bipartite._flow_checked``), never on sorted
rows; ``BipartiteRealization.validate()``, the public check of ``rows``,
checks their list form and then runs the same rule function
(``bipartite._checked_incidence``) on their sets.  Every single mutation of
a solver realization below must be rejected by both, and an unmutated one
accepted by both; the per-entry reference for the rules and their messages
is ``dense_validate`` in ``test_bipartite.py``.

A ``Realization`` keeps its edges as one int64 array, built and checked at
construction; ``degrees()`` and ``verify_dominating`` read it.  They are
compared here with per-edge counts and sets, and the constructor's errors
with the per-edge loop it replaced.
"""

import itertools
import random
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from optreal import (BipartiteRealization, ContractError, DegreeSequence, DomainError,
                     InternalError, havel_hakimi_realize, mds_systems_hold, mm_feasible,
                     realize_mds, realize_mm, verify_dominating)
from optreal import bipartite
from optreal.bipartite import _from_reduction_flow
from optreal.dominating import _mds_pattern
from optreal.matching import _mm_pattern
from optreal.sequences import Realization

from conftest import graphic_sequences_upto, record_checked_realizations
from test_bipartite import SINGLE_FAULTS

CHECK = bipartite._flow_checked


def _pool(workload: str) -> list[DegreeSequence]:
    """The benchmark's seeded seed-0 pool, from ``perfbench/workloads.py``."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [DegreeSequence(tuple(vals)) for vals in workloads.make_pool(workload, 0)]


# ----------------------------------------------------------- set check


def solver_realizations(monkeypatch, d: DegreeSequence, every_prefix: bool):
    """The realizations realize's flow carries for ``d``, each as checked:
    at every feasible gamma and nu, or at the optimal ones only."""
    checked = record_checked_realizations(monkeypatch)
    n = d.n
    gammas = [g for g in range(n + 1) if mds_systems_hold(d, g)]
    nus = [nu for nu in range(n // 2 + 1) if mm_feasible(d, nu)]
    if not every_prefix:
        gammas, nus = gammas[:1], nus[-1:]
    for gamma in gammas:
        _from_reduction_flow(n, gamma, "mds", d.values, *_mds_pattern(d, gamma))
    for nu in nus:
        _from_reduction_flow(n, 2 * nu, "mm", d.values, *_mm_pattern(d, nu))
    assert len(checked) == len(gammas) + len(nus)
    return checked


def set_check(bip: BipartiteRealization):
    """Run realize's check on the row and column sets of ``bip.rows``."""
    cols = defaultdict(set)
    for i, row in enumerate(bip.rows):
        for j in row:
            cols[j].add(i)
    incidence = ((set(bip.rows[i]), cols[i]) for i in range(1, bip.n + 1))
    for _ in CHECK(bip.n, bip.prefix, bip.mode, bip.degrees, incidence):
        pass


def _free_column(rows, i, n, allowed):
    """The least column k for row set i: no diagonal, not yet in the row,
    and ``allowed(k)``; None if there is none."""
    return next((k for k in range(1, n + 1)
                 if k != i and k not in rows[i] and allowed(k)), None)


def mutations(bip: BipartiteRealization, chosen, rng: random.Random, per_kind=None):
    """Yield (kind, the set check's reason, mutated rows) for single
    mutations of ``bip`` at the ``chosen`` rows (or columns); ``per_kind``
    samples that many of each kind, None takes all of them.  A mutation is
    a list of edits (row, column taken out or None, column put in or None)."""
    n, prefix = bip.n, bip.prefix
    rows = [set(row) for row in bip.rows]
    mds = bip.mode == "mds"
    kinds = {"dropped": [], "diagonal": [], "moved": [], "column": [], "uncovered": [],
             "partner removed": [], "partner moved": []}
    for i in chosen:
        prefix_units = sum(j <= prefix for j in rows[i])
        for j in rows[i]:
            kinds["dropped"].append(("row", [(i, j, None)]))
            # a unit moved to another column on its own side of the prefix,
            # never a partner and never a row's last prefix unit: every row
            # keeps its rules, two columns break
            if mds and i > prefix and j <= prefix and prefix_units == 1:
                continue
            if not mds and i <= prefix and j == prefix - i + 1:
                continue
            k = _free_column(rows, i, n, lambda k: (k <= prefix) == (j <= prefix))
            if k is not None:
                kinds["column"].append(("column", [(i, j, k)]))
        kinds["diagonal"].append(("diagonal", [(i, None, i)]))
    if mds:
        for i in filter(prefix.__lt__, chosen):
            # a nonprefix vertex's last prefix unit moved out of the prefix
            inside = [j for j in rows[i] if j <= prefix]
            k = _free_column(rows, i, n, prefix.__lt__)
            if len(inside) == 1 and k is not None:
                kinds["moved"].append(("no neighbor", [(i, inside[0], k)]))
        # a nonprefix column c covered by one prefix row a trades with a
        # nonprefix row b: every row and column sum stays, the cover breaks
        for c in filter(prefix.__lt__, chosen):
            cover = [a for a in range(1, prefix + 1) if c in rows[a]]
            if len(cover) != 1:
                continue
            a = cover[0]
            for b in range(prefix + 1, n + 1):
                e = next((e for e in rows[b] if e > prefix and e != a and e not in rows[a]), None)
                if b != c and c not in rows[b] and e is not None:
                    kinds["uncovered"].append(("column", [(a, c, e), (b, e, c)]))
                    break
    else:
        for i in filter(prefix.__ge__, chosen):
            j = prefix - i + 1
            kinds["partner removed"].append(("row", [(i, j, None)]))
            k = _free_column(rows, i, n, j.__ne__)
            if k is not None:
                kinds["partner moved"].append(("inverted matching", [(i, j, k)]))
    for kind, found in kinds.items():
        if per_kind is not None and len(found) > per_kind:
            found = rng.sample(found, per_kind)
        for reason, edits in found:
            mutated = list(bip.rows)
            for i, old, new in edits:
                mutated[i] = sorted(set(mutated[i]) - {old} | ({new} - {None}))
            yield kind, reason, mutated


def assert_both_checks_agree(bip: BipartiteRealization, chosen, rng, per_kind=None) -> set:
    """Both checks accept ``bip`` and reject each of its mutations at the
    ``chosen`` rows; return the mutation kinds seen."""
    bip.validate()
    set_check(bip)
    seen = set()
    for kind, reason, rows in mutations(bip, chosen, rng, per_kind):
        mutated = BipartiteRealization(bip.n, bip.prefix, bip.mode, bip.degrees, rows)
        with pytest.raises(ContractError):
            mutated.validate()
        with pytest.raises(InternalError, match=reason) as info:
            set_check(mutated)
        assert str(info.value).startswith("saturating flow produced an invalid realization: ")
        seen.add(kind)
    return seen


def test_mutations_rejected_by_both_checks_exhaustive(monkeypatch):
    rng = random.Random(0)
    seen = set()
    count = 0
    for d in graphic_sequences_upto(6):
        for bip in solver_realizations(monkeypatch, d, every_prefix=True):
            seen |= assert_both_checks_agree(bip, range(1, bip.n + 1), rng)
            count += 1
    assert count > 200
    assert seen == {"dropped", "diagonal", "moved", "column", "uncovered",
                    "partner removed", "partner moved"}


@pytest.mark.parametrize("workload", ["realize-dense", "realize-sparse"])
def test_mutations_rejected_by_both_checks_on_benchmark_pools(monkeypatch, workload):
    rng = random.Random(workload)
    for d in _pool(workload):
        for bip in solver_realizations(monkeypatch, d, every_prefix=False):
            chosen = sorted(rng.sample(range(1, bip.n + 1), 8))
            seen = assert_both_checks_agree(bip, chosen, rng, per_kind=2)
            assert {"dropped", "diagonal", "column"} <= seen


@pytest.mark.parametrize("prefix, mode, degrees, rows", SINGLE_FAULTS)
def test_check_messages_match_validate(prefix, mode, degrees, rows):
    # one fault each, found first by both checks and named in the same words
    bip = BipartiteRealization(len(degrees), prefix, mode, degrees, rows)
    with pytest.raises(ContractError) as expected:
        bip.validate()
    with pytest.raises(InternalError) as info:
        set_check(bip)
    assert str(info.value) == ("saturating flow produced an invalid realization: "
                               + str(expected.value))


def test_realize_rejects_a_corrupted_flow(monkeypatch):
    # the check runs to its column rules inside realize: a unit moved from
    # one column to another keeps every row sum
    flow = bipartite._reduction_max_flow

    def moved(n, prefix, caps, partner):
        value, rows, cols, sup_rows, sup_cols = flow(n, prefix, caps, partner)
        i = next(i for i in range(1, n + 1) if rows[i])
        j = min(rows[i])
        k = next(k for k in range(1, n + 1) if k != i and k not in rows[i] | sup_rows[i]
                 and k != partner[i])
        rows[i].discard(j)
        cols[j].discard(i)
        rows[i].add(k)
        cols[k].add(i)
        return value, rows, cols, sup_rows, sup_cols

    monkeypatch.setattr(bipartite, "_reduction_max_flow", moved)
    d = DegreeSequence((3, 3, 2, 2, 1, 1))
    for realize in (realize_mds, realize_mm):
        with pytest.raises(InternalError, match="column .* sums to"):
            realize(d)


# ------------------------------------------------------------ edge array


def per_edge_degrees(g: Realization) -> tuple:
    deg = [0] * (g.n + 1)
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return tuple(deg[1:])


def dominated_by_sets(g: Realization, vertices) -> bool:
    chosen = set(vertices)
    dominated = set(chosen)
    for u, v in g.edges:
        if u in chosen:
            dominated.add(v)
        if v in chosen:
            dominated.add(u)
    return len(dominated) == g.n


def assert_array_matches(g: Realization, rng: random.Random):
    arr = g._array
    assert arr.dtype == np.int64 and arr.shape == (len(g.edges), 2)
    assert not arr.flags.writeable
    assert set(map(tuple, arr.tolist())) == g.edges
    assert g.degrees() == per_edge_degrees(g)
    for size in (1, 2, g.n // 4, rng.randint(0, g.n)):
        chosen = rng.sample(range(1, g.n + 1), min(size, g.n))
        assert verify_dominating(g, chosen) == dominated_by_sets(g, chosen), (g, chosen)


def every_graph(n: int):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield Realization(n, frozenset(p for k, p in enumerate(pairs) if mask >> k & 1))


def test_edge_array_on_every_small_graph():
    rng = random.Random(1)
    for n in range(6):
        for g in every_graph(n):
            assert_array_matches(g, rng)


def test_edge_array_on_realizations_exhaustive():
    rng = random.Random(2)
    for d in graphic_sequences_upto(7):
        padded = DegreeSequence(d.values, 2)   # two isolated vertices appended
        for g in (realize_mds(d), realize_mm(d), havel_hakimi_realize(d),
                  realize_mds(padded), realize_mm(padded)):
            assert_array_matches(g, rng)


@pytest.mark.parametrize("workload", ["realize-dense", "realize-sparse"])
def test_edge_array_on_benchmark_pools(workload):
    rng = random.Random(workload)
    for d in _pool(workload):
        g_mds, g_mm = realize_mds(d), realize_mm(d)
        assert_array_matches(g_mds, rng)
        assert_array_matches(g_mm, rng)
        assert verify_dominating(g_mds, g_mds.certificate.vertices)


def first_bad_edge_message(n, edges):
    """The per-edge loop the constructor ran before it kept an array."""
    for (u, v) in edges:
        if not (1 <= u < v <= n):
            return f"edge ({u}, {v}) is not a normalized pair within 1..{n}"
    return None


def test_constructor_names_the_first_bad_edge_like_the_loop():
    rng = random.Random(3)
    endpoints = [0, 1, 2, 3, 5, 8, 9, -1, 2**63, -2**63 - 1, 2**63 - 1]
    for _ in range(400):
        n = rng.randint(0, 8)
        edges = frozenset((rng.choice(endpoints), rng.choice(endpoints))
                          for _ in range(rng.randint(1, 6)))
        expected = first_bad_edge_message(n, edges)
        if expected is None:
            assert Realization(n, edges).degrees() == per_edge_degrees(Realization(n, edges))
            continue
        with pytest.raises(DomainError) as info:
            Realization(n, edges)
        assert str(info.value) == expected, (n, edges)


@pytest.mark.parametrize("edges", [
    {(1, 2.5)}, {(1.0, 2)}, {(1, "3")}, {(1, 2, 3)}, {(1,)}, {(1, 2), (2, 3, 1)},
    {(1, np.float64(2.0))}, {(1, 2), 5},
])
def test_constructor_rejects_edges_it_cannot_use(edges):
    with pytest.raises(DomainError, match="is not a pair of integers"):
        Realization(3, frozenset(edges))


@pytest.mark.parametrize("edges, pair", [
    ([(1, 2), (1, 2)], (1, 2)),
    (((2, 3), (1, 2), (2, 3)), (2, 3)),
    ([(1, 3), (1, 2), (1, 3), (1, 2)], (1, 2)),   # the least repeated pair
])
def test_constructor_rejects_a_repeated_pair(edges, pair):
    with pytest.raises(DomainError) as info:
        Realization(3, edges)
    assert str(info.value) == f"edge {pair} is repeated"


def test_sets_and_from_edges_keep_one_copy_of_each_pair():
    want = Realization(3, [(1, 2), (2, 3)])
    for edges in ({(1, 2), (2, 3)}, frozenset({(2, 3), (1, 2)})):
        g = Realization(3, edges)
        assert g == want and g.degrees() == (1, 2, 1) and len(g._array) == 2
    g = Realization.from_edges(3, [(1, 2), (2, 1), (2, 3), (1, 2), (3, 2)])
    assert g == want and g.degrees() == (1, 2, 1) and len(g._array) == 2


def test_constructor_rejects_edges_without_a_size():
    with pytest.raises(DomainError, match="sized collection"):
        Realization(3, (edge for edge in [(1, 2)]))


def test_constructor_keeps_range_errors_beyond_int64():
    for edge in ((1, 2**63), (-2**64, 2), (2**70, 2**71)):
        with pytest.raises(DomainError, match="is not a normalized pair within 1..3"):
            Realization(3, frozenset({edge}))


@pytest.mark.parametrize("n", [-1, 2**63, 2.0, "3"])
def test_constructor_rejects_a_bad_vertex_count(n):
    with pytest.raises(DomainError, match="vertex count"):
        Realization(n, frozenset())


def test_constructor_accepts_integer_like_endpoints():
    g = Realization(np.int64(3), frozenset({(np.int64(1), 3), (True, 2)}))
    assert g.degrees() == (2, 1, 1)
    assert verify_dominating(g, [1])


def test_verify_dominating_rejects_non_integer_vertices():
    g = Realization(3, frozenset({(1, 2)}))
    for bad in ([1, 2.5], [1.0], ["1"], [None]):
        with pytest.raises(DomainError):
            verify_dominating(g, bad)
    assert verify_dominating(g, [np.int64(1), np.int64(3)])
    assert not verify_dominating(g, [np.int64(1)])
