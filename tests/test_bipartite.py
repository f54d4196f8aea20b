"""BipartiteRealization.validate against a dense reference.

``dense_validate`` is the O(n^2) check over an (n+1)-by-(n+1) 0/1 matrix
that the sparse ``validate`` replaced; both must accept and reject the same
incidences.
"""

import itertools
import random

import pytest

from optreal import (ContractError, build_mds_flow,
                     build_mm_flow, extract_bipartite_mds, extract_bipartite_mm,
                     max_flow, mds_feasible, mm_feasible)
from optreal.bipartite import BipartiteRealization

from conftest import graphic_sequences_upto, random_graphic_sequence
from test_mds import two_by_two_swaps


def dense_validate(n, prefix, mode, degrees, adj):
    """Raise ContractError unless the dense incidence ``adj`` is valid."""
    if len(degrees) != n or len(adj) != n + 1 or any(len(r) != n + 1 for r in adj):
        raise ContractError("adjacency shape does not match n")
    if mode not in ("mds", "mm"):
        raise ContractError(f"unknown mode {mode!r}")
    if not (0 <= prefix <= n):
        raise ContractError(f"prefix {prefix} out of range")
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
        if s != degrees[i - 1]:
            raise ContractError(f"row {i} sums to {s}, expected {degrees[i - 1]}")
    for j in range(1, n + 1):
        if col[j] != degrees[j - 1]:
            raise ContractError(f"column {j} sums to {col[j]}, expected {degrees[j - 1]}")
    if mode == "mds":
        gamma = prefix
        for i in range(gamma + 1, n + 1):
            if not any(adj[i][j] for j in range(1, gamma + 1)):
                raise ContractError(f"row {i} has no neighbor in the dominating prefix")
            if not any(adj[j][i] for j in range(1, gamma + 1)):
                raise ContractError(f"column {i} has no neighbor in the dominating prefix")
    else:
        for i in range(1, prefix + 1):
            j = prefix - i + 1
            if adj[i][j] != 1:
                raise ContractError(f"inverted matching entry ({i}, {j}) missing")


def accepts(check) -> bool:
    try:
        check()
    except ContractError:
        return False
    return True


def rows_to_dense(n, rows):
    adj = [bytearray(n + 1) for _ in range(n + 1)]
    for i, row in enumerate(rows):
        for j in row:
            adj[i][j] = 1
    return adj


def rows_of(adj, n):
    return [[]] + [[j for j in range(1, n + 1) if adj[i][j]] for i in range(1, n + 1)]


def assert_same_verdict(n, prefix, mode, degrees, adj):
    bip = BipartiteRealization(n, prefix, mode, degrees, rows_of(adj, n))
    want = accepts(lambda: dense_validate(n, prefix, mode, degrees, adj))
    assert accepts(bip.validate) == want, (n, prefix, mode, degrees, bip.rows)
    return want


def valid_realizations(n_max):
    """Every extracted realization of every feasible (d, gamma) and (d, nu)."""
    for d in graphic_sequences_upto(n_max):
        for gamma in range(1, d.n + 1):
            if mds_feasible(d, gamma):
                yield extract_bipartite_mds(d, gamma, max_flow(build_mds_flow(d, gamma)))
        for nu in range(0, d.n // 2 + 1):
            if mm_feasible(d, nu):
                yield extract_bipartite_mm(d, nu, max_flow(build_mm_flow(d, nu)))


def test_single_cell_flips_agree_with_dense_reference():
    realizations = flips = 0
    verdicts = set()
    for bip in valid_realizations(6):
        n, degrees = bip.n, bip.degrees
        adj = bip.adjacency
        # the incidence and its transpose, read under every prefix of both
        # modes: a violation on the row side of one is on the column side of
        # the other
        transpose = [bytearray(adj[j][i] for j in range(n + 1)) for i in range(n + 1)]
        for mode in ("mds", "mm"):
            for prefix in range(0, n + 1):
                verdicts.add(assert_same_verdict(n, prefix, mode, degrees, adj))
                verdicts.add(assert_same_verdict(n, prefix, mode, degrees, transpose))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                adj[i][j] ^= 1
                assert not assert_same_verdict(n, bip.prefix, bip.mode, degrees, adj)
                adj[i][j] ^= 1
                flips += 1
        realizations += 1
    assert verdicts == {True, False}
    assert realizations > 300 and flips > 5000


def test_all_swaps_agree_with_dense_reference():
    # every degree-preserving 2x2 swap of every valid realization with n <= 5
    verdicts = []
    for bip in valid_realizations(5):
        n = bip.n
        adj = bip.adjacency
        # rows and columns may coincide, so a swap can set a diagonal entry
        for i, i2, j, j2 in itertools.product(range(1, n + 1), repeat=4):
            if i >= i2 or j == j2:
                continue
            if adj[i][j] and adj[i2][j2] and not adj[i][j2] and not adj[i2][j]:
                adj[i][j] = adj[i2][j2] = 0
                adj[i][j2] = adj[i2][j] = 1
                verdicts.append(assert_same_verdict(n, bip.prefix, bip.mode, bip.degrees, adj))
                adj[i][j] = adj[i2][j2] = 1
                adj[i][j2] = adj[i2][j] = 0
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


@pytest.mark.parametrize("mode", ["mds", "mm"])
def test_swap_walked_inputs_agree_with_dense_reference(mode):
    # the inputs of test_round_swap_walked_inputs (same seeds and draws),
    # and for mm also walks that may move the inverted matching entries
    rng = random.Random(2718 if mode == "mds" else 1618)
    verdicts = []
    while len(verdicts) < 300:
        d = random_graphic_sequence(rng, rng.randint(3, 10), dmax=rng.choice([2, 3, 9]))
        if d.n < 2:
            continue
        if mode == "mds":
            options = [g for g in range(1, d.n + 1) if mds_feasible(d, g)]
            if not options:
                continue
            k = rng.choice(options)
            bip = extract_bipartite_mds(d, k, max_flow(build_mds_flow(d, k)))
            frozen = frozenset()
        else:
            k = rng.choice([nu for nu in range(0, d.n // 2 + 1) if mm_feasible(d, nu)])
            bip = extract_bipartite_mm(d, k, max_flow(build_mm_flow(d, k)))
            frozen = frozenset((i, 2 * k - i + 1) for i in range(1, 2 * k + 1))
            if len(verdicts) % 2:
                frozen = frozenset()
        two_by_two_swaps(bip.rows, d.n, rng, rng.randint(0, 4 * d.n), frozen)
        verdicts.append(assert_same_verdict(d.n, bip.prefix, bip.mode, bip.degrees,
                                            bip.adjacency))
    assert set(verdicts) == {True, False}


def triangle_rows():
    return [[], [2, 3], [1, 3], [1, 2]]


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda rows: rows.pop(), id="too-few-rows"),
    pytest.param(lambda rows: rows.append([]), id="too-many-rows"),
    pytest.param(lambda rows: rows[1].reverse(), id="unsorted"),
    pytest.param(lambda rows: rows[1].__setitem__(1, 2), id="duplicate-column"),
    pytest.param(lambda rows: rows[1].__setitem__(0, 0), id="column-0"),
    pytest.param(lambda rows: rows[1].__setitem__(1, 4), id="column-n+1"),
    pytest.param(lambda rows: rows[1].__setitem__(0, 1), id="diagonal"),
    pytest.param(lambda rows: rows[0].append(1), id="slot-0-not-empty"),
    pytest.param(lambda rows: rows[2].__setitem__(0, 1.0), id="non-int-column"),
    pytest.param(lambda rows: rows.__setitem__(3, (1, 2)), id="row-not-a-list"),
])
def test_malformed_rows_rejected(mutate):
    rows = triangle_rows()
    BipartiteRealization(3, 1, "mds", (2, 2, 2), rows).validate()
    mutate(rows)
    with pytest.raises(ContractError):
        BipartiteRealization(3, 1, "mds", (2, 2, 2), rows).validate()


# (prefix, mode, degrees, rows) with one fault each
SINGLE_FAULTS = [
    (1, "mds", (2, 2, 2), [[], [2, 3], [3], [1, 2]]),               # a row sum
    (1, "mds", (2, 2, 2), [[], [1, 2, 3], [1, 3], [1, 2]]),         # a diagonal
    (1, "mds", (2, 2, 2), [[], [2, 4], [1, 3], [1, 2]]),            # a column out of range
    (1, "mds", (2, 2, 2, 2), [[], [2, 3], [1, 4], [1, 4], [2, 3]]),  # no prefix neighbour
    (2, "mm", (1, 1, 1, 1), [[], [3], [4], [1], [2]]),              # a partner missing
    (2, "mm", (1, 1, 1, 1), [[], [2], [1], [2], [3]]),              # a column sum
    (2, "mds", (2, 2, 2, 2, 2), [[], [2, 3], [3, 4], [1, 5], [1, 5], [2, 4]]),  # a column uncovered
]

SINGLE_FAULT_ROWS = [
    # row and column counts hold; the one fault is the named one
    pytest.param(2, 0, "mm", (1, 1), [[], [1], [2]], id="diagonal-only"),
    pytest.param(4, 0, "mm", (2, 2, 2, 2), [[], [2, 2], [3, 4], [1, 4], [1, 3]],
                 id="duplicate-only"),
]


@pytest.mark.parametrize("n, prefix, mode, degrees, rows", SINGLE_FAULT_ROWS)
def test_single_fault_rows_rejected(n, prefix, mode, degrees, rows):
    with pytest.raises(ContractError):
        BipartiteRealization(n, prefix, mode, degrees, rows).validate()


def dense_faults():
    """The single faults above that a dense 0/1 matrix can hold: a column
    outside 1..n or a repeated one is a fault of the list form only."""
    cases = [(len(degrees), prefix, mode, degrees, rows)
             for prefix, mode, degrees, rows in SINGLE_FAULTS]
    cases += [case.values for case in SINGLE_FAULT_ROWS]
    return [(n, prefix, mode, degrees, rows) for n, prefix, mode, degrees, rows in cases
            if all(row == sorted(set(row)) and set(row) <= set(range(1, n + 1))
                   for row in rows)]


@pytest.mark.parametrize("n, prefix, mode, degrees, rows", dense_faults())
def test_validate_names_a_single_fault_like_the_dense_reference(n, prefix, mode, degrees, rows):
    # the rule function validate() shares with both flow read-offs, against
    # an independent per-entry implementation of the same rules
    with pytest.raises(ContractError) as expected:
        dense_validate(n, prefix, mode, degrees, rows_to_dense(n, rows))
    with pytest.raises(ContractError) as info:
        BipartiteRealization(n, prefix, mode, degrees, rows).validate()
    assert str(info.value) == str(expected.value)


def test_dense_faults_cover_every_rule():
    # all but the column out of range and the repeated column
    assert len(dense_faults()) == 7


def test_adjacency_is_a_fresh_dense_view():
    bip = BipartiteRealization(3, 2, "mm", (2, 2, 2), triangle_rows())
    adj = bip.adjacency
    assert [list(r) for r in adj] == [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]]
    adj[1][2] = 0
    assert bip.rows[1] == [2, 3] and bip.adjacency[1][2] == 1
    dense_validate(3, 2, "mm", (2, 2, 2), bip.adjacency)
    bip.validate()
