"""Opt-in exhaustive tier: every graphic sequence with n = 8 against the
oracle.

Tier-1 checks every graphic n <= 7.  Here each of the 871 graphic
sequences of 8 degrees in [1, 7] is enumerated once, and the least
dominating-set size and the largest matching size over its realizations --
``oracle_mds`` and ``oracle_mm``, from one enumeration for both objectives
-- are compared with ``mds_value`` and ``mm_value``, and with
``mds_feasible`` at every gamma and ``mm_feasible`` at every nu.

Skipped unless pytest runs with ``--exhaustive``.
"""

import pytest

from optreal import (enumerate_realizations, exact_mds, exact_mm, is_graphic,
                     mds_feasible, mds_value, mm_feasible, mm_value, oracle_mds,
                     oracle_mm)

from conftest import all_positive_sequences


def oracle_values(d):
    """(oracle_mds(d), oracle_mm(d)) for a graphic ``d`` without zeros, from
    one enumeration."""
    least_mds, most_mm = d.n, 0
    for g in enumerate_realizations(d):
        least_mds = min(least_mds, exact_mds(g))
        most_mm = max(most_mm, exact_mm(g))
    return least_mds, most_mm


def test_values_and_feasibility_match_the_oracle_exhaustive_n8(request):
    if not request.config.getoption("--exhaustive"):
        pytest.skip("opt-in: run pytest with --exhaustive")
    graphic = [d for d in all_positive_sequences(8) if is_graphic(d)]
    assert len(graphic) == 871
    # the one-enumeration values are the oracle's own, spot-checked
    for d in graphic[::100]:
        assert oracle_values(d) == (oracle_mds(d), oracle_mm(d)), d.values
    for d in graphic:
        mds, mm = oracle_values(d)
        assert (mds_value(d), mm_value(d)) == (mds, mm), d.values
        for gamma in range(9):
            assert mds_feasible(d, gamma) == (gamma >= mds), (d.values, gamma)
        for nu in range(5):
            assert mm_feasible(d, nu) == (nu <= mm), (d.values, nu)
