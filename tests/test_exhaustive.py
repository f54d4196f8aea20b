"""Opt-in exhaustive tier: every graphic sequence with n = 8 against the
oracle, and the paper's characterization against flow saturation to n = 10.

Tier-1 checks every graphic n <= 7.  Here each of the 871 graphic
sequences of 8 degrees in [1, 7] is enumerated once, and the least
dominating-set size and the largest matching size over its realizations --
``oracle_mds`` and ``oracle_mm``, from one enumeration for both objectives
-- are compared with ``mds_value`` and ``mm_value``, and with
``mds_feasible`` at every gamma and ``mm_feasible`` at every nu.

Beyond the oracle's range, ``mds_systems_hold`` is compared with saturation
of the mds reduction network at every gamma, and ``mm_feasible`` with
saturation of the mm one at every nu, on every sequence of n <= 10 degrees
in [1, n - 1] that passes the Erdos-Gallai inequalities at either parity
(``mm_feasible`` on the graphic ones).

Skipped unless pytest runs with ``--exhaustive``.
"""

import pytest

from optreal import (enumerate_realizations, exact_mds, exact_mm, is_graphic,
                     mds_feasible, mds_systems_hold, mds_value, mm_feasible, mm_value,
                     oracle_mds, oracle_mm)
from optreal.dominating import _mds_pattern
from optreal.flow import _reduction_max_flow
from optreal.matching import _mm_pattern
from optreal.sequences import _eg_inequalities_hold, _values_array

from conftest import all_positive_sequences


def oracle_values(d):
    """(oracle_mds(d), oracle_mm(d)) for a graphic ``d`` without zeros, from
    one enumeration."""
    least_mds, most_mm = d.n, 0
    for g in enumerate_realizations(d):
        least_mds = min(least_mds, exact_mds(g))
        most_mm = max(most_mm, exact_mm(g))
    return least_mds, most_mm


@pytest.fixture
def exhaustive(request):
    if not request.config.getoption("--exhaustive"):
        pytest.skip("opt-in: run pytest with --exhaustive")


def test_values_and_feasibility_match_the_oracle_exhaustive_n8(exhaustive):
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


def test_characterization_matches_saturation_exhaustive_n10(exhaustive):
    mds_pairs = mm_pairs = 0
    for n in range(1, 11):
        for d in all_positive_sequences(n):
            if not _eg_inequalities_hold(_values_array(d)):
                continue
            for gamma in range(n + 1):
                value = _reduction_max_flow(n, *_mds_pattern(d, gamma))[0]
                assert mds_systems_hold(d, gamma) == (value == d.total), (d.values, gamma)
                mds_pairs += 1
            if not is_graphic(d):
                continue
            for nu in range(n // 2 + 1):
                value = _reduction_max_flow(n, *_mm_pattern(d, nu))[0]
                assert mm_feasible(d, nu) == (value == d.total - 2 * nu), (d.values, nu)
                mm_pairs += 1
    # 30,229 sequences, 291,121 pairs at gamma >= 1 and one more each at 0
    assert (mds_pairs, mm_pairs) == (321_350, 91_356)
