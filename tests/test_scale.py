"""Opt-in scale test: realize an n = 10^4 sparse sequence with both objectives.

Skipped unless pytest runs with ``--scale``; it takes a few seconds and
~80 MB on a 2-core host, against bounds of 30 s and 1 GB.
"""

import random
import resource
import time

import pytest

from optreal import (DegreeSequence, is_graphic, realize_mds, realize_mm,
                     verify_dominating, verify_matching)

N, DMAX = 10_000, 30


def test_realize_n_10k_sparse(request):
    if not request.config.getoption("--scale"):
        pytest.skip("opt-in: run pytest with --scale")
    rng = random.Random(10_000)
    vals = sorted((rng.randint(1, DMAX) for _ in range(N)), reverse=True)
    if sum(vals) % 2:
        vals[0] -= 1
        vals.sort(reverse=True)
    d = DegreeSequence(tuple(vals))
    assert is_graphic(d)

    started = time.perf_counter()
    g_mds = realize_mds(d)
    g_mm = realize_mm(d)
    seconds = time.perf_counter() - started
    # ru_maxrss is in KiB on Linux: the peak of this whole test process
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    assert g_mds.realizes(d) and g_mm.realizes(d)
    assert verify_dominating(g_mds, g_mds.certificate.vertices)
    assert verify_matching(g_mm, g_mm.certificate.pairs)
    assert seconds < 30, f"realize took {seconds:.1f} s"
    assert peak_mb < 1024, f"peak RSS {peak_mb:.0f} MB"
