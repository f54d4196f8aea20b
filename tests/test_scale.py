"""Opt-in scale tests: realize a dense sequence at n = 2000 and sparse
sequences at n = 10^4 and n = 10^5 with both objectives, and check each
witness with its verifier.

Skipped unless pytest runs with ``--scale``.  On a 2-core host, the dense
n = 2000 case takes ~3.5 s and ~470 MB against bounds of 60 s and 1.5 GB;
n = 10^4 takes ~1 s and ~70 MB against bounds of 30 s and 1 GB, and
n = 10^5 takes ~11 s and ~450 MB against bounds of 60 s and 1.5 GB.  The
peak RSS read is that of the whole test process, so the dense case runs
first, where no earlier case has raised it.
"""

import random
import resource
import time

import pytest

from optreal import (DegreeSequence, is_graphic, realize_mds, realize_mm,
                     verify_dominating, verify_matching)

from conftest import random_graphic_sequence

DMAX = 30


# (n, time bound in s, peak RSS bound in MB), run in this order
CASES = [(10_000, 30, 1024), (100_000, 60, 1536)]


def realize_both_within(d: DegreeSequence, max_seconds: float, max_mb: float):
    started = time.perf_counter()
    g_mds = realize_mds(d)
    g_mm = realize_mm(d)
    seconds = time.perf_counter() - started
    # ru_maxrss is in KiB on Linux: the peak of this whole test process
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    n = d.n
    assert g_mds.realizes(d) and g_mm.realizes(d), n
    assert verify_dominating(g_mds, g_mds.certificate.vertices), n
    assert verify_matching(g_mm, g_mm.certificate.pairs), n
    assert seconds < max_seconds, f"n = {n}: realize took {seconds:.1f} s"
    assert peak_mb < max_mb, f"n = {n}: peak RSS {peak_mb:.0f} MB"


def test_realize_dense_at_scale(request):
    if not request.config.getoption("--scale"):
        pytest.skip("opt-in: run pytest with --scale")
    n = 2000
    d = random_graphic_sequence(random.Random(n), n, n - 1)
    assert d.n == n and d.values[0] <= n - 1 and d.total > 10**6
    realize_both_within(d, 60, 1536)


def test_realize_sparse_at_scale(request):
    if not request.config.getoption("--scale"):
        pytest.skip("opt-in: run pytest with --scale")
    for n, max_seconds, max_mb in CASES:
        rng = random.Random(n)
        vals = sorted((rng.randint(1, DMAX) for _ in range(n)), reverse=True)
        if sum(vals) % 2:
            vals[0] -= 1
            vals.sort(reverse=True)
        d = DegreeSequence(tuple(vals))
        assert is_graphic(d)
        realize_both_within(d, max_seconds, max_mb)
