"""Shared helpers for the test suite."""

import itertools
import random

from hypothesis import settings

from optreal import BipartiteRealization, DegreeSequence, bipartite, is_graphic

# Property tests run the same examples on every run; another profile can be
# chosen with pytest's --hypothesis-profile option.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def pytest_addoption(parser):
    parser.addoption("--scale", action="store_true",
                     help="also run the opt-in dense n = 2000 and sparse n = 10^4, 10^5 "
                          "realize tests (tests/test_scale.py)")
    parser.addoption("--exhaustive", action="store_true",
                     help="also run the opt-in oracle check of every graphic n = 8 "
                          "sequence and the saturation check of every n <= 10 one "
                          "(tests/test_exhaustive.py)")


def all_positive_sequences(n: int):
    """Every non-increasing sequence of n degrees from [1, max(n-1, 1)]."""
    top = max(n - 1, 1)
    for vals in itertools.combinations_with_replacement(range(top, 0, -1), n):
        yield DegreeSequence(tuple(vals))


def graphic_sequences_upto(n_max: int):
    for n in range(1, n_max + 1):
        for d in all_positive_sequences(n):
            if is_graphic(d):
                yield d


def random_graphic_sequence(rng: random.Random, n: int, dmax: int | None = None) -> DegreeSequence:
    """Sample a graphic sequence of length n with degrees in [1, dmax].

    For n < 2 no positive degree is realizable, so the result is all zeros.
    """
    if n < 2:
        return DegreeSequence((), zero_count=n)
    dmax = max(min(dmax if dmax is not None else n - 1, n - 1), 1)
    if dmax == 1 and n % 2 != 0:
        dmax = 2  # an odd all-ones vector is never graphic
    while True:
        vals = sorted((rng.randint(1, dmax) for _ in range(n)), reverse=True)
        if sum(vals) % 2 != 0:
            lowered = False
            for i in range(n - 1, -1, -1):
                if vals[i] > 1:
                    vals[i] -= 1
                    lowered = True
                    break
            if not lowered:
                continue
            vals.sort(reverse=True)
        d = DegreeSequence(tuple(vals))
        if is_graphic(d):
            return d


def record_checked_realizations(monkeypatch) -> list:
    """Make the check of a flow's sets (``bipartite._flow_checked``, which
    ``validate()`` does not call) record, per call, the realization it
    checks, each row as its sorted column list taken before anyone changes
    the row set; return the list the realizations go into."""
    check = bipartite._flow_checked
    seen = []

    def recording(n, prefix, mode, degrees, incidence):
        rows = [[]]
        seen.append(BipartiteRealization(n, prefix, mode, degrees, rows))

        def recorded():
            for out_i, in_i in incidence:
                rows.append(sorted(out_i))
                yield out_i, in_i

        return check(n, prefix, mode, degrees, recorded())

    monkeypatch.setattr(bipartite, "_flow_checked", recording)
    return seen
