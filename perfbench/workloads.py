"""Seeded workload inputs, generated without help from optreal.

Every workload turns a seed into a fixed *pool* of inputs; the timed loop
runs the whole pool in order, round after round.  An input is either a
degree sequence (given to optreal as a ``DegreeSequence`` built before
timing starts) or, on ``value-huge``, the degree text a user would pass to
``parse_sequence``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np


# Pool sizes: at the seed commit one round (the whole pool) takes 2 to 5 s,
# so a 20 s run makes four rounds or more and every call's fastest time is
# a best of four or more.
SPARSE_N, SPARSE_DMAX = 400, 30
DENSE_N = 300
REALIZE_POOL = 6
BATCH_NMIN, BATCH_NMAX = 16, 128
BATCH_POOL = 32


@dataclass(frozen=True)
class Workload:
    name: str
    # Public calls made for every input, in order.  "parse" means the input
    # is text; otherwise it is a non-increasing tuple of positive degrees.
    plan: tuple[str, ...]


WORKLOADS = {w.name: w for w in (
    Workload("realize-sparse", ("realize_mds", "realize_mm")),
    Workload("realize-dense", ("realize_mds", "realize_mm")),
    Workload("batch-small", ("is_graphic", "mds_value", "mm_value", "realize_mds", "realize_mm")),
    Workload("value-huge", ("parse", "is_graphic", "mds_value", "mm_value")),
)}

HUGE_N = 200_000
HUGE_DMAX_LOW, HUGE_DMAX_HIGH = 40, 2000
ORACLE_SIZES = (5, 6, 7, 8)


def is_graphic(values) -> bool:
    """Erdős–Gallai test, the benchmark's own copy (parity included)."""
    d = np.sort(np.asarray(values, dtype=np.int64))[::-1]
    n = d.shape[0]
    if n == 0:
        return True
    if int(d.sum()) % 2:
        return False
    prefix = np.concatenate(([0], np.cumsum(d)))
    k = np.arange(1, n + 1, dtype=np.int64)
    at_least_k = n - np.searchsorted(d[::-1], k, side="left")
    split = np.maximum(k, at_least_k)
    rhs = k * (k - 1) + k * np.maximum(at_least_k - k, 0) + (prefix[n] - prefix[split])
    return bool(np.all(prefix[1:] <= rhs))


def _even_sum(vals: list[int]) -> bool:
    """Lower one entry above 1 when the sum is odd; False if none exists."""
    if sum(vals) % 2 == 0:
        return True
    for i, v in enumerate(vals):
        if v > 1:
            vals[i] = v - 1
            return True
    return False


def graphic_degrees(rng: random.Random, n: int, lo: int, hi: int) -> tuple[int, ...]:
    """Uniform degrees in [lo, hi], redrawn until graphic; sorted non-increasing."""
    choices = range(lo, hi + 1)
    while True:
        vals = rng.choices(choices, k=n)
        if _even_sum(vals) and is_graphic(vals):
            return tuple(sorted(vals, reverse=True))


def make_pool(name: str, seed: int) -> list:
    rng = random.Random(f"{name}:{seed}")
    if name == "realize-sparse":
        return [graphic_degrees(rng, SPARSE_N, 1, SPARSE_DMAX) for _ in range(REALIZE_POOL)]
    if name == "realize-dense":
        return [graphic_degrees(rng, DENSE_N, 1, DENSE_N - 1) for _ in range(REALIZE_POOL)]
    if name == "batch-small":
        # The midpoints of BATCH_POOL equal strata of [16, 128], in seeded
        # order: sizes cover the range evenly and every round and every seed
        # has the same sizes, so the median and the mean stay steady.
        width = (BATCH_NMAX - BATCH_NMIN + 1) / BATCH_POOL
        sizes = [BATCH_NMIN + int((j + 0.5) * width) for j in range(BATCH_POOL)]
        rng.shuffle(sizes)
        return [graphic_degrees(rng, n, 1, n - 1) for n in sizes]
    if name == "value-huge":
        low = rng.choices(range(1, HUGE_DMAX_LOW + 1), k=HUGE_N)
        high = rng.choices(range(1, HUGE_DMAX_HIGH + 1), k=HUGE_N)
        # A degree of n is the early reason for rejection; the sum stays even
        # so the parity test alone does not decide it.
        bad = rng.choices(range(1, HUGE_DMAX_LOW + 1), k=HUGE_N)
        at = rng.randrange(HUGE_N)
        bad[at] = HUGE_N
        if sum(bad) % 2:
            other = (at + 1) % HUGE_N
            bad[other] += 1 if bad[other] == 1 else -1
        for vals in (low, high):
            if not (_even_sum(vals) and is_graphic(vals)):
                raise RuntimeError("value-huge draw is not graphic")
        return [" ".join(map(str, vals)) for vals in (low, high, bad)]
    raise KeyError(name)


def oracle_pool(seed: int) -> list[tuple[int, ...]]:
    """Small sequences cross-checked against the exhaustive oracle."""
    rng = random.Random(f"oracle:{seed}")
    return [graphic_degrees(rng, n, 1, n - 1) for n in ORACLE_SIZES]


# Untimed warm-up input, in the form each plan expects.
WARMUP_DEGREES = (3, 3, 2, 2, 2, 1, 1)
