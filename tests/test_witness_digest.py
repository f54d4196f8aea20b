"""Byte-identity of the realize witnesses on a fixed, seeded set of sequences.

The digest below was recorded with the explicit reduction networks
(``build_*_flow`` + ``max_flow``) on the production path.  Any change to the
flow that ``realize_*`` reads, to the extraction or to the rounding shows up
here as a different edge set or certificate, beyond what the CLI goldens cover.
"""

import hashlib
import itertools
import random

from optreal import DegreeSequence, is_graphic, realize_mds, realize_mm

WITNESS_DIGEST = "23eb598be3642c917783f0c4facd59ad8fb83498162a2d315e14c0ba5b0ff7da"


def _random_graphic(rng: random.Random, n: int, cap: int) -> DegreeSequence:
    cap = max(1, min(cap, n - 1))
    while True:
        vals = [rng.randint(1, cap) for _ in range(n)]
        if sum(vals) % 2:
            i = max(range(n), key=lambda k: vals[k])
            vals[i] -= 1
        zeros = rng.randint(1, 3) if rng.random() < 0.1 else 0
        d = DegreeSequence.from_degrees(vals + [0] * zeros)
        if d.n >= 2 and is_graphic(d):
            return d


def digest_cases():
    """Every graphic sequence with 2..5 positive degrees, then seeded random
    ones: n in [6, 15] with any cap, n in [16, 140] with caps n-1, 3, 8, n/3."""
    for n in range(2, 6):
        for vals in itertools.combinations_with_replacement(range(n - 1, 0, -1), n):
            d = DegreeSequence(vals)
            if is_graphic(d):
                yield d
    rng = random.Random(20261019)
    for _ in range(120):
        n = rng.randint(6, 15)
        yield _random_graphic(rng, n, rng.randint(1, n - 1))
    for cap in (lambda n: n - 1, lambda n: 3, lambda n: 8, lambda n: n // 3):
        for _ in range(6):
            n = rng.randint(16, 140)
            yield _random_graphic(rng, n, cap(n))


def witness_digest() -> str:
    h = hashlib.sha256()
    for d in digest_cases():
        h.update(repr((d.values, d.zero_count)).encode())
        for realize in (realize_mds, realize_mm):
            g = realize(d)
            h.update(repr((g.n, sorted(g.edges), tuple(g.certificate))).encode())
    return h.hexdigest()


def test_realize_witness_digest():
    assert witness_digest() == WITNESS_DIGEST
