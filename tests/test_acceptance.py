"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines.  The scale criterion (7) runs realizations at n = 1000 and value
computations at n = 100000; expect the whole module to take a few minutes.
"""

import io
import pathlib
import random
import time

import pytest

from optreal import (DegreeSequence, InternalError, build_mds_flow, is_graphic,
                     max_flow, mds_feasible, mds_systems_hold, mds_value,
                     mm_feasible, mm_value, oracle_mds, oracle_mm, realize_mds, realize_mm,
                     verify_dominating, verify_matching)
from optreal.cli import run as cli_run

from conftest import graphic_sequences_upto, random_graphic_sequence
from golden_cases import CASES, strip_timing
from test_invert import all_degree_sorted_graphs, prefix_matchings
from optreal import invert_matching


class criterion:
    """Context manager printing one pass/fail line per criterion."""

    def __init__(self, number: int, title: str):
        self.number = number
        self.title = title
        self.detail = ""

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        note = f" ({self.detail})" if self.detail else ""
        print(f"criterion {self.number} [{self.title}]: {status}{note} [{elapsed:.1f}s]")
        return False


def _sequence_set():
    """Instance set shared by criteria 2, 3 and 5: every graphic sequence of
    positive degrees with n <= 7 (240 of them at n = 7)."""
    return list(graphic_sequences_upto(7))


def test_criterion_1_graphicality_examples():
    with criterion(1, "graphicality examples") as c:
        assert not is_graphic(DegreeSequence((4, 3, 2, 1, 1)))
        assert not is_graphic(DegreeSequence((4, 3, 1, 1, 1)))
        assert is_graphic(DegreeSequence((4, 3, 2, 2, 1)))
        c.detail = "3 sequences, exact"


def test_criterion_2_oracle_equivalence_mds():
    with criterion(2, "oracle equivalence, dominating set") as c:
        seqs = _sequence_set()
        for d in seqs:
            value = mds_value(d)
            assert value == oracle_mds(d), d.values
            for gamma in range(d.n + 1):
                assert mds_feasible(d, gamma) == (gamma >= value), (d.values, gamma)
            g = realize_mds(d)
            assert g.realizes(d), d.values
            assert verify_dominating(g, g.certificate.vertices), d.values
            assert len(g.certificate.vertices) == value, d.values
        c.detail = (f"{len(seqs)} sequences (exhaustive n<=7), mds_feasible at every "
                    f"gamma, exact")


def test_criterion_3_oracle_equivalence_mm():
    with criterion(3, "oracle equivalence, matching") as c:
        seqs = _sequence_set()
        for d in seqs:
            value = mm_value(d)
            assert value == oracle_mm(d), d.values
            for nu in range(d.n // 2 + 1):
                assert mm_feasible(d, nu) == (nu <= value), (d.values, nu)
            g = realize_mm(d)
            assert g.realizes(d), d.values
            assert verify_matching(g, g.certificate.pairs), d.values
            assert len(g.certificate.pairs) == value, d.values
            want = tuple((i, 2 * value - i + 1) for i in range(1, value + 1))
            assert g.certificate.pairs == want, d.values
        c.detail = (f"{len(seqs)} sequences (exhaustive n<=7), mm_feasible at every nu, "
                    f"certificates in inverted-prefix form, exact")


def test_criterion_4_characterization_flow_equivalence():
    with criterion(4, "characterization <-> flow equivalence") as c:
        rng = random.Random(777)
        pairs = 0
        while pairs < 500:
            n = rng.randint(1, 12)
            vals = sorted((rng.randint(1, max(n - 1, 1)) for _ in range(n)), reverse=True)
            if sum(vals) % 2 != 0:
                continue  # no realization exists for odd sums; see ledger
            d = DegreeSequence(tuple(vals))
            gamma = rng.randint(1, n)
            saturated = max_flow(build_mds_flow(d, gamma)).value == d.total
            assert mds_feasible(d, gamma) == saturated, (vals, gamma)
            pairs += 1
        # supplementary: the bare constraint systems match saturation on any parity
        odd_pairs = 0
        while odd_pairs < 100:
            n = rng.randint(1, 12)
            vals = sorted((rng.randint(1, max(n - 1, 1)) for _ in range(n)), reverse=True)
            d = DegreeSequence(tuple(vals))
            gamma = rng.randint(1, n)
            saturated = max_flow(build_mds_flow(d, gamma)).value == d.total
            assert mds_systems_hold(d, gamma) == saturated, (vals, gamma)
            odd_pairs += 1
        c.detail = f"{pairs} even-sum pairs + {odd_pairs} any-parity pairs, n<=12, exact"


def test_criterion_5_rounding_neutrality():
    with criterion(5, "rounding neutrality in checked mode") as c:
        seqs = _sequence_set()
        violations = 0
        runs = 0
        for d in seqs:
            for realize in (realize_mds, realize_mm):
                try:
                    realize(d, checked=True)
                except InternalError:
                    violations += 1
                runs += 1
        assert violations == 0
        c.detail = f"0 violations across {runs} checked pipeline runs"


def test_criterion_6_invert_exhaustive():
    with criterion(6, "matching inversion, exhaustive 4- and 6-vertex graphs") as c:
        cases = 0
        for n in (4, 6):
            for g in all_degree_sorted_graphs(n):
                for nu in range(1, n // 2 + 1):
                    for matching in prefix_matchings(g, nu):
                        # invert_matching raises InternalError beyond nu rounds,
                        # so completion certifies the iteration bound
                        out = invert_matching(g, matching)
                        assert out.degrees() == g.degrees()
                        want = tuple((i, 2 * nu - i + 1) for i in range(1, nu + 1))
                        assert out.certificate.pairs == want
                        assert verify_matching(out, want)
                        cases += 1
        c.detail = f"{cases} (graph, prefix matching) cases, exact"


def test_criterion_7_scale():
    with criterion(7, "scale: n=1000 realizations, n=100000 values") as c:
        rng = random.Random(99)

        big = random_graphic_sequence(rng, 100_000, dmax=40)
        t0 = time.perf_counter()
        mds_value(big)
        mm_value(big)
        value_secs = time.perf_counter() - t0
        assert value_secs <= 10.0, f"value computations took {value_secs:.1f}s"

        timings = {}
        for n in (500, 1000):
            d = random_graphic_sequence(rng, n, dmax=30)
            t0 = time.perf_counter()
            g = realize_mds(d)
            mds_secs = time.perf_counter() - t0
            assert g.realizes(d) and verify_dominating(g, g.certificate.vertices)
            t0 = time.perf_counter()
            g = realize_mm(d)
            mm_secs = time.perf_counter() - t0
            assert g.realizes(d) and verify_matching(g, g.certificate.pairs)
            timings[n] = (mds_secs, mm_secs)
        assert timings[1000][0] <= 300.0
        assert timings[1000][1] <= 300.0
        mds_ratio = timings[1000][0] / max(timings[500][0], 1e-9)
        mm_ratio = timings[1000][1] / max(timings[500][1], 1e-9)
        assert mds_ratio <= 12.0, f"doubling ratio {mds_ratio:.1f}"
        assert mm_ratio <= 12.0, f"doubling ratio {mm_ratio:.1f}"
        c.detail = (f"values(n=1e5) {value_secs:.2f}s/10s; realize(n=1000) "
                    f"mds {timings[1000][0]:.1f}s, mm {timings[1000][1]:.1f}s / 300s; "
                    f"doubling x{mds_ratio:.1f}, x{mm_ratio:.1f} / x12")


def test_criterion_8_cli_determinism():
    with criterion(8, "CLI determinism against golden outputs") as c:
        for name, argv, expected_exit, is_json in CASES:
            outputs = []
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                code = cli_run(argv, out=out, err=err)
                assert code == expected_exit, (name, code, err.getvalue())
                text = out.getvalue()
                outputs.append(strip_timing(text) if is_json else text)
            assert outputs[0] == outputs[1], f"{name}: repeated runs differ"
            golden_path = pathlib.Path(__file__).parent / "golden" / f"{name}.out"
            golden = golden_path.read_text(encoding="utf-8")
            assert outputs[0] == golden, f"{name}: output differs from golden file"
        c.detail = f"{len(CASES)} cases, byte-identical (JSON compared without timing_ms)"
