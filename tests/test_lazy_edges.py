"""The edge array as a realization's primary form, and the checks that ride
along with it.

A ``Realization`` keeps its edges as a read-only (m, 2) int64 array and
builds ``edges``, a frozenset, only on first read.  These tests pin that
contract (laziness, equality, hashing, copying, pickling, concurrent first
reads, CLI bytes), the array-based ``flip`` and ``verify_matching`` against
set-based references, the integer check on the library's scalar arguments,
and the CLI's handling of bytes that are not UTF-8.
"""

import copy
import io
import itertools
import json
import os
import pathlib
import pickle
import random
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from conftest import random_graphic_sequence
from golden_cases import CASES
from optreal import (DegreeSequence, DomainError, FlipError, LimitError,
                     Realization, build_mds_flow, build_mm_flow,
                     enumerate_realizations, flip, invert_matching,
                     mds_feasible, mds_systems_hold, mm_feasible, oracle_mds,
                     oracle_mm, parse_sequence, realize_mds, realize_mm,
                     verify_dominating, verify_matching)
from optreal.cli import run

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def small_sequences():
    yield DegreeSequence((3, 3, 2, 2, 1, 1))
    yield DegreeSequence((2, 2, 2), 2)
    yield parse_sequence("5 4 4 3 3 3 2 2 2 2")
    yield DegreeSequence((), 3)


def array_rows(g: Realization) -> frozenset:
    return frozenset(map(tuple, g._array.tolist()))


# ----------------------------------------------------------- lazy edge set


def test_realize_builds_no_edge_set_until_read():
    for d in small_sequences():
        for realize in (realize_mds, realize_mm):
            g = realize(d)
            assert g._edges is None
            assert not g._array.flags.writeable
            g.degrees(), repr(g)
            assert g._edges is None
            edges = g.edges
            assert g._edges is edges and g.edges is edges
            assert edges == array_rows(g)


def test_array_built_and_constructor_built_graphs_agree():
    for d in small_sequences():
        for realize in (realize_mds, realize_mm):
            g = realize(d)
            built = Realization(g.n, array_rows(g), g.certificate)
            assert g == built and built == g
            assert hash(g) == hash(built)
            assert g != Realization(g.n, built.edges, None) or g.certificate is None
            assert g != Realization(g.n + 1, built.edges, g.certificate)
            for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
                assert twin == g and hash(twin) == hash(g)
                assert not twin._array.flags.writeable
            assert copy.copy(g)._array is g._array


def test_realization_is_frozen_and_prints_its_sorted_edges():
    g = Realization(3, frozenset({(2, 3), (1, 2)}))
    assert repr(g) == "Realization(n=3, edges=[(1, 2), (2, 3)], certificate=None)"
    assert eval(repr(g), {"Realization": Realization}) == g
    with pytest.raises(AttributeError):
        g.n = 4
    with pytest.raises(AttributeError):
        del g.certificate
    with pytest.raises(ValueError):
        g._array[0, 0] = 2


def test_threads_reading_edges_at_once_get_equal_sets():
    d = random_graphic_sequence(random.Random(28), 60)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for realize in (realize_mds, realize_mm):
            for _ in range(5):
                g = realize(d)
                want = array_rows(g)
                start = threading.Barrier(8)
                seen = []

                def read():
                    start.wait(timeout=10)
                    seen.append(g.edges)

                threads = [threading.Thread(target=read) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert len(seen) == 8 and all(edges == want for edges in seen)
                assert g.edges == want
    finally:
        sys.setswitchinterval(old)


@pytest.mark.parametrize("name,argv", [(name, argv) for name, argv, _, js in CASES if js])
def test_json_report_is_byte_identical_to_its_golden(name, argv):
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out=out, err=err) == 0
    text = re.sub(r', "timing_ms": [0-9.e+-]+', "", out.getvalue())
    golden = pathlib.Path(__file__).parent / "golden" / f"{name}.out"
    assert text == golden.read_text(encoding="utf-8")
    assert json.loads(text)["edges"] == sorted(json.loads(text)["edges"])


# ------------------------------------------- array-based flip and matching


def random_graph(rng: random.Random, n: int, p: float) -> Realization:
    return Realization(n, frozenset(pair for pair in itertools.combinations(range(1, n + 1), 2)
                                    if rng.random() < p))


def flip_by_sets(g: Realization, x, u, y, v) -> frozenset:
    """The set-based flip the array version replaced."""
    key = lambda a, b: (a, b) if a < b else (b, a)
    edges = set(g.edges)
    if len({x, u, y, v}) != 4 or not all(1 <= w <= g.n for w in (x, u, y, v)):
        return None
    if key(x, u) not in edges or key(y, v) not in edges:
        return None
    if key(x, y) in edges or key(u, v) in edges:
        return None
    return frozenset(edges - {key(x, u), key(y, v)} | {key(x, y), key(u, v)})


def matching_by_sets(g: Realization, pairs) -> bool:
    """The set-based verify_matching the array version replaced."""
    seen = set()
    for a, b in pairs:
        if ((a, b) if a < b else (b, a)) not in g.edges or a in seen or b in seen:
            return False
        seen |= {a, b}
    return True


def test_flip_matches_the_set_based_flip():
    rng = random.Random(26)
    for _ in range(300):
        n = rng.randint(4, 9)
        g = random_graph(rng, n, rng.random())
        ids = [rng.randint(0, n + 1) for _ in range(4)]
        if rng.random() < 0.5 and len(g.edges) >= 2:
            (x, u), (y, v) = rng.sample(sorted(g.edges), 2)
            ids = [x, u, y, v] if rng.random() < 0.5 else [u, x, v, y]
        want = flip_by_sets(g, *ids)
        if want is None:
            with pytest.raises(FlipError):
                flip(g, *ids)
            continue
        out = flip(g, *ids)
        assert out.edges == want and out.degrees() == g.degrees()
        assert out.certificate is None and not out._array.flags.writeable
        assert g.edges == array_rows(g)   # the input's array is untouched


def test_verify_matching_matches_the_set_based_check():
    rng = random.Random(27)
    for _ in range(400):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.random())
        edges = sorted(g.edges)
        k = rng.randint(0, 4)
        pairs = [rng.choice(edges) if edges and rng.random() < 0.7
                 else (rng.randint(-1, n + 2), rng.randint(-1, n + 2)) for _ in range(k)]
        pairs = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs]
        assert verify_matching(g, pairs) == matching_by_sets(g, pairs), (g, pairs)
        assert verify_matching(g, [(np.int64(a), np.int64(b)) for a, b in pairs]) == \
            matching_by_sets(g, pairs)


# ------------------------------------------------- library integer checks


D = DegreeSequence((3, 3, 2, 2, 1, 1))
G = Realization.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])


@pytest.mark.parametrize("call", [
    lambda: mds_feasible(D, 1.5),
    lambda: mds_systems_hold(D, "1"),
    lambda: build_mds_flow(D, 1.0),
    lambda: mm_feasible(D, "1"),
    lambda: build_mm_flow(D, 0.5),
    lambda: oracle_mds(D, 8.0),
    lambda: oracle_mm(D, "8"),
    lambda: enumerate_realizations(D, None),
    lambda: verify_dominating(G, [1.5]),
    lambda: verify_matching(G, [(1, 2.5)]),
    lambda: verify_matching(G, [(1, 2, 3)]),
    lambda: verify_matching(G, [5]),
    lambda: flip(G, 1, 2, 3, 4.0),
    lambda: invert_matching(G, [(1, "2")]),
], ids=["mds_feasible", "mds_systems_hold", "build_mds_flow", "mm_feasible",
        "build_mm_flow", "oracle_mds", "oracle_mm", "enumerate", "verify_dominating",
        "verify_matching", "verify_matching_arity", "verify_matching_scalar", "flip",
        "invert_matching"])
def test_non_integer_scalars_raise_domain_error(call):
    with pytest.raises(DomainError, match="is not an integer|is not a pair"):
        call()


def test_numpy_integers_and_bools_count_as_integers():
    for gamma in range(D.n + 1):
        assert mds_feasible(D, np.int64(gamma)) == mds_feasible(D, gamma)
    for nu in range(D.n // 2 + 1):
        assert mm_feasible(D, np.int32(nu)) == mm_feasible(D, nu)
    assert oracle_mds(D, np.int64(8)) == oracle_mds(D, 8)
    with pytest.raises(LimitError, match="exceeds the enumeration limit 1"):
        oracle_mm(D, True)   # True is the integer 1
    assert verify_matching(G, [(np.int64(1), True + 1)])
    assert flip(G, np.int64(1), 2, 3, 4).edges == flip(G, 1, 2, 3, 4).edges


def test_degrees_take_exact_ints_only():
    # ``values`` is stored, hashed and printed as given, so a numpy integer
    # would need a conversion pass; degrees refuse it instead
    with pytest.raises(DomainError, match="expected a positive integer"):
        DegreeSequence((np.int64(2), 2))
    with pytest.raises(DomainError, match="is not an integer"):
        DegreeSequence.from_degrees([np.int64(2)])


# ------------------------------------------------------ CLI input decoding


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_undecodable_bytes_are_a_parse_error(tmp_path, monkeypatch):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"3 \xff 2")
    assert invoke(["check", f"@{bad}"]) == (
        1, "", f"error: {bad}: byte 2 (0xff) is not valid UTF-8\n")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"2 2\n\xc3(2")))
    assert invoke(["mds", "value", "-"]) == (
        1, "", "error: standard input: byte 4 (0xc3) is not valid UTF-8\n")
    edges = tmp_path / "edges.txt"
    edges.write_bytes(b"1 2\n2 3\n# \xe9\n")
    assert invoke(["verify", "--seq", "2 1 1", "--edges", str(edges)]) == (
        1, "", f"error: {edges}: byte 10 (0xe9) is not valid UTF-8\n")


def test_edge_file_lines_end_at_any_newline(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_bytes("1 2\r2 3\r\n# é\n1 3".encode())
    assert invoke(["verify", "--seq", "2 2 2", "--edges", str(edges), "--dominating", "1"]) == (
        0, "degrees: ok\ndominating: ok\n", "")
    edges.write_bytes(b"1 2\r2 x\n")
    assert invoke(["verify", "--seq", "2 2 2", "--edges", str(edges)]) == (
        1, "", f"error: {edges}:2: non-integer vertex id\n")


def test_module_entry_point_reports_undecodable_bytes(tmp_path):
    # repro: printf '3 \xff 2' > f; PYTHONPATH=src python -m optreal check @f
    bad = tmp_path / "f"
    bad.write_bytes(b"3 \xff 2")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for argv, stdin in ((["check", f"@{bad}"], b""), (["check", "-"], b"3 \xff 2")):
        proc = subprocess.run([sys.executable, "-m", "optreal", *argv], input=stdin,
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == 1 and proc.stdout == b""
        assert proc.stderr.decode().endswith("byte 2 (0xff) is not valid UTF-8\n")
        assert b"Traceback" not in proc.stderr
    proc = subprocess.run([sys.executable, "-m", "optreal", "check", "2 2 2"],
                          capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, b"graphic\n")
