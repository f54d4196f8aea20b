"""Any input ends in a result or a typed error, at both surfaces.

The CLI fuzz drives ``run(argv, out, err)`` with inline degree text, raw
bytes through ``@file`` and standard input, edge files and certificate CSVs;
every run must exit 0, 1 or 2 (argparse's usage errors are ``SystemExit(2)``).
The library fuzz passes arbitrary values as the scalar parameters -- gamma,
nu, the oracle limit, vertices and pairs -- and expects a result or an
``OptrealError``.  Sequences stay at n <= 8 and oracle limits at most 8.
"""

import io
from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from optreal import (DegreeSequence, OptrealError, Realization, build_mds_flow,
                     build_mm_flow, enumerate_realizations, extract_bipartite_mds,
                     extract_bipartite_mm, flip, invert_matching, max_flow,
                     mds_feasible, mds_systems_hold, mm_feasible, oracle_mds,
                     oracle_mm, realize_mds, verify_dominating, verify_matching)
from optreal.cli import run

from conftest import graphic_sequences_upto

# --------------------------------------------------------------------- CLI

_TOKENS = st.one_of(st.integers(-2, 9).map(str),
                    st.sampled_from(["x", "1.5", "+2", "٣", "1_0", "", "-", "1" * 4400]))
_SEPS = st.sampled_from([" ", ",", "\t", "\n", ", ", "\u2003"])


@st.composite
def degree_texts(draw):
    tokens = draw(st.lists(_TOKENS, max_size=8))
    return "".join(tok + draw(_SEPS) for tok in tokens)


_BYTES = st.one_of(degree_texts().map(str.encode), st.binary(max_size=16))
_CSV = st.text(alphabet="0123456789,- x", max_size=12)
_EDGE_LINES = st.lists(st.one_of(
    st.tuples(st.integers(-1, 9), st.integers(-1, 9)).map(lambda e: f"{e[0]} {e[1]}"),
    st.sampled_from(["", "# note", "1 2 3", "1", "a b", "1 2 # c", "\xe9"])), max_size=8)


@st.composite
def command_lines(draw, tmp):
    """An argv for ``run`` and the bytes standard input holds; files it names
    are written under ``tmp``."""
    stdin = b""
    source = draw(st.sampled_from(["inline", "file", "stdin"]))
    if source == "inline":
        seq = draw(degree_texts())
    elif source == "file":
        path = tmp / "seq.txt"
        path.write_bytes(draw(_BYTES))
        seq = f"@{path}"
    else:
        stdin, seq = draw(_BYTES), "-"
    command = draw(st.sampled_from(["check", "value", "realize", "oracle", "verify"]))
    objective = draw(st.sampled_from(["mds", "mm"]))
    if command == "check":
        argv = ["check", seq]
    elif command in ("value", "realize"):
        argv = [objective, command, seq] + draw(st.sampled_from([[], ["--json"]]))
    elif command == "oracle":
        argv = ["oracle", seq, "--objective", objective,
                "--limit", draw(st.one_of(st.integers(-2, 8).map(str), st.just("x")))]
    else:
        edges = tmp / "edges.txt"
        edges.write_bytes("\n".join(draw(_EDGE_LINES)).encode())
        argv = ["verify", "--seq", seq, "--edges", str(edges)]
        if draw(st.booleans()):
            argv += ["--dominating", draw(_CSV)]
        if draw(st.booleans()):
            argv += ["--matching", draw(_CSV)]
    return argv + draw(st.sampled_from([[], [], ["--bogus"], ["extra"]])), stdin


@given(st.data())
def test_cli_exits_0_1_or_2(tmp_path_factory, data):
    argv, stdin = data.draw(command_lines(tmp_path_factory.mktemp("cli")))
    out, err = io.StringIO(), io.StringIO()
    try:
        with mock.patch("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin))):
            code = run(argv, out=out, err=err)
    except SystemExit as exc:
        code = exc.code
        assert code == 2
    assert code in (0, 1, 2)
    if code == 1 and err.getvalue():
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# ----------------------------------------------------------------- library

_SCALARS = st.one_of(
    st.integers(-3, 9), st.booleans(), st.none(), st.floats(), st.text(max_size=2),
    st.sampled_from([2**70, -2**70, np.int64(2), np.float64(2.0), b"1", (1,), [1, 2]]))
_LIMITS = st.one_of(st.integers(-3, 8), st.just(-2**70), st.booleans(), st.floats(),
                    st.sampled_from([np.int64(3), "3", None]))
_PAIRS = st.lists(st.one_of(st.tuples(_SCALARS, _SCALARS), _SCALARS,
                            st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))),
                  max_size=4)
_SEQUENCES = st.sampled_from([d for d in graphic_sequences_upto(6) if d.values]
                             + [DegreeSequence((3, 3, 2, 2, 2, 1, 1)),
                                DegreeSequence((2, 2, 2), zero_count=5)])


def outcome(call, *args):
    try:
        return call(*args)
    except OptrealError as exc:
        return exc


@given(_SEQUENCES, _SCALARS, _LIMITS, st.lists(_SCALARS, max_size=4), _PAIRS,
       st.tuples(_SCALARS, _SCALARS, _SCALARS, _SCALARS))
def test_scalar_parameters_give_a_result_or_a_typed_error(d, k, limit, vertices, pairs, ids):
    mds_flow = max_flow(build_mds_flow(d, 1))
    mm_flow = max_flow(build_mm_flow(d, 1))
    g = realize_mds(d)
    for call, args in [(mds_feasible, (d, k)), (mds_systems_hold, (d, k)),
                       (build_mds_flow, (d, k)), (extract_bipartite_mds, (d, k, mds_flow)),
                       (mm_feasible, (d, k)), (build_mm_flow, (d, k)),
                       (extract_bipartite_mm, (d, k, mm_flow)),
                       (oracle_mds, (d, limit)), (oracle_mm, (d, limit)),
                       (lambda *a: list(enumerate_realizations(*a)), (d, limit)),
                       (verify_dominating, (g, vertices)), (verify_matching, (g, pairs)),
                       (invert_matching, (g, pairs)), (flip, (g, *ids)),
                       (Realization, (g.n, pairs)), (Realization, (k, []))]:
        outcome(call, *args)
