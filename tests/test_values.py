"""The value searches and the parse fast path against their plain references.

``mds_value`` gallops up from the counting bound and ``mm_value`` down from
n // 2; the references below are the plain binary searches over the public
feasibility predicates (the matching one with the re-sorting reduction
probe).  ``parse_sequence`` reads plain text -- ASCII digits, ASCII
whitespace and commas -- with one numpy call and any other text token by
token; the reference reads every text with the per-token ``int()`` path.
"""

import random
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from optreal import (DegreeSequence, DomainError, NotGraphicError, OptrealError,
                     ParseError, is_graphic, mds_feasible, mds_value, mm_value,
                     parse_sequence, realize_mds, realize_mm)
from optreal import dominating, matching, sequences
from optreal.sequences import _eg_inequalities_hold

from conftest import graphic_sequences_upto, random_graphic_sequence
from test_reduction_flow import degree_sequences

DS = DegreeSequence


def binary_search_mds_value(d: DegreeSequence) -> int:
    if not is_graphic(d):
        raise NotGraphicError("not graphic")
    if d.n == 0:
        return d.zero_count
    lo, hi = 1, d.n
    while lo < hi:
        mid = (lo + hi) // 2
        if mds_feasible(d, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo + d.zero_count


def sorted_reduction_holds(d: DegreeSequence, nu: int) -> bool:
    arr = np.asarray(d.values, dtype=np.int64).copy()
    arr[:2 * nu] -= 1
    arr = np.sort(arr)[::-1]
    return _eg_inequalities_hold(arr[arr > 0])


def binary_search_mm_value(d: DegreeSequence) -> int:
    if not is_graphic(d):
        raise NotGraphicError("not graphic")
    lo, hi = 0, d.n // 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if sorted_reduction_holds(d, mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def outcome(f, d):
    try:
        return f(d)
    except NotGraphicError:
        return NotGraphicError


def test_values_equal_binary_search_exhaustive():
    for d in graphic_sequences_upto(7):
        for zeros in (0, 2):
            z = DS(d.values, zeros)
            assert mds_value(z) == binary_search_mds_value(z), z
            assert mm_value(z) == binary_search_mm_value(z), z


@st.composite
def sequences_with_zeros(draw):
    d = draw(degree_sequences(max_n=60))
    return DS(d.values, draw(st.integers(0, 3)))


@given(sequences_with_zeros())
@example(DS((3, 3, 3, 1, 1, 1)))        # gamma = 3 against a counting bound of 2
@example(DS((4, 4, 4, 3, 1, 1, 1)))     # gamma = 3 against a counting bound of 2
@example(DS((5, 1, 1, 1, 1, 1)))        # a star matches one pair of n // 2 = 3
@example(DS((2, 2, 2, 1, 1), 3))        # stripped zeros
@example(DS((), 0))
@example(DS((), 4))
@example(DS((1,), 1))                   # n < 2, not graphic
@example(DS((1, 1), 5))
def test_values_equal_binary_search(d):
    assert outcome(mds_value, d) == outcome(binary_search_mds_value, d)
    assert outcome(mm_value, d) == outcome(binary_search_mm_value, d)


def test_value_search_probe_count(monkeypatch):
    # on a large uniform sequence both start bounds are exact, so a return
    # to the full binary search (~17 probes each) shows here
    d = random_graphic_sequence(random.Random(2024), 200_000, dmax=40)
    probes = []
    for module, name in ((dominating, "_systems_hold"), (matching, "_mm_feasible_reduction")):
        probe = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, _p=probe, _n=name: probes.append(_n) or _p(*args))
    mds_value(d)
    mm_value(d)
    assert 1 <= probes.count("_systems_hold") <= 2
    assert 1 <= probes.count("_mm_feasible_reduction") <= 2


_SPLIT = re.compile(r"[\s,]+")


def per_token_parse(text: str) -> DegreeSequence:
    tokens = [t for t in _SPLIT.split(text.strip()) if t]
    if not tokens:
        raise DomainError("empty degree sequence input")
    degrees = []
    for tok in tokens:
        try:
            degrees.append(int(tok))
        except ValueError:
            # a digit run fails only beyond sys.get_int_max_str_digits()
            if re.fullmatch(r"[+-]?\d+", tok):
                what = "has more digits than int() reads"
            else:
                what = "is not an integer"
            shown = f"{tok[:40]!r}... ({len(tok)} characters)" if len(tok) > 40 else repr(tok)
            raise ParseError(f"token {shown} {what}") from None
    return DegreeSequence.from_degrees(degrees)


def parse_outcome(parse, text):
    try:
        d = parse(text)
    except OptrealError as e:
        return type(e), str(e)
    assert all(type(v) is int for v in d.values)
    if d._array is not None:   # the numpy path keeps its array
        assert d._array.tolist() == list(d.values)
        assert not d._array.flags.writeable
    return d


_TOKENS = st.one_of(
    st.integers(0, 60).map(str),
    st.sampled_from(["+5", "05", "1_000", "１２", "٣", "١٠", "0", "-3", "-0",
                     "1.0", "0x10", "x", "9223372036854775807",
                     "9223372036854775808", "-9223372036854775809",
                     "999999999999999999", "1000000000000000000", "0" * 24 + "7",
                     "00", "7" * 4400, "-" + "٣" * 4400, "1.5" * 14, "x" * 40]))
# ASCII whitespace, the comma, a no-break space, an em space, and the file,
# group and unit separators: all of them separate tokens
_SEPARATORS = st.text(alphabet=" \t\n\r\x0b\x0c,\u00a0\u2003\x1c\x1d\x1f",
                      min_size=1, max_size=3)


@st.composite
def degree_texts(draw):
    tokens = draw(st.lists(_TOKENS, max_size=12))
    seps = draw(st.lists(_SEPARATORS, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    text = "".join(sep + tok for sep, tok in zip(seps, tokens))
    if not draw(st.booleans()):
        text = text[len(seps[0]):] if tokens else text
    if draw(st.booleans()):
        text += seps[-1]
    return text


@given(degree_texts())
@example("")
@example(" ,\t")
@example("3 -1 2")
@example("1.0, 2")
@example("9223372036854775808 1")
@example("-9223372036854775809 1")
@example("\t３ ٣,1_000 +2 05 0 0\n")
@example("   ")                          # numpy reads whitespace alone as [0]
@example("0")
@example("5 ,")
@example(", 5")
@example("5,,6")
@example("1\x1c2")                       # a separator to str.split, not to numpy
@example("3\r\n2\r\n")
@example("9223372036854775807 1")        # numpy saturates past int64 to this
@example("1" * 5000 + " 1")              # beyond int()'s digit limit
def test_parse_matches_per_token_path(text):
    assert parse_outcome(parse_sequence, text) == parse_outcome(per_token_parse, text)


def test_parse_falls_back_when_numpy_reads_short(monkeypatch):
    # a plain text's array must hold one entry per digit run; a numpy that
    # stopped early sends the text to the per-token path
    fromstring = np.fromstring
    monkeypatch.setattr(np, "fromstring", lambda *args, **kw: fromstring(*args, **kw)[:-1])
    assert sequences._parse_plain("3 2,2 1") is None
    d = parse_sequence("3 2,2 1")
    assert d == DS((3, 2, 2, 1)) and d._array.tolist() == [3, 2, 2, 1]


def test_signed_text_keeps_an_array():
    # the per-token path converts its ints once too, unless one is negative
    # or beyond int64
    d = parse_sequence("+3 0 ３ 2, 02 1 +1")
    assert d == DS((3, 3, 2, 2, 1, 1), 1)
    assert d._array.tolist() == [3, 3, 2, 2, 1, 1] and not d._array.flags.writeable
    assert parse_sequence("+3 9223372036854775808")._array is None
    with pytest.raises(DomainError, match="-1"):
        parse_sequence("+3 -1")


def test_parsed_sequence_keeps_a_read_only_array():
    d = parse_sequence("3 0 3 2, 2 1 1")
    arr = d._array
    assert arr.dtype == np.int64 and arr.flags.c_contiguous
    assert arr.tolist() == list(d.values) == [3, 3, 2, 2, 1, 1]
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0] = 0
    # the graphic gate reads the kept array; a sequence built from a tuple
    # keeps none and is converted on each call
    assert sequences._graphic_array(d) is arr
    twin = DegreeSequence(d.values, d.zero_count)
    assert twin == d and hash(twin) == hash(d) and twin._array is None
    assert sequences._graphic_array(twin).tolist() == arr.tolist()
    assert (mds_value(d), mm_value(d)) == (mds_value(twin), mm_value(twin))


def test_graphicality_is_decided_once_per_sequence(monkeypatch):
    calls = []
    inequalities_hold = sequences._eg_inequalities_hold
    monkeypatch.setattr(sequences, "_eg_inequalities_hold",
                        lambda arr: calls.append(arr.size) or inequalities_hold(arr))
    calls_per_value = (is_graphic, mds_value, mm_value, realize_mds, realize_mm)
    # a parsed sequence (with its array) and one built from a tuple
    for d in (parse_sequence("3 3 3 1 1 1 0"), DS((3, 3, 3, 1, 1, 1), 1)):
        hashed = hash(d)
        calls.clear()
        results = [f(d) for f in calls_per_value]
        assert calls == [6]
        twin = DS(d.values, d.zero_count)
        assert d._graphic is True and twin._graphic is None
        assert results[:3] == [f(twin) for f in calls_per_value[:3]]
        assert twin._graphic is True
        assert twin == d and hash(d) == hash(twin) == hashed
    # even sum, largest degree below n, and still not graphic: the verdict
    # reaches the inequalities once, and every value call raises
    d = parse_sequence("4 3 1 1 1")
    calls.clear()
    assert not is_graphic(d)
    for f in calls_per_value[1:]:
        with pytest.raises(NotGraphicError):
            f(d)
    assert calls == [5] and d._graphic is False
    assert DS(d.values) == d and hash(DS(d.values)) == hash(d)


def test_concurrent_calls_share_one_verdict():
    # threads race to store the verdict of the same sequences; a race may
    # compute it twice, but every call sees the one right answer
    texts = ["3 3 3 1 1 1 0", "4 3 1 1 1", "2 2 2 2", "5 1 1 1 1 1"]
    expected = [(is_graphic(parse_sequence(t)),
                 outcome(mds_value, parse_sequence(t)),
                 outcome(mm_value, parse_sequence(t))) for t in texts]
    shared = [[parse_sequence(t) for t in texts] for _ in range(200)]
    results = []

    def work():
        got = [(is_graphic(d), outcome(mds_value, d), outcome(mm_value, d))
               for row in shared for d in row]
        results.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected * len(shared)] * len(threads)
    assert all(d._graphic is e[0] for row in shared for d, e in zip(row, expected))
