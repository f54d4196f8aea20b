import random

import pytest

from optreal import (DegreeSequence, DomainError, NotGraphicError, ParseError,
                     format_sequence, havel_hakimi_realize, is_graphic,
                     mds_value, mm_feasible, mm_value, oracle_mds, oracle_mm,
                     parse_sequence, realize_mds, realize_mm)
from optreal.oracle import enumerate_realizations
from optreal.sequences import _require_graphic

from conftest import all_positive_sequences, random_graphic_sequence


def test_parse_already_sorted():
    d = parse_sequence("4 3 2 2 1")
    assert d.values == (4, 3, 2, 2, 1)
    assert d.zero_count == 0


def test_parse_sorts_and_accepts_commas():
    d = parse_sequence("1, 2, 1")
    assert d.values == (2, 1, 1)


def test_parse_strips_zeros():
    d = parse_sequence("2 0 2 2")
    assert d.values == (2, 2, 2)
    assert d.zero_count == 1


@pytest.mark.parametrize("text", ["4 x 2", "2.5 1", "1;2"])
def test_parse_non_integer_token(text):
    with pytest.raises(ParseError):
        parse_sequence(text)


def test_parse_over_long_token_names_its_length():
    # int() refuses digit runs beyond sys.get_int_max_str_digits(); the
    # message quotes 40 characters and gives the length instead
    with pytest.raises(ParseError) as exc:
        parse_sequence("1" * 5000 + " 1")
    assert str(exc.value) == (f"token {'1' * 40!r}... (5000 characters) "
                              "has more digits than int() reads")
    with pytest.raises(ParseError) as exc:
        parse_sequence("2 " + "x" * 41)
    assert str(exc.value) == f"token {'x' * 40!r}... (41 characters) is not an integer"
    with pytest.raises(ParseError, match=r"^token 'x' is not an integer$"):
        parse_sequence("2 x")


def test_parse_negative_entry():
    with pytest.raises(DomainError):
        parse_sequence("3 -1 2")


def test_parse_empty_input():
    with pytest.raises(DomainError):
        parse_sequence("   ")


def test_parse_roundtrip_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        vals = [rng.randint(0, 9) for _ in range(rng.randint(1, 12))]
        d = parse_sequence(" ".join(map(str, vals)))
        assert parse_sequence(format_sequence(d)) == d


def test_direct_construction_validates():
    with pytest.raises(DomainError):
        DegreeSequence((1, 2))  # not non-increasing
    with pytest.raises(DomainError):
        DegreeSequence((2, 0))  # zero not stripped
    with pytest.raises(DomainError):
        DegreeSequence((True, True))  # a bool is not a degree
    with pytest.raises(DomainError):
        DegreeSequence.from_degrees([True, True])


def test_is_graphic_known_small_sequences():
    assert is_graphic(parse_sequence("4 3 2 2 1"))
    assert not is_graphic(parse_sequence("4 3 2 1 1"))  # odd degree sum
    assert not is_graphic(parse_sequence("4 3 1 1 1"))  # even sum, still infeasible
    assert is_graphic(parse_sequence("1 1"))


def test_is_graphic_empty_and_zeros():
    assert is_graphic(DegreeSequence(()))
    assert is_graphic(parse_sequence("0 0 0"))


def test_is_graphic_matches_enumeration_exhaustively():
    for n in range(1, 7):
        for d in all_positive_sequences(n):
            want = any(True for _ in enumerate_realizations(d))
            assert is_graphic(d) == want, d.values


def test_havel_hakimi_triangle():
    g = havel_hakimi_realize(DegreeSequence((2, 2, 2)))
    assert g.edges == frozenset({(1, 2), (1, 3), (2, 3)})
    assert g.certificate is None


def test_havel_hakimi_single_edge():
    g = havel_hakimi_realize(DegreeSequence((1, 1)))
    assert g.edges == frozenset({(1, 2)})


def test_havel_hakimi_degrees_exact():
    d = DegreeSequence((3, 2, 2, 2, 1))
    assert havel_hakimi_realize(d).realizes(d)


def test_havel_hakimi_rejects_non_graphic():
    with pytest.raises(NotGraphicError):
        havel_hakimi_realize(DegreeSequence((4, 3, 1, 1, 1)))


def test_not_graphic_message_is_bounded():
    # up to ten degrees the message lists them all; beyond, it names the
    # count and the first ten, so its length does not grow with n
    calls = (_require_graphic, mds_value, mm_value, lambda d: mm_feasible(d, 0),
             realize_mds, realize_mm, havel_hakimi_realize,
             lambda d: oracle_mds(d, 10), lambda d: oracle_mm(d, 10))
    for d in (DegreeSequence((4, 3, 1, 1, 1)), DegreeSequence((9, 9) + (1,) * 8)):
        for call in calls:
            with pytest.raises(NotGraphicError) as info:
                call(d)
            assert str(info.value) == f"sequence {d.values} is not graphic"
    n = 2 * 10**5
    d = DegreeSequence((n,) + (1,) * (n - 1))
    for call in calls[:-2]:
        with pytest.raises(NotGraphicError) as info:
            call(d)
        assert str(info.value) == (f"sequence of {n} degrees, starting "
                                   f"(200000, 1, 1, 1, 1, 1, 1, 1, 1, 1), is not graphic")


def test_havel_hakimi_random_property():
    rng = random.Random(11)
    for _ in range(60):
        d = random_graphic_sequence(rng, rng.randint(2, 14))
        assert havel_hakimi_realize(d).realizes(d)


def test_havel_hakimi_appends_isolated_vertices():
    d = parse_sequence("2 2 2 0 0")
    g = havel_hakimi_realize(d)
    assert g.n == 5
    assert g.degrees() == (2, 2, 2, 0, 0)
