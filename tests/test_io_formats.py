import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from bigrade.errors import ParseError
from bigrade.hypersurface import parse_profile
from bigrade.io_formats import content_lines, parse_ideal_file, parse_ideal_text, parse_term, render_ideal
from bigrade.rings import RingSpec, minimal_generators


def test_parse_term():
    r = RingSpec(2, 2)
    assert parse_term(r, "x1*y2^3") == (1, 0, 0, 3)
    assert parse_term(r, "x2^2") == (0, 2, 0, 0)
    assert parse_term(r, "1") == (0, 0, 0, 0)
    # repeated factors multiply
    assert parse_term(r, "x1*x1") == (2, 0, 0, 0)
    with pytest.raises(ParseError):
        parse_term(r, "z1")
    with pytest.raises(ParseError):
        parse_term(r, "x3")
    with pytest.raises(ParseError):
        parse_term(r, "y5^2")


def test_parse_ideal_text():
    ring, I = parse_ideal_text("# c\nring 2 4\ngens: x1*x2, y2^2\n")
    assert (ring.m, ring.n) == (2, 4)
    assert I.gens == ((0, 0, 0, 2, 0, 0), (1, 1, 0, 0, 0, 0))


def test_parse_zero_and_unit():
    ring, Z = parse_ideal_text("ring 1 1\ngens:\n")
    assert Z.is_zero
    ring, U = parse_ideal_text("ring 1 1\ngens: 1\n")
    assert U.is_unit


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as ei:
        parse_ideal_text("ring 1 1\nbogus\n")
    assert ei.value.line == 2
    with pytest.raises(ParseError):
        parse_ideal_text("gens: x1\n")
    with pytest.raises(ParseError):
        parse_ideal_text("ring 1 1\n")
    # ring 0 0 is the point ring K; a negative count is no ring
    with pytest.raises(ParseError) as ei:
        parse_ideal_text("# c\nring 0 -1\ngens: 1\n")
    assert ei.value.line == 2


def test_ring_line_is_the_exact_token_and_appears_once():
    with pytest.raises(ParseError) as ei:
        parse_ideal_text("ringx 1 1\ngens: x1\n")
    assert ei.value.line == 1
    # a second ring line is refused before and after the gens line
    for text in ["ring 1 1\nring 2 2\ngens: x1\n", "ring 1 1\ngens: x1\nring 2 2\n"]:
        with pytest.raises(ParseError) as ei:
            parse_ideal_text(text)
        assert ei.value.line == text.splitlines().index("ring 2 2") + 1
    # so is a second gens line, which would otherwise add to the first
    with pytest.raises(ParseError) as ei:
        parse_ideal_text("ring 1 1\ngens: x1\ngens: y1\n")
    assert ei.value.line == 3
    ring, I = parse_ideal_text("ring  1\t1\ngens: x1\n")
    assert (ring.m, ring.n) == (1, 1) and I.gens == ((1, 0),)


def test_round_trip():
    r = RingSpec(2, 3)
    I = minimal_generators(r, [(1, 0, 0, 2, 0), (0, 1, 1, 0, 0)])
    ring2, I2 = parse_ideal_text(render_ideal(I))
    assert ring2 == r and I2 == I


def test_char_threads_through():
    ring, _ = parse_ideal_text("ring 1 1\ngens: x1\n", char=5)
    assert ring.char == 5


def test_one_comment_and_blank_line_rule_for_both_formats():
    # the ideal file and the hypersurface profile skip the same lines and
    # count them the same way
    text = "# head\n\n  \t# indented\nfactors: (1,1) # tail\n"
    assert list(content_lines(text)) == [(4, "factors: (1,1)")]
    assert parse_profile(text, RingSpec(1, 1)).factors == ((1, 1),)
    for extra, line in [("ring 1 1", 5), ("\n\n(0,2)", 7)]:
        with pytest.raises(ParseError) as ei:
            parse_profile(text + extra, RingSpec(1, 1))
        assert ei.value.line == line
    with pytest.raises(ParseError) as ei:
        parse_ideal_text(text.replace("factors: (1,1)", "ring 1 1") + "\n# c\nwat\n")
    assert ei.value.line == 7


# 3.10 before 3.10.7 converts an integer literal of any length
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not LIMIT, reason="no integer conversion limit")
def test_an_integer_literal_over_the_conversion_limit_is_a_parse_error():
    ones, nines = "1" * (LIMIT + 1), "9" * (LIMIT + 1)
    message = f"integer of {LIMIT + 1} digits is too long"
    for text in [f"ring 1 1\ngens: x{ones}\n", f"# c\nring 1 1\ngens: x1, x1^{nines}\n"]:
        with pytest.raises(ParseError, match=message) as ei:
            parse_ideal_text(text)
        assert ei.value.line == text.count("\n")
    # the ring line reads its fields by the same rule, not by the interpreter's text
    with pytest.raises(ParseError, match=f"^{message}$") as ei:
        parse_ideal_text(f"ring {ones} 1\ngens: x1\n")
    assert ei.value.line == 1
    with pytest.raises(ParseError, match=message) as ei:
        parse_term(RingSpec(1, 1), f"x1^{nines}")
    assert ei.value.line is None
    for text, line in [(f"({ones},1)", 1), (f"# c\nfactors: (1,0) (0,{nines})\n", 2), (f"x{ones}", 1)]:
        with pytest.raises(ParseError, match=message) as ei:
            parse_profile(text, RingSpec(1, 1))
        assert ei.value.line == line


@pytest.mark.parametrize("char", [2.0, Fraction(2), Decimal(2)], ids=["float", "Fraction", "Decimal"])
def test_a_characteristic_that_is_no_integer_is_refused_cold_and_warm(tmp_path, char):
    # each equals 2 and hashes alike, so a memo keyed on the raw char would
    # answer it warm with the parse at 2; the file parse reads the same memo
    text = "ring 1 1\ngens: x1*y1\n"
    path = tmp_path / "x1y1.ideal"
    path.write_text(text)
    for parse, source in ((parse_ideal_text, text), (parse_ideal_file, str(path))):
        with pytest.raises(ValueError) as cold:
            parse(source, char)
        assert parse(source, 2)[0].char == 2
        with pytest.raises(ValueError) as warm:
            parse(source, char)
        assert str(cold.value) == str(warm.value) == f"the characteristic must be an integer, got {char!r}"
