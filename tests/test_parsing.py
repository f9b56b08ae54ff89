import random
from fractions import Fraction

import pytest

from tensorseq import bimodule, evensym, parsing, tensor
from tensorseq.errors import ElementParseError
from tensorseq.fields import GF, QQ


def test_parse_word():
    assert parsing.parse_word("2,1,3") == (2, 1, 3)
    assert parsing.parse_word(" 4 , 5 ") == (4, 5)
    with pytest.raises(ElementParseError):
        parsing.parse_word("")
    with pytest.raises(ElementParseError):
        parsing.parse_word("1,,2")
    with pytest.raises(ElementParseError):
        parsing.parse_word("0,1")
    with pytest.raises(ElementParseError):
        parsing.parse_word("1,-2")


@pytest.mark.parametrize("text,position", [("1,\u00b2", 2), ("\u2460", 0), ("2, \u00b3", 2)],
                         ids=["superscript", "circled", "spaced-superscript"])
def test_a_digit_that_int_does_not_read_is_a_parse_error_at_its_position(text, position):
    """'\u00b2' passes `str.isdigit` but `int` refuses it: the letter is
    refused as any other non-index, at the position of its piece."""
    with pytest.raises(ElementParseError) as exc:
        parsing.parse_word(text)
    piece = text.split(",")[-1]
    assert str(exc.value) == \
        f"expected a positive letter index, got {piece!r} (at position {position})"
    assert exc.value.position == position


def test_every_decimal_digit_that_int_reads_stays_a_letter():
    # Arabic-Indic and fullwidth digits are decimal, and `int` reads them
    assert parsing.parse_word("\u0661,2") == (1, 2)
    assert parsing.parse_word("\uff13,\u0661\u0660") == (3, 10)


def test_parse_word_combo():
    combo = parsing.parse_word_combo("2*1,2 + -1/3*2,1 + 1,1")
    assert combo == [("2", (1, 2)), ("-1/3", (2, 1)), ("1", (1, 1))]
    with pytest.raises(ElementParseError):
        parsing.parse_word_combo("1,2 + ")
    with pytest.raises(ElementParseError):
        parsing.parse_word_combo("*1,2")


def test_parse_bimod_term():
    assert parsing.parse_bimod_term("[1,2|3,4|5]") == ((1, 2), (3, 4), (5,))
    assert parsing.parse_bimod_term("[|1,2|]") == ((), (1, 2), ())
    assert parsing.parse_bimod_term(" [ |2,3|1 ] ") == ((), (2, 3), (1,))
    for bad in ["1,2|3,4|5", "[1|2|3|4]", "[|1|]", "[|1,2,3|]", "[|1,2"]:
        with pytest.raises(ElementParseError):
            parsing.parse_bimod_term(bad)


def test_parse_error_positions():
    try:
        parsing.parse_word_combo("1,2 + 3,x")
    except ElementParseError as e:
        assert e.position >= 6
    else:
        pytest.fail("expected a parse error")


def test_render_parse_roundtrip_bimod():
    rng = random.Random(61)
    sp = tensor.Space(3, QQ)
    terms = bimodule.all_bimod_terms(3, 4)
    for _ in range(40):
        picked = {}
        for _ in range(rng.randint(1, 5)):
            t = rng.choice(terms)
            picked[t] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        elem = bimodule.BimodElement(sp, 4, picked)
        if elem.is_zero():
            continue
        rendered = parsing.render_bimod(elem)
        rebuilt = None
        for coeff, (left, pair, right) in parsing.parse_bimod_combo(rendered):
            part = bimodule.BimodElement(sp, 4, {(left, pair, right): QQ.parse(coeff)})
            rebuilt = part if rebuilt is None else rebuilt + part
        assert rebuilt == elem


def test_render_parse_roundtrip_words():
    rng = random.Random(67)
    sp = tensor.Space(3, GF(5))
    for _ in range(40):
        elem = None
        for _ in range(rng.randint(1, 4)):
            w = tuple(rng.randint(1, 3) for _ in range(3))
            part = evensym.from_word(sp, w, rng.randint(1, 4))
            elem = part if elem is None else elem + part
        if elem.is_zero():
            continue
        rendered = parsing.render_evensym(elem)
        # render marks twisted classes; reparse via representatives
        total = None
        for chunk in rendered.split(" + "):
            coeff, _, rest = chunk.rpartition("*")
            coeff = coeff or "1"
            word_part, flag = rest.rsplit(") ", 1)
            word = tuple(int(x) for x in word_part.lstrip("(").split(","))
            key = evensym.OrbitWord(word, flag == "twisted")
            part = evensym.EvenSymElement(sp, 3, {key: sp.field.parse(coeff)})
            total = part if total is None else total + part
        assert total == elem


def test_render_zero():
    sp = tensor.Space(2, QQ)
    assert parsing.render_bimod(bimodule.BimodElement(sp, 2, {})) == "0"
    assert parsing.render_evensym(evensym.EvenSymElement(sp, 1, {})) == "0"
