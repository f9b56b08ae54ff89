"""Parsing and rendering of the CLI element syntax.

Words are comma-separated letter indices: ``2,1,3``.  Bimodule terms
bracket three slots, ``[left|a,b|right]``, with possibly empty outer
words: ``[|1,2|3]``.  Linear combinations join terms with ``+`` and a
term may carry a rational coefficient prefix: ``2*1,2 + -1/3*2,1``.
Renderers emit the same syntax, so printed normal forms parse back.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .errors import ElementParseError

Word = tuple


def _split_terms(s: str) -> Iterator[tuple[int, str]]:
    depth = 0
    start = 0
    for i, ch in enumerate(s):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ElementParseError("unmatched ']'", i)
        elif ch == "+" and depth == 0:
            yield start, s[start:i]
            start = i + 1
    if depth != 0:
        raise ElementParseError("unmatched '['", len(s) - 1)
    yield start, s[start:]


def parse_word(s: str, offset: int = 0) -> Word:
    """Parse ``2,1,3`` into (2, 1, 3)."""
    text = s.strip()
    if not text:
        raise ElementParseError("empty word", offset)
    pos = offset + (len(s) - len(s.lstrip()))
    letters = []
    for piece in text.split(","):
        p = piece.strip()
        if not p.isdecimal() or int(p) < 1:
            raise ElementParseError(f"expected a positive letter index, got {piece!r}", pos)
        letters.append(int(p))
        pos += len(piece) + 1
    return tuple(letters)


def _parse_opt_word(s: str, offset: int) -> Word:
    if not s.strip():
        return ()
    return parse_word(s, offset)


def parse_bimod_term(s: str, offset: int = 0) -> tuple[Word, tuple[int, int], Word]:
    """Parse ``[left|a,b|right]`` into (left, (a, b), right)."""
    text = s.strip()
    lead = offset + (len(s) - len(s.lstrip()))
    if not (text.startswith("[") and text.endswith("]")):
        raise ElementParseError("bimodule term must be bracketed as [left|a,b|right]", lead)
    inner = text[1:-1]
    parts = inner.split("|")
    if len(parts) != 3:
        raise ElementParseError("bimodule term needs two '|' separators", lead)
    left = _parse_opt_word(parts[0], lead + 1)
    pair = parse_word(parts[1], lead + 2 + len(parts[0]))
    if len(pair) != 2:
        raise ElementParseError("wedge slot must hold exactly two letters",
                                lead + 2 + len(parts[0]))
    right = _parse_opt_word(parts[2], lead + 3 + len(parts[0]) + len(parts[1]))
    return left, (pair[0], pair[1]), right


def _parse_combo(s: str, atom: Callable) -> list[tuple[str, object]]:
    out = []
    for offset, chunk in _split_terms(s):
        text = chunk.strip()
        lead = offset + (len(chunk) - len(chunk.lstrip()))
        if not text:
            raise ElementParseError("empty term", lead)
        if "*" in text:
            coeff, _, rest = text.partition("*")
            coeff = coeff.strip()
            if not coeff:
                raise ElementParseError("missing coefficient before '*'", lead)
            out.append((coeff, atom(rest, offset + chunk.index("*") + 1)))
        else:
            out.append(("1", atom(chunk, offset)))
    return out


def parse_word_combo(s: str) -> list[tuple[str, Word]]:
    """Parse ``2*1,2 + -1*2,1`` into [("2", (1, 2)), ("-1", (2, 1))]."""
    return _parse_combo(s, parse_word)


def parse_bimod_combo(s: str) -> list[tuple[str, tuple]]:
    """Parse a combination of bracketed bimodule terms."""
    return _parse_combo(s, parse_bimod_term)


def render_word(w: Word) -> str:
    return ",".join(str(x) for x in w)


def render_orbit_word(word: Word, twisted: bool) -> str:
    return f"({render_word(word)}) {'twisted' if twisted else 'plain'}"


def _render_terms(elem, render_key: Callable) -> str:
    """``0`` for the zero element, else its sorted terms joined by
    `` + ``, each `render_key(key)` behind a ``coefficient*`` prefix that
    a coefficient of 1 omits."""
    if elem.is_zero():
        return "0"
    f = elem.space.field
    return " + ".join(("" if c == f.one else f"{f.fmt(c)}*") + render_key(k)
                      for k, c in elem.sorted_terms())


def render_evensym(elem) -> str:
    """Inverse-ish of `parse_word_combo` plus the class flag."""
    return _render_terms(elem, lambda k: render_orbit_word(k.word, k.twisted))


def render_bimod(elem) -> str:
    """Inverse of `parse_bimod_combo` on canonical forms."""
    return _render_terms(
        elem, lambda t: f"[{render_word(t[0])}|{t[1][0]},{t[1][1]}|{render_word(t[2])}]")
