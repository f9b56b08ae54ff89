"""The base space, the word bases of the graded components and their sizes.

A degree-n basis is indexed by words over the letters 1..m: every word
for the tensor algebra (`all_words`), the weakly increasing ones
(monomials) for the symmetric algebra (`all_monomials`) and the strictly
increasing ones for the exterior algebra (`all_wedge_words`), each in
lexicographic order.  `collect` sums (basis key, value) pairs; it is the
one place where the element maps of every element module sum their
terms (`tensor` docstring).

This module holds what the two certifiers, `mseq` and `sprimeseq`,
need of the tensor, symmetric and exterior algebras, so that a
certification run loads none of the element-algebra modules.  That
includes the two row shapes their certificates read: `edge_rows` writes
every image row e_u - e_v and `fibre_matrix` every projection.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from itertools import product as _iproduct
from math import comb
from typing import Iterable, Iterator

from . import linalg
from .errors import Record
from .fields import Field

Word = tuple


class Space(Record):
    """An m-dimensional base space with a totally ordered basis 1..m."""

    __slots__ = ("dim", "field")

    def __init__(self, dim: int, field: Field):
        if dim.__class__ is not int:
            raise ValueError(f"malformed dimension {dim!r}: a dimension is an int >= 0")
        if dim < 0:
            raise ValueError("dimension must be >= 0")
        Record.__init__(self, dim, field)


def check_word(space: Space, word: Word) -> Word:
    """`word` as a tuple, each letter an `int` (not a `bool`) in 1..m."""
    word = tuple(word)
    for x in word:
        if x.__class__ is not int:
            raise ValueError(f"malformed letter {x!r}: a letter is an int in 1..{space.dim}")
        if not 1 <= x <= space.dim:
            raise ValueError(f"letter {x} out of range 1..{space.dim}")
    return word


def all_words(m: int, n: int) -> Iterator[Word]:
    """All length-n words over {1..m} in lexicographic order."""
    return _iproduct(range(1, m + 1), repeat=n)


def all_monomials(m: int, n: int) -> Iterator[Word]:
    """All weakly increasing length-n words, lexicographically."""
    return combinations_with_replacement(range(1, m + 1), n)


def all_wedge_words(m: int, n: int) -> Iterator[Word]:
    """Strictly increasing length-n words over {1..m}, lexicographically."""
    return combinations(range(1, m + 1), n)


def collect(field: Field, pairs: Iterable[tuple], out: dict | None = None) -> dict:
    """Sum the nonzero values of (key, value) `pairs` by key into `out`
    (a new dict by default), whose values are nonzero too; a key whose
    sum is zero is dropped.  Returns `out`."""
    if out is None:
        out = {}
    add = field.add
    for k, v in pairs:
        if k in out:
            v = add(out[k], v)
            if not v:
                del out[k]
                continue
        out[k] = v
    return out


def dim_tensor(m: int, n: int) -> int:
    """m**n words of length n.

    >>> dim_tensor(2, 3)
    8
    """
    if m < 0 or n < 0:
        raise ValueError("m, n must be >= 0")
    return m ** n


def dim_sym(m: int, n: int) -> int:
    """Weakly increasing words: C(m+n-1, n).

    >>> dim_sym(2, 3), dim_sym(3, 3)
    (4, 10)
    """
    if m < 0 or n < 0:
        raise ValueError("m, n must be >= 0")
    if n == 0:
        return 1
    if m == 0:
        return 0
    return comb(m + n - 1, n)


def dim_wedge(m: int, n: int) -> int:
    """
    >>> dim_wedge(3, 2), dim_wedge(2, 3), dim_wedge(4, 2)
    (3, 0, 6)
    """
    if m < 0 or n < 0:
        raise ValueError("m, n must be >= 0")
    return comb(m, n)


def edge_rows(field: Field, edges: Iterable[tuple]) -> list[linalg.Row]:
    """The sparse row e_u - e_v of each edge (u, v), u != v, its two
    entries sorted by column: an image row of a certified sequence
    (`certificates` docstring)."""
    one, neg_one = field.one, field.neg(field.one)
    return [((u, one), (v, neg_one)) if u < v else ((v, neg_one), (u, one))
            for u, v in edges]


def fibre_matrix(field: Field, fibres: Iterable[int], ncols: int) -> linalg.Matrix:
    """The projection onto `ncols` target basis vectors that sends source
    basis vector i to target vector `fibres[i]`: one row per source
    vector, holding one 1 (`certificates` docstring)."""
    one = field.one
    return linalg.Matrix(field, ncols, tuple(((j, one),) for j in fibres))


def symmetrize_matrix(space: Space, n: int) -> linalg.Matrix:
    """Matrix of the degree-n projection, one row per word (lex order),
    columns indexed by monomials (lex order); its transpose has one row
    per monomial, holding the words that sort to it."""
    mono_index = {w: j for j, w in enumerate(all_monomials(space.dim, n))}
    return fibre_matrix(space.field, (mono_index[tuple(sorted(w))]
                                      for w in all_words(space.dim, n)), len(mono_index))
