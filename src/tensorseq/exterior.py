"""Exterior powers with canonical sign normalization.

Degree-n alternating elements are stored directly on the strictly
increasing word basis; `wedge_canon` folds the sorting sign into the
coefficient and kills words with a repeated letter.  The sign is the
parity of the sorting permutation, which works in every characteristic.
"""

from __future__ import annotations

from . import linalg, perms
from .bases import Space, Word, all_wedge_words, check_word, collect, edge_rows
# defined in `bases`, and still importable from here, as the same object
from .bases import dim_wedge  # noqa: F401
from .fields import Scalar
from .tensor import TensorElement, _JsonElement


def wedge_canon(letters: Word) -> tuple[int, Word] | None:
    """Sort `letters`; return (sign, sorted word) or None when a letter repeats.

    >>> wedge_canon((2, 1))
    (-1, (1, 2))
    >>> wedge_canon((1, 1)) is None
    True
    >>> wedge_canon((3, 1, 2))
    (1, (1, 2, 3))
    """
    letters = tuple(letters)
    if len(set(letters)) < len(letters):
        return None
    return (-1 if perms._parity(perms.sorting_perm(letters)) else 1), tuple(sorted(letters))


class ExtElement(_JsonElement):
    """Homogeneous alternating element on strictly increasing words."""

    _json_flags = {"wedge": True}

    @staticmethod
    def _check_key(space: Space, degree: int, key) -> Word:
        w = TensorElement._check_key(space, degree, key)
        if any(w[i] >= w[i + 1] for i in range(len(w) - 1)):
            raise ValueError(f"word {w} is not strictly increasing")
        return w


def wedge_word_element(space: Space, letters: Word, coeff: Scalar = 1) -> ExtElement:
    """Canonicalize arbitrary letters into a basis multiple (or zero)."""
    canon = wedge_canon(check_word(space, letters))
    if canon is None:
        return ExtElement._own(space, len(tuple(letters)), {})
    sign, w = canon
    return ExtElement(space, len(w), {w: coeff}).scale(sign)


def wedge_to_tensor(a: ExtElement) -> TensorElement:
    """Degree-2 embedding sending u ^ v to u (x) v - v (x) u."""
    if a.degree != 2:
        raise ValueError(f"expected degree 2, got {a.degree}")
    neg = a.space.field.neg
    terms = collect(a.space.field, (pair for (i, j), c in a.terms.items()
                                    for pair in (((i, j), c), ((j, i), neg(c)))))
    return TensorElement._own(a.space, 2, terms)


def wedge_to_tensor_matrix(space: Space) -> linalg.Matrix:
    """Matrix of the degree-2 embedding: rows = wedge pairs (lex order),
    columns = length-2 words (lex order), the word (i, j) at column
    (i - 1) * m + j - 1.  Each row is the edge from (i, j) to (j, i)."""
    m = space.dim
    rows = edge_rows(space.field, (((i - 1) * m + j - 1, (j - 1) * m + i - 1)
                                   for i, j in all_wedge_words(m, 2)))
    return linalg.Matrix(space.field, m * m, tuple(rows))

