"""The graded tensor algebra on an ordered basis, and its symmetric quotient.

Degree-n tensors are sparse maps from length-n words over the basis
index set {1..m} to scalars; symmetric elements use weakly increasing
words (monomials).  `symmetrize` is the degreewise projection sending a
word to its sorted monomial; its kernel is the two-sided ideal generated
by the commutators uv - vu.  The elements add, scale and permute their
positions (`perm_action`); no command multiplies them, so the products
(concatenation, the commutator, the symmetric product) are kept in
`tests/conftest.py`, as the reference implementations of the algebra
laws the tests check.

The word bases, their sizes, `Space` and `collect` live in `bases`.
Every element map, here and in the other element modules, is linear on
the basis: it generates (basis key, value) pairs, and `collect` is the
one place where such pairs are summed, with one exception:
`bimodule.wedge_at`, the inner step of every `cocycle` query, sums in
its own single loop, because the same pass summed by `collect` made a
query 6-9% slower; like `collect`, it can sum into a dict it is given.

Each element class is its own checked constructor:
`TensorElement(space, degree, terms)` (and `SymElement`, `ExtElement`,
`EvenSymElement`, `BimodElement` alike) passes every key through the
class's `_check_key`, which returns the canonical key or raises a
`ValueError` naming it, coerces every coefficient into the field and
drops zeros.  It builds a new dict, so mutating the caller's dict later
leaves the element alone; `word_element`, `from_word` and
`wedge_word_element` build single-word elements.  Element maps hand over
a dict of canonical keys and nonzero field scalars that they have just
built with the private `_SparseElement._own`, which checks nothing and
stores it without a copy; no element map mutates an operand's `terms`.

Tensor, exterior and orbit elements share one JSON form (`to_json`,
`from_json`): `{"degree": n, "terms": [{"word": [...], "coeff": c}]}`,
with `"wedge": true` after the degree for exterior elements and
`"twisted": flag` after each orbit term's word.
"""

from __future__ import annotations

from typing import Mapping

from . import perms
from .bases import Space, Word, check_word, collect
# defined in `bases`, and still importable from here, as the same objects
from .bases import all_monomials, all_words, dim_sym, dim_tensor, symmetrize_matrix  # noqa: F401
from .fields import Scalar


class _SparseElement:
    """Shared sparse-term behavior; subclasses fix the key validation."""

    __slots__ = ("space", "degree", "terms")

    def __init__(self, space: Space, degree: int, terms: Mapping):
        """Pass each key through the class's `_check_key(space, degree,
        key)`, which returns the canonical key or raises a `ValueError`
        naming it; coerce each coefficient (an int, `Fraction` or numeric
        string) into the field and drop the zeros."""
        coerce = space.field.coerce
        own = {}
        for k, c in terms.items():
            try:
                key = self._check_key(space, degree, k)
            except TypeError:
                raise ValueError(f"malformed key {k!r}") from None
            c = coerce(c)
            if c:
                own[key] = c
        self.space = space
        self.degree = degree
        self.terms = own

    @classmethod
    def _own(cls, space: Space, degree: int, terms: dict):
        """An element that takes `terms` as its own dict, unchecked and
        without a copy: only for a dict of canonical keys and nonzero field
        scalars that the caller has just built and will not touch."""
        self = object.__new__(cls)
        self.space = space
        self.degree = degree
        self.terms = terms
        return self

    def _like(self, terms: dict) -> "_SparseElement":
        return self._own(self.space, self.degree, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and other.space == self.space
                and other.degree == self.degree and other.terms == self.terms)

    def __add__(self, other):
        _check_compatible(self, other)
        return self._like(collect(self.space.field, other.terms.items(), dict(self.terms)))

    def __sub__(self, other):
        _check_compatible(self, other)
        neg = self.space.field.neg
        negated = ((k, neg(c)) for k, c in other.terms.items())
        return self._like(collect(self.space.field, negated, dict(self.terms)))

    def __neg__(self):
        neg = self.space.field.neg
        return self._like({k: neg(c) for k, c in self.terms.items()})

    def scale(self, c):
        f = self.space.field
        c = f.coerce(c)
        if not c:
            return self._like({})
        mul = f.mul
        return self._like({k: mul(c, v) for k, v in self.terms.items()})

    def __rmul__(self, c):
        return self.scale(c)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        f = self.space.field
        return " + ".join(f"{f.fmt(c)}*{k}" for k, c in self.sorted_terms())


def _check_compatible(a: _SparseElement, b: _SparseElement) -> None:
    if a.space != b.space:
        raise ValueError("elements live over different spaces")
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} != {b.degree}")


class _JsonElement(_SparseElement):
    """An element kind with a JSON form (module docstring); its keys are
    spelled as words unless a subclass spells them otherwise."""

    _json_flags: dict = {}

    @staticmethod
    def _key_to_json(key) -> dict:
        return {"word": list(key)}

    @staticmethod
    def _key_from_json(term: Mapping):
        return tuple(term["word"])

    def to_json(self) -> dict:
        """Rational coefficients as 'p/q' strings, prime-field ones as ints."""
        f = self.space.field
        fmt = f.fmt if f.char == 0 else int
        return {"degree": self.degree, **self._json_flags,
                "terms": [{**self._key_to_json(k), "coeff": fmt(c)}
                          for k, c in self.sorted_terms()]}

    @classmethod
    def from_json(cls, space: Space, doc: Mapping):
        return cls(space, doc["degree"],
                   {cls._key_from_json(t): str(t["coeff"]) for t in doc["terms"]})


class TensorElement(_JsonElement):
    """Homogeneous element of the degree-n tensor component."""

    @staticmethod
    def _check_key(space: Space, degree: int, key) -> Word:
        w = check_word(space, key)
        if len(w) != degree:
            raise ValueError(f"word {w} does not have degree {degree}")
        return w


class SymElement(_SparseElement):
    """Homogeneous element of the degree-n symmetric component."""

    @staticmethod
    def _check_key(space: Space, degree: int, key) -> Word:
        w = check_word(space, key)
        if len(w) != degree:
            raise ValueError(f"monomial {w} does not have degree {degree}")
        if any(w[i] > w[i + 1] for i in range(len(w) - 1)):
            raise ValueError(f"monomial {w} is not weakly increasing")
        return w


def word_element(space: Space, word: Word, coeff: Scalar = 1) -> TensorElement:
    """The element coeff * word.  The int 1, the default, is stored as
    the field's shared `one` (over Q, no new `Fraction` per call); any
    other coefficient goes through `Field.coerce`."""
    word = check_word(space, word)
    c = space.field.one if type(coeff) is int and coeff == 1 else space.field.coerce(coeff)
    return TensorElement._own(space, len(word), {word: c} if c else {})


def perm_action(t: perms.Perm, a: TensorElement) -> TensorElement:
    """Left action permuting tensor positions: out[t(k)] = in[k] per word."""
    if len(t) != a.degree:
        raise ValueError(f"permutation size {len(t)} != degree {a.degree}")
    perms.check_perm(t)
    # t permutes the words, so no two terms meet and there is nothing to
    # collect; t is checked once here, not once per word
    move = perms._mover(t)
    return TensorElement._own(a.space, a.degree, {move(w): c for w, c in a.terms.items()})


def symmetrize(a: TensorElement) -> SymElement:
    """Project a tensor onto the symmetric component: sort each word."""
    terms = collect(a.space.field, ((tuple(sorted(w)), c) for w, c in a.terms.items()))
    return SymElement._own(a.space, a.degree, terms)
