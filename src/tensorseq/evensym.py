"""The quotient of the tensor algebra by cyclic three-letter shifts.

Dividing the tensor algebra by the two-sided ideal generated by
xyz - yzx identifies two degree-n words exactly when one is an even
permutation of the other.  A word with a repeated letter is then
equivalent to every permutation of itself, while a word with distinct
letters belongs to one of two classes: the sorted word ("plain") or the
sorted word with its first two letters swapped ("twisted").  Elements
are stored directly on these classes; sorting a word and taking the
parity of the sorting permutation computes its class in O(n log n),
with no linear algebra.  This module holds the classes, their elements,
and two maps, the flag-forgetting `to_sym` and the `wedge_embed` of
alternating elements, which `degree2` compares with the tensor
algebra's.  No command multiplies elements, so the product (concatenate
a word of each class, then take the class), the swap of the first two
factors and the list of classes are kept in `tests/conftest.py` as
reference implementations.

`verify_relation_span` certifies the shortcut in tensor coordinates from
difference rows e_w - e_u under three partner rules.  The ideal pairs
l.xyz.r with l.yzx.r.  The orbit pairs w with g.w for two generators of
A_n, (1 2 3) with (1 2 ... n) for odd n or (2 3 ... n) for even n: their
conjugates are 3-cycles that generate A_n, and w - s.w telescopes along
any word for s in the generators.  The normal-form kernel pairs w with
the first word of its class.  The three spans are compared by their
unique RREFs, so the oracle does not reuse `image_equals_kernel`'s graph
argument.

The matrices of the wedge embedding and the flag-forgetting projection,
and the certificate of 0 -> Lambda^{>=2} -> S' -> S -> 0, live in
`sprimeseq`, which builds no element: its `verify_sequence`,
`to_sym_matrix`, `wedge_embed_matrix` and `dim_evensym` are importable
from here as the same objects.
"""

from __future__ import annotations

import time
from typing import Mapping

from . import perms
from .bases import Space, Word, all_words, check_word, collect, dim_tensor, edge_rows
from .certificates import Certificate, CheckResult, certificate
from .errors import Record, check_cap
from .exterior import ExtElement, wedge_canon
from .fields import Scalar
from .linalg import Row, echelon_rows
from .sprimeseq import dim_evensym
# defined in `sprimeseq`, and still importable from here, as the same objects
from .sprimeseq import to_sym_matrix, verify_sequence, wedge_embed_matrix  # noqa: F401
from .tensor import SymElement, _JsonElement


class OrbitWord(Record):
    """A basis class: a weakly increasing word, twisted or plain.

    The twisted class exists only for strictly increasing words of
    length at least 2; it is the orbit of the sorted word with its
    first two letters swapped.  Classes order by (word, twisted).
    """

    __slots__ = ("word", "twisted")

    def __init__(self, word: Word, twisted: bool = False):
        if twisted:
            if len(word) < 2:
                raise ValueError("twisted classes need degree >= 2")
            if any(word[i] >= word[i + 1] for i in range(len(word) - 1)):
                raise ValueError(f"twisted word {word} must be strictly increasing")
        else:
            if any(word[i] > word[i + 1] for i in range(len(word) - 1)):
                raise ValueError(f"word {word} must be weakly increasing")
        Record.__init__(self, word, twisted)

    # `>` and `>=` fall back to the reflected `__lt__` and `__le__`
    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.word, self.twisted) < (other.word, other.twisted)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.word, self.twisted) <= (other.word, other.twisted)
        return NotImplemented

    @property
    def degree(self) -> int:
        return len(self.word)


def normal_form(word: Word) -> OrbitWord:
    """The class of a word: sort it; a repeated letter always gives the
    plain class, otherwise the sign of the sort (`wedge_canon`) decides
    the flag.  Coefficients never pick up signs here.

    >>> normal_form((2, 1, 3))
    OrbitWord(word=(1, 2, 3), twisted=True)
    >>> normal_form((1, 1, 2))
    OrbitWord(word=(1, 1, 2), twisted=False)
    """
    word = tuple(word)
    canon = wedge_canon(word)
    if canon is None:
        return OrbitWord(tuple(sorted(word)), False)
    return OrbitWord(canon[1], canon[0] == -1)


class EvenSymElement(_JsonElement):
    """Homogeneous element on the orbit-word basis."""

    @staticmethod
    def _check_key(space: Space, degree: int, key) -> OrbitWord:
        if not isinstance(key, OrbitWord):
            raise ValueError(f"class {key!r} is not an OrbitWord")
        check_word(space, key.word)
        if key.degree != degree:
            raise ValueError(f"class {key} does not have degree {degree}")
        return key

    @staticmethod
    def _key_to_json(key: OrbitWord) -> dict:
        return {"word": list(key.word), "twisted": key.twisted}

    @staticmethod
    def _key_from_json(term: Mapping) -> OrbitWord:
        return OrbitWord(tuple(term["word"]), bool(term["twisted"]))


def from_word(space: Space, word: Word, coeff: Scalar = 1) -> EvenSymElement:
    return EvenSymElement(space, len(word), {normal_form(word): coeff})


def to_sym(a: EvenSymElement) -> SymElement:
    """Forget the flag; an algebra morphism onto the symmetric part."""
    terms = collect(a.space.field, ((k.word, c) for k, c in a.terms.items()))
    return SymElement._own(a.space, a.degree, terms)


def wedge_embed(a: ExtElement) -> EvenSymElement:
    """Embed a degree-n alternating element (n >= 2): a strictly
    increasing word maps to (plain class) - (twisted class)."""
    if a.degree < 2:
        raise ValueError(f"need degree >= 2, got {a.degree}")
    f = a.space.field
    out: dict = {}
    for w, c in a.terms.items():
        out[OrbitWord(w, False)] = c
        out[OrbitWord(w, True)] = f.neg(c)
    return EvenSymElement._own(a.space, a.degree, out)


def _alternating_generators(n: int) -> tuple[perms.Perm, ...]:
    """(1 2 3), with (1 2 ... n) for odd n or (2 3 ... n) for even n;
    none below n = 3, where A_n is trivial."""
    if n < 3:
        return ()
    three = (2, 3, 1) + tuple(range(4, n + 1))
    long = tuple(range(2, n + 1)) + (1,) if n % 2 else (1,) + tuple(range(3, n + 1)) + (2,)
    return (three,) if long == three else (three, long)


def _relation_rows(space: Space, n: int, generators: tuple) -> tuple[list[Row], ...]:
    """Difference rows e_w - e_u in tensor coordinates, for each degree-n
    word w in lex order and each partner u != w, under three partner
    rules: ideal, orbit and normal-form kernel (`verify_relation_span`)."""
    index = {w: i for i, w in enumerate(all_words(space.dim, n))}
    first_of_class: dict = {}
    rules = (
        lambda w: [w[:p] + (w[p + 1], w[p + 2], w[p]) + w[p + 3:] for p in range(n - 2)],
        lambda w: [perms._apply_to_positions(g, w) for g in generators],
        lambda w: (first_of_class.setdefault(normal_form(w), w),),
    )
    return tuple(edge_rows(space.field, ((i, index[u]) for w, i in index.items()
                                         for u in rule(w) if u != w)) for rule in rules)


def verify_relation_span(space: Space, n: int, size_cap: int | None = None) -> Certificate:
    """Certify that the defining ideal, the even-orbit span, and the
    kernel of the normal-form shortcut all agree in degree n.

    Each span is spanned by rows e_w - e_u, one per word w and partner u:
    - ideal: w = l.xyz.r pairs with l.yzx.r, the translates of xyz - yzx;
    - orbit: w pairs with g.w for the generators g of A_n, (1 2 3) with
      (1 2 ... n) for odd n or (2 3 ... n) for even n.  If s = g_1...g_k,
      w - s.w telescopes into the sum of v_i - g_i.v_i over
      v_i = g_{i+1}...g_k.w, so these rows span every w - s.w, s even.
      Conjugating (1 2 3) by the long cycle's powers gives every
      (i i+1 i+2) for odd n; for even n it gives every (1 j j+1), and
      (1 i i+1)(1 i+1 i+2) = (i i+1 i+2).  These 3-cycles generate A_n:
      an even permutation is a product of pairs s_i s_j of adjacent
      transpositions, (i i+1 i+2) = s_i s_{i+1}, s_i s_j with i < j
      telescopes into (s_i s_{i+1})(s_{i+1} s_{i+2})..., and s_j s_i is
      its inverse;
    - normal-form kernel: w pairs with the first word of its class.
    The cap counts the rows the three rules visit, before any is built.

    The spans are compared by their unique RREFs, not by the partitions
    their edges induce, so this oracle does not reuse the graph argument
    of `image_equals_kernel`, the check it backs up."""
    start = time.perf_counter()
    m = space.dim
    field = space.field
    generators = _alternating_generators(n)
    check_cap((max(n - 2, 0) + len(generators) + 1) * m ** n, size_cap, "relation rows")
    t_dim = dim_tensor(m, n)
    q_dim = dim_evensym(m, n)
    # echelon_rows returns the unique RREF of a span, so two spans are
    # equal exactly when their echelon rows are
    ideal, orbit, nf = (echelon_rows(field, rows)[0]
                        for rows in _relation_rows(space, n, generators))
    checks = (
        CheckResult(
            "ideal_equals_orbit_span", ideal == orbit,
            f"ideal rank {len(ideal)}, orbit rank {len(orbit)}"),
        CheckResult(
            "normal_form_kernel_matches", ideal == nf,
            f"normal-form kernel rank {len(nf)}, ideal rank {len(ideal)}"),
        CheckResult(
            "corank_matches_basis", len(ideal) == t_dim - q_dim,
            f"rank {len(ideal)}, tensor dim {t_dim}, basis size {q_dim}"),
    )
    return certificate(
        "S'-relations", space, n,
        {"t_dim": t_dim, "sprime_dim": q_dim, "relation_rank": len(ideal)},
        checks, start)
