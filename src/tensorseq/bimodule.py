"""The graded bimodule of wedge-carrying tensors and its relation quotient.

A degree-n basis term is (left word, wedge pair, right word) with the
wedge pair strictly increasing; the two-sided word multiplication
concatenates into the outer slots.  Two relation families are divided
out:

  * commutator transfer: (uv - vu) (x) mid (x) z^t  -  u^v (x) mid (x) (zt - tz)
  * Jacobi cycle:        [u, v^w] + [v, w^u] + [w, u^v]

with u, v, w, z, t basis vectors and `mid` ranging over basis words.
Both families expand, via the commutator, to zero in the tensor
algebra, so `expand_wedge` descends to the quotient; `normal_form` and
`cocycle` compute in it through the cached row echelon form of
`build_context`.

The relation cores, the canonical term order and the certificate of
0 -> M -> T -> S -> 0 live in `mseq`, which builds no element: its
`verify_sequence`, `ambient_dim` and `all_bimod_terms` are importable
from here as the same objects.

`wedge_at` replaces one tensor sign of a word by a wedge; summing its
images along a factorization of a permutation into adjacent swaps gives
the telescoping `cocycle` map, whose value is independent of the chosen
factorization.  `cocycle` sums the images in place, into one dict, and
applies no swap after the last letter, whose result nothing would read.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from . import perms
from .bases import Space, Word, check_word, collect
from .errors import Record, check_cap
from .fields import Field, Scalar
from .linalg import Row, echelon_rows, residue_list
from .mseq import (BimodTerm, _expand, _jacobi_core, _relation_cores, _transfer_core,
                   _translates, all_bimod_terms, ambient_dim)
# defined in `mseq`, and still importable from here, as the same object
from .mseq import verify_sequence  # noqa: F401
from .tensor import TensorElement, _SparseElement, perm_action


class BimodElement(_SparseElement):
    """Homogeneous element of the wedge-carrying bimodule."""

    @staticmethod
    def _check_key(space: Space, degree: int, key) -> BimodTerm:
        try:
            left, (a, b), right = key
        except (TypeError, ValueError):
            raise ValueError(f"term {key!r} is not (left word, (a, b), right word)") from None
        left, right = check_word(space, left), check_word(space, right)
        if not (1 <= a < b <= space.dim):
            raise ValueError(f"wedge pair {(a, b)} is not strictly increasing in range")
        if len(left) + 2 + len(right) != degree:
            raise ValueError(f"term {(left, (a, b), right)} does not have degree {degree}")
        return left, (a, b), right


def bimodule_mult(l: TensorElement, x: BimodElement, r: TensorElement) -> BimodElement:
    """Two-sided word multiplication, bilinear in all three slots."""
    if not (l.space == x.space == r.space):
        raise ValueError("elements live over different spaces")
    mul = x.space.field.mul
    terms = collect(x.space.field, (((wl + a, pair, b + wr), mul(mul(cl, cx), cr))
                                    for wl, cl in l.terms.items()
                                    for (a, pair, b), cx in x.terms.items()
                                    for wr, cr in r.terms.items()))
    return BimodElement._own(x.space, l.degree + x.degree + r.degree, terms)


def commutator_transfer(space: Space, x: int, y: int, mid: Word,
                        z: int, t: int) -> BimodElement:
    """(xy - yx) (x) mid (x) z^t  -  x^y (x) mid (x) (zt - tz)."""
    mid = check_word(space, mid)
    return BimodElement._own(space, len(mid) + 4, _transfer_core(space.field, x, y, mid, z, t))


def jacobi_cycle(space: Space, x: int, y: int, z: int) -> BimodElement:
    """[x, y^z] + [y, z^x] + [z, x^y], the cyclic commutator sum."""
    return BimodElement._own(space, 3, _jacobi_core(space.field, x, y, z))


def _two_sided_closure(space: Space, core: dict, n: int) -> Iterable[BimodElement]:
    """All basis-word translates of the nonzero `core`, {term: coeff},
    landing in degree n."""
    # every term of a core has the core's degree
    first_left, _, first_right = next(iter(core))
    for left, right in _translates(space.dim, n, len(first_left) + 2 + len(first_right)):
        terms = {(left + a, pair, b + right): c for (a, pair, b), c in core.items()}
        yield BimodElement._own(space, n, terms)


def relation_generators(space: Space, n: int) -> list[BimodElement]:
    """A degree-n spanning set of the relation subbimodule: every
    two-sided translate of every `mseq._relation_cores` core into
    degree n.  Translating by basis words is injective, so none of them
    is zero."""
    return [g for core in _relation_cores(space, n) for g in _two_sided_closure(space, core, n)]


class QuotientContext(Record):
    """Cached coordinates for one (space, degree): the canonical term
    enumeration and the sparse RREF of the relation span, with its
    pivot column -> row index for residues.  Contexts compare by
    identity.

    `rel_rows` and `rel_basis` hold values as `linalg` computes them:
    over Q an integral value is an int and any other a `Fraction` (equal,
    and equal in hash, to the `Fraction` of the same value); `normal_form`
    converts back to field scalars."""

    __slots__ = ("space", "degree", "terms", "index", "rel_rows", "rel_pivots", "rel_basis")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, space: Space, degree: int, terms: tuple[BimodTerm, ...], index: dict,
                 rel_rows: tuple[Row, ...], rel_pivots: tuple[int, ...], rel_basis: dict):
        Record.__init__(self, space, degree, terms, index, rel_rows, rel_pivots, rel_basis)

    @property
    def ambient_dim(self) -> int:
        return len(self.terms)

    @property
    def rel_rank(self) -> int:
        return len(self.rel_pivots)

    @property
    def quotient_dim(self) -> int:
        return len(self.terms) - len(self.rel_pivots)


def _bottom_up(rows: Iterable[Row]) -> list[Row]:
    """Nonzero sparse `rows` ordered by last column, rightmost first.

    `echelon_rows` returns the one RREF of the span in any order, but in
    this one it does less work: a new pivot left of every entry of the
    basis rows clears none of them, so the back-substitution and its
    fill-in mostly vanish.  At m = 3, n = 8 over Q the relation
    elimination took 107 ms instead of 236 ms (one core of a 2-core VM)."""
    return sorted(rows, key=lambda row: row[-1][0], reverse=True)


def build_context(space: Space, n: int, size_cap: int | None = None) -> QuotientContext:
    """Enumerate degree-n terms and row-reduce the relation span."""
    if n < 2:
        raise ValueError(f"degree must be >= 2, got {n}")
    check_cap(ambient_dim(space.dim, n), size_cap)
    terms = tuple(all_bimod_terms(space.dim, n))
    index = {t: i for i, t in enumerate(terms)}
    rows = [tuple(sorted((index[k], c) for k, c in g.terms.items()))
            for g in relation_generators(space, n)]
    rel_rows, pivots = echelon_rows(space.field, _bottom_up(rows))
    return QuotientContext(space, n, terms, index, tuple(rel_rows), tuple(pivots),
                           dict(zip(pivots, rel_rows)))


def coords_of(ctx: QuotientContext, x: BimodElement) -> Row:
    """Sparse coordinates of x on the canonical term basis."""
    if x.space != ctx.space or x.degree != ctx.degree:
        raise ValueError("element does not match the context")
    return tuple(sorted((ctx.index[k], c) for k, c in x.terms.items()))


def element_of(ctx: QuotientContext, vec: Sequence) -> BimodElement:
    if len(vec) != ctx.ambient_dim:
        raise ValueError("coordinate vector has the wrong length")
    terms = {ctx.terms[i]: c for i, c in enumerate(vec) if c}
    return BimodElement(ctx.space, ctx.degree, terms)


# cached: a caller that keeps `normal_form` answers (a query loop, say)
# keeps one shared scalar per value, not a new `Fraction` per nonzero entry
@lru_cache(maxsize=256)
def _scalar(field: Field, v) -> Scalar:
    return field.normalize(v)


def normal_form(ctx: QuotientContext, x: BimodElement) -> tuple:
    """Canonical coordinates of the class of x: the residue of its
    coordinate vector against the relation row basis.  Zero iff x lies
    in the relation span; equal vectors iff equal classes.  Entries are
    field scalars (`Fraction` over Q), whatever `linalg` computed on.

    Nonzero entries come from a small cache of converted scalars, so
    answers share them.  A kept answer then holds two objects that the
    cyclic collector tracks (the tuple and its zero) instead of about
    nine on a (3, 6, Q) `cocycle`, so a loop that keeps its answers
    makes a third as many tracked allocations per query (10.2 -> 3.1)
    and reaches the collector's threshold a third as often."""
    field = ctx.space.field
    vec = [field.zero] * ctx.ambient_dim
    for c, v in residue_list(field, coords_of(ctx, x), ctx.rel_basis):
        vec[c] = _scalar(field, v)
    return tuple(vec)


def expand_wedge(x: BimodElement) -> TensorElement:
    """Replace the wedge slot by a commutator: (l | a^b | r) becomes
    l.a.b.r - l.b.a.r in the tensor algebra.  Kills both relation
    families, so it is well defined on quotient classes."""
    return TensorElement._own(x.space, x.degree, _expand(x.space.field, x.terms))


def wedge_at(a: TensorElement, i: int) -> BimodElement:
    """Replace the tensor sign between positions i and i+1 by a wedge,
    canonicalizing signs; words with a repeated letter there drop out.

    One loop builds and sums the terms.  Only a word and its swap at i
    share a term, so a sum can arise (and cancel) only between those two;
    the same single pass, with its pairs summed by `collect`, made a
    `cocycle` query 6-9% slower (in-process timing)."""
    n = a.degree
    if not 1 <= i <= n - 1:
        raise ValueError(f"position {i} out of range 1..{n - 1}")
    f = a.space.field
    neg, add = f.neg, f.add
    terms: dict = {}
    for w, c in a.terms.items():
        u, v = w[i - 1], w[i]
        if u < v:
            key = (w[:i - 1], (u, v), w[i + 1:])
        elif u > v:
            key = (w[:i - 1], (v, u), w[i + 1:])
            c = neg(c)
        else:
            continue
        if key in terms:
            c = add(terms[key], c)
            if not c:
                del terms[key]
                continue
        terms[key] = c
    return BimodElement._own(a.space, n, terms)


def cocycle(ctx: QuotientContext, t: perms.Perm, a: TensorElement,
            word: Sequence[int] | None = None) -> tuple:
    """Normal form of sum_k wedge_at(...applied swaps...), telescoping
    along a factorization of t into adjacent transpositions.

    The value does not depend on the factorization; `word` (first letter
    applied first) overrides the default bubble-sort word and may be
    non-reduced.  Expanding the result recovers a - t(a).

    The images are summed in place into one dict, so no partial sum is
    copied, and the swap of the last letter is not applied, since
    nothing reads its result: `wedge_at` runs len(word) times and
    `perm_action` len(word) - 1 times.  t is checked once, here.
    """
    n = ctx.degree
    if a.degree != n:
        raise ValueError(f"element degree {a.degree} != context degree {n}")
    if len(t) != n:
        raise ValueError(f"permutation size {len(t)} != degree {n}")
    perms.check_perm(t)
    if word is None:
        word = perms._perm_word(t)
    else:
        word = tuple(word)
        if perms.compose_word(n, word) != t:
            raise ValueError(f"word {word} does not compose to {t}")
    field = ctx.space.field
    acc: dict = {}
    cur = a
    last = len(word) - 1
    for k, i in enumerate(word):
        collect(field, wedge_at(cur, i).terms.items(), acc)
        if k < last:
            cur = perm_action(perms.adjacent_transposition(n, i), cur)
    return normal_form(ctx, BimodElement._own(ctx.space, n, acc))
