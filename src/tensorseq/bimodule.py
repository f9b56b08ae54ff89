"""The graded bimodule of wedge-carrying tensors and its relation quotient.

A degree-n basis term is (left word, wedge pair, right word) with the
wedge pair strictly increasing; the two-sided word multiplication
concatenates into the outer slots.  No command multiplies elements, so
that multiplication is kept in `tests/conftest.py` (`bimodule_mult`) as
a reference implementation.  Two relation families are divided out:

  * commutator transfer: (uv - vu) (x) mid (x) z^t  -  u^v (x) mid (x) (zt - tz)
  * Jacobi cycle:        [u, v^w] + [v, w^u] + [w, u^v]

with u, v, w, z, t basis vectors and `mid` ranging over basis words.
Both families expand, via the commutator, to zero in the tensor
algebra, so `expand_wedge` descends to the quotient; `normal_form` and
`cocycle` compute in it through the cached row echelon form of
`build_context`.  Each answers with a `Coordinates`, the coordinate
vector of the class in the canonical term order, which stores only its
nonzero entries (about 7 of 1,215 on a (3, 6, Q) `cocycle`) and reads
as the dense tuple.  A kept answer holds three objects that the cyclic
collector tracks (the answer, its columns and its values), and its
scalars and its zero are shared with every other answer.

The relation cores, the canonical term order and the certificate of
0 -> M -> T -> S -> 0 live in `mseq`, which builds no element: its
`verify_sequence`, `ambient_dim` and `all_bimod_terms` are importable
from here as the same objects.

`wedge_at` replaces one tensor sign of a word by a wedge; summing its
images along a factorization of a permutation into adjacent swaps gives
the telescoping `cocycle` map, whose value is independent of the chosen
factorization.  `cocycle` has `wedge_at` sum every image straight into
one dict, skips a swap that exchanges equal letters in every word (it
changes nothing and has image 0), applies no swap after the last letter,
whose result nothing would read, and over Q sums on ints while the
values are integral, as `linalg` does.  What depends only on t comes
from caches in `perms`, since a query loop draws few distinct t (720 at
degree 6): its bubble-sort word and the degree's adjacent
transpositions.  With those caches and `tensor.word_element`'s shared
`one`, a (3, 6, Q) query took 24 us instead of 28 us (best of 5 over
4,000 seeded queries, in process, one core of a 2-core VM).
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from . import perms
from .bases import Space, check_word
from .errors import Record, check_cap
from .fields import Field, Scalar
from .linalg import Row, _integral, echelon_rows, residue_list
from .mseq import (BimodTerm, _expand, _relation_cores, _translates, all_bimod_terms,
                   ambient_dim)
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


def _two_sided_closure(space: Space, core: dict, n: int) -> Iterable[BimodElement]:
    """All basis-word translates of the nonzero `core`, {term: coeff},
    landing in degree n."""
    # every term of a core has the core's degree
    first_left, _, first_right = next(iter(core))
    for left, right in _translates(space.dim, n, len(first_left) + 2 + len(first_right)):
        terms = {(left + a, pair, b + right): c for (a, pair, b), c in core.items()}
        yield BimodElement._own(space, n, terms)


def relation_generators(space: Space, n: int) -> list[BimodElement]:
    """A basis of the degree-n relations: every two-sided translate into
    degree n of every basis core of `mseq._relation_cores`.  Their
    leading terms are pairwise distinct, so they are independent, and
    they span the relations of every core (the `mseq` docstring; each
    certified M->T->S cell checks both).  Translating by basis words is
    injective, so none of them is zero."""
    return [g for core, basis in _relation_cores(space, n) if basis
            for g in _two_sided_closure(space, core, n)]


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
    """Enumerate degree-n terms and row-reduce `relation_generators`, a
    basis of the degree-n relations, so the RREF has one row per
    generator."""
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


class Coordinates(Record):
    """A coordinate vector of `size` entries that stores only its nonzero
    ones: the entry at column `cols[k]` is `vals[k]`, columns ascending,
    and every other entry is `zero`.  It reads as the dense tuple: `len`,
    iteration in order, int indexing (negative too) and slices, which
    return tuples.  Unlike other `Record`s, it equals another
    `Coordinates` with the same entries, compared without densifying,
    and any tuple or list with the same dense entries, and it hashes as
    its dense tuple."""

    __slots__ = ("size", "zero", "cols", "vals")

    def __init__(self, size: int, zero: Scalar, cols: tuple[int, ...], vals: tuple):
        Record.__init__(self, size, zero, cols, vals)

    def _dense(self) -> list:
        vec = [self.zero] * self.size
        for c, v in zip(self.cols, self.vals):
            vec[c] = v
        return vec

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self._dense())

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self._dense()[i])
        i = operator.index(i)
        j = i + self.size if i < 0 else i
        if not 0 <= j < self.size:
            raise IndexError(f"coordinate index {i} out of range")
        k = bisect_left(self.cols, j)
        return self.vals[k] if k < len(self.cols) and self.cols[k] == j else self.zero

    def __eq__(self, other):
        if isinstance(other, Coordinates):
            return (self.size == other.size and self.cols == other.cols
                    and self.vals == other.vals)
        if isinstance(other, (tuple, list)):
            return len(other) == self.size and self._dense() == list(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._dense()))


def element_of(ctx: QuotientContext, vec: Sequence) -> BimodElement:
    if len(vec) != ctx.ambient_dim:
        raise ValueError("coordinate vector has the wrong length")
    terms = {ctx.terms[i]: c for i, c in enumerate(vec) if c}
    return BimodElement(ctx.space, ctx.degree, terms)


# cached per field: a caller that keeps `normal_form` answers (a query
# loop, say) keeps one shared scalar per value, not a new `Fraction` per
# nonzero entry.  The inner cache is keyed by the value alone, so a lookup
# hashes no `Field`.  An int and the equal `Fraction` would take two
# entries, but `residue_list` hands out every integral value as an int.
@lru_cache(maxsize=32)
def _scalars(field: Field) -> Callable[[Scalar], Scalar]:
    return lru_cache(maxsize=256)(field.normalize)


def normal_form(ctx: QuotientContext, x: BimodElement) -> Coordinates:
    """Canonical coordinates of the class of x: the residue of its
    coordinate vector against the relation row basis.  Zero iff x lies
    in the relation span; equal answers iff equal classes.  An answer is
    a `Coordinates` of length `ctx.ambient_dim` that reads as the dense
    tuple; its entries are field scalars (`Fraction` over Q), whatever
    `linalg` computed on.

    It stores only the nonzero entries, and they come from a small cache
    of converted scalars, so answers share them, as they share the
    field's one `zero`.  A kept answer holds three objects that the
    cyclic collector tracks (the answer, its columns and its values;
    a zero answer shares the empty tuple): 2.9 per answer on 200 seeded
    (3, 6, Q) `cocycle` answers, which hold 69 KB under `tracemalloc`,
    where dense tuples of 1,215 slots held 1,927 KB.

    The two tuples are built from lists, not by `zip(*residue)`, which
    makes an iterator per entry: on a 2-core VM, a loop like the
    `nf-queries` benchmark's reached a peak RSS of 24.6 MB after 100,000
    queries with `zip` and 21.4 MB without it.

    x may hold ints for integral values over Q, as `linalg` does.  The
    coordinates go to `residue_list` unsorted, since it sorts its result."""
    if (x.space is not ctx.space and x.space != ctx.space) or x.degree != ctx.degree:
        raise ValueError("element does not match the context")
    field = ctx.space.field
    scalar = _scalars(field)
    index = ctx.index
    residue = residue_list(field, [(index[k], c) for k, c in x.terms.items()], ctx.rel_basis)
    return Coordinates(ctx.ambient_dim, field.zero, tuple([c for c, _ in residue]),
                       tuple([scalar(v) for _, v in residue]))


def expand_wedge(x: BimodElement) -> TensorElement:
    """Replace the wedge slot by a commutator: (l | a^b | r) becomes
    l.a.b.r - l.b.a.r in the tensor algebra.  Kills both relation
    families, so it is well defined on quotient classes."""
    return TensorElement._own(x.space, x.degree, _expand(x.space.field, x.terms))


def wedge_at(a: TensorElement, i: int, out: dict | None = None) -> BimodElement | dict:
    """Replace the tensor sign between positions i and i+1 by a wedge,
    canonicalizing signs; words with a repeated letter there drop out.

    With `out`, a dict of terms, the terms are summed into it instead, as
    `collect(..., out)` does, and `out` is returned; otherwise a new
    `BimodElement` is.

    One loop builds and sums the terms.  Among the words of a, only a
    word and its swap at i share a term, so a sum can arise (and cancel)
    only between those two or with a term already in `out`; the same
    single pass, with its pairs summed by `collect`, made a `cocycle`
    query 6-9% slower (in-process timing)."""
    n = a.degree
    if not 1 <= i <= n - 1:
        raise ValueError(f"position {i} out of range 1..{n - 1}")
    f = a.space.field
    neg, add = f.neg, f.add
    terms = {} if out is None else out
    for w, c in a.terms.items():
        u, v = w[i - 1], w[i]
        if u < v:
            key = (w[:i - 1], (u, v), w[i + 1:])
        elif u > v:
            key = (w[:i - 1], (v, u), w[i + 1:])
            c = neg(c)
        else:
            continue
        # most keys are new (96% on (3, 6, Q) queries) and are hashed
        # twice either way; `terms.get` adds a call that `in` does not, and
        # made a query 0.3 us slower
        if key in terms:
            c = add(terms[key], c)
            if not c:
                del terms[key]
                continue
        terms[key] = c
    return BimodElement._own(a.space, n, terms) if out is None else out


def cocycle(ctx: QuotientContext, t: perms.Perm, a: TensorElement,
            word: Sequence[int] | None = None) -> Coordinates:
    """Normal form of sum_k wedge_at(...applied swaps...), telescoping
    along a factorization of t into adjacent transpositions.

    The value does not depend on the factorization; `word` (first letter
    applied first) overrides the default bubble-sort word and may be
    non-reduced.  Expanding the result recovers a - t(a).

    `wedge_at` sums each image straight into one dict, so no partial
    sum or per-letter element is built.  A letter whose swap exchanges
    two equal letters in every word of the current element leaves it
    unchanged and has image 0, so neither `wedge_at` nor `perm_action`
    runs for it; nor is the swap of the last letter applied, since
    nothing reads its result.  Otherwise `wedge_at` runs once per letter
    and `perm_action` once per letter but the last.  t is checked once,
    here.  Its default word comes from the cached `perms._perm_word`
    (about 0.1 us a query instead of 1.7 us to bubble-sort a degree-6 t)
    and each applied swap from the degree's cached tuple of adjacent
    transpositions, one index per swap instead of one cache lookup.
    Over Q the sum runs on ints while the values are integral, as in
    `linalg`; `normal_form` turns them back into field scalars.
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
    cur = a if ctx.space.field.char else TensorElement._own(
        a.space, n, _integral(a.terms.items()))
    swaps = perms._adjacent_transpositions(n)
    acc: dict = {}
    last = len(word) - 1
    for k, i in enumerate(word):
        for w in cur.terms:
            if w[i - 1] != w[i]:
                break
        else:
            continue  # the swap fixes every word of cur, and its wedge is 0
        wedge_at(cur, i, acc)
        if k < last:
            cur = perm_action(swaps[i - 1], cur)
    return normal_form(ctx, BimodElement._own(ctx.space, n, acc))
