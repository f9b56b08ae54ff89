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
`build_context`.  That RREF is computed over the integers and shared by
every field: each relation leads with +-1, so it is the RREF over Q, and
reduced mod p the RREF over F_p.  Each answer is a `Coordinates`, the
coordinate vector of the class in the canonical term order, which
stores only its nonzero entries and reads as the dense tuple.  A kept
answer holds three objects that the cyclic collector tracks (the
answer, its columns and its values), and its scalars and its zero are
shared with every other answer.

The relation cores, the canonical term order and the certificate of
0 -> M -> T -> S -> 0 live in `mseq`, which builds no element: its
`verify_sequence`, `ambient_dim` and `all_bimod_terms` are importable
from here as the same objects.

`wedge_at` replaces one tensor sign of a word by a wedge, and expands
to the word minus its swap there; summed along a path of adjacent swaps
from u to v, its images expand to u - v.  Around a closed path they sum
into the relations R: such a path is made of commuting squares, braid
hexagons s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1}, steps taken and undone
and swaps of two equal letters, and these sum to a translate of the
transfer core, a translate of the Jacobi core, 0, and the image 0.  So
a path's class depends only on its ends.  The class N(w) of any path
from a word w to sorted(w) is well defined, and since sorted(t.w) =
sorted(w), the telescope of a permutation t on a, a path from a to t.a,
has the class N(a) - N(t.a), N extended linearly.  Exactness at M says
the same: M -> T is injective, so that class is the one whose expansion
is a - t.a, for every factorization of t.

`cocycle` answers from this by default.  `QuotientContext.word_classes`
is a memo of N, empty when `build_context` returns and filled lazily: a
word missing from it walks toward its sorted word by first descents
until it meets a stored or a sorted word (class 0), and each word on
the way back costs one `normal_form` of one `wedge_at` term plus its
parent's class.  The memo holds normal forms, so sums of them need no
further reduction, and it holds at most the m^n words of its degree.
The explicit-`word` path of `cocycle` sums the plain telescope along
the word it is given, one `wedge_at` and one swap per letter: an
independent check of the memo.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from functools import lru_cache
from itertools import chain
from typing import Callable, Iterable, Sequence

from . import perms
from .bases import Space, check_word, collect
from .errors import Record, check_cap
from .fields import _ZZ, Field, Scalar
from .linalg import Row, echelon_rows, residue_list
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


def relation_generators(m: int, n: int) -> list[dict]:
    """A basis of the degree-n relations over the letters 1..m: every
    two-sided basis-word translate into degree n of every basis core of
    `mseq._relation_cores`, as an integer {term: +-1} dict.  Their
    leading terms are pairwise distinct, so they are independent, and
    they span the relations of every core (the `mseq` docstring; each
    certified M->T->S cell checks both).  Translating by basis words is
    injective, so none of them is zero.  They hold over every field: a
    field enters only through an element, `BimodElement(space, n, g)`."""
    gens: list[dict] = []
    for core, basis in _relation_cores(m, n):
        if basis:
            # every term of a core has the core's degree
            first_left, _, first_right = next(iter(core))
            gens += ({(left + a, pair, b + right): c for (a, pair, b), c in core.items()}
                     for left, right in _translates(m, n, len(first_left) + 2 + len(first_right)))
    return gens


class QuotientContext(Record):
    """Cached coordinates for one (space, degree): the canonical term
    enumeration and the sparse RREF of the relation span, held once as
    `rel_basis`, its pivot column -> row index for residues; `rel_rows`
    reads its rows in pivot order.  Contexts compare by identity.

    `rel_basis` holds the integer RREF, the same for every field: every
    entry is the int 1 or -1 (`build_context`), and `normal_form`
    reduces it into the field of `space`.

    `word_classes` is the memo of `cocycle`, word -> the normal form of
    the class N(w) with expansion w - sorted(w), stored flat as one
    tuple col, value, col, value, ... of its nonzero entries, values
    ints (reduced mod p over F_p): with every word stored, the memo of
    (3, 6) takes about 240 KB this way and 310 KB as a pair of tuples
    per word.  A context starts with it empty, and a copy or a pickle
    starts empty again."""

    __slots__ = ("space", "degree", "terms", "index", "rel_basis", "word_classes")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, space: Space, degree: int, terms: tuple[BimodTerm, ...], index: dict,
                 rel_basis: dict[int, Row]):
        Record.__init__(self, space, degree, terms, index, rel_basis, {})

    def __reduce__(self):
        return self.__class__, self._astuple(self)[:-1]

    @property
    def ambient_dim(self) -> int:
        return len(self.terms)

    @property
    def rel_rows(self) -> tuple[Row, ...]:
        return tuple(self.rel_basis.values())

    @property
    def rel_rank(self) -> int:
        return len(self.rel_basis)

    @property
    def quotient_dim(self) -> int:
        return len(self.terms) - len(self.rel_basis)


def _bottom_up(rows: Iterable[Row]) -> list[Row]:
    """Nonzero sparse `rows` ordered by last column, rightmost first.

    `echelon_rows` returns the one RREF of the span in any order, but in
    this one it does less work: a new pivot left of every entry of the
    basis rows clears none of them, so the back-substitution and its
    fill-in mostly vanish: at m = 3, n = 8 it halved the relation
    elimination (measured over Q, one core of a 2-core VM)."""
    return sorted(rows, key=lambda row: row[-1][0], reverse=True)


def build_context(space: Space, n: int, size_cap: int | None = None) -> QuotientContext:
    """Enumerate degree-n terms and row-reduce `relation_generators`, a
    basis of the degree-n relations, so the RREF has one row per
    generator.

    The generators are integer dicts, built from `space.dim` alone and
    read straight into sparse rows, with no element built; they are
    row-reduced over the integers whatever field `space` names, and the
    one integer RREF serves every field.  Every basis core leads with
    +-1 (each certified M->T->S cell checks it), and `_ZZ.inv` raises
    on any other pivot, so the integer RREF is the RREF over Q.  Each of its rows is a pivot term minus a signed path
    of last-ascent terms (the lemma in the `mseq` docstring), so every
    entry is +-1, none vanishes mod p, and reduced mod p it is the RREF
    over F_p: `normal_form` reduces in the field of `space`."""
    if n < 2:
        raise ValueError(f"degree must be >= 2, got {n}")
    check_cap(ambient_dim(space.dim, n), size_cap)
    terms = tuple(all_bimod_terms(space.dim, n))
    index = {t: i for i, t in enumerate(terms)}
    rows = [tuple(sorted((index[k], c) for k, c in g.items()))
            for g in relation_generators(space.dim, n)]
    rel_rows, pivots = echelon_rows(_ZZ, _bottom_up(rows))
    return QuotientContext(space, n, terms, index, dict(zip(pivots, rel_rows)))


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
# hashes no `Field`.  An int and the equal `Fraction` take two entries;
# over Q the memo sums of `cocycle` are ints while a's coefficients are
# integral.
@lru_cache(maxsize=32)
def _scalars(field: Field) -> Callable[[Scalar], Scalar]:
    return lru_cache(maxsize=256)(field.normalize)


def normal_form(ctx: QuotientContext, x: BimodElement) -> Coordinates:
    """Canonical coordinates of the class of x: the residue of its
    coordinate vector against the relation row basis.  Zero iff x lies
    in the relation span; equal answers iff equal classes.  An answer is
    a `Coordinates` of length `ctx.ambient_dim` that reads as the dense
    tuple; its entries are field scalars (`Fraction` over Q), whatever
    `linalg` computed on.  The integer RREF of `ctx` is reduced in the
    field of `ctx.space`: exactly over Q, mod p over F_p.

    It stores only the nonzero entries, and they come from a small cache
    of converted scalars, so answers share them, as they share the
    field's one `zero`.  A kept answer holds three objects that the
    cyclic collector tracks (the answer, its columns and its values;
    a zero answer shares the empty tuple).  The two tuples are built
    from lists, not by `zip(*residue)`, which makes an iterator per
    entry and raises the peak memory of a loop that keeps its answers.

    The coordinates go to `residue_list` unsorted, since it sorts its
    result."""
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


def wedge_at(a: TensorElement, i: int) -> BimodElement:
    """Replace the tensor sign between positions i and i+1 by a wedge,
    canonicalizing signs; words with a repeated letter there drop out.
    Among the words of a, only a word and its swap at i share a term, and
    `collect` sums (and may cancel) those two."""
    n = a.degree
    if not 1 <= i <= n - 1:
        raise ValueError(f"position {i} out of range 1..{n - 1}")
    field = a.space.field
    neg = field.neg
    pairs = (((w[:i - 1], (w[i - 1], w[i]), w[i + 1:]), c) if w[i - 1] < w[i]
             else ((w[:i - 1], (w[i], w[i - 1]), w[i + 1:]), neg(c))
             for w, c in a.terms.items() if w[i - 1] != w[i])
    return BimodElement._own(a.space, n, collect(field, pairs))


def _word_class(ctx: QuotientContext, w: tuple) -> tuple:
    """N(w), the class with expansion w - sorted(w), from
    `ctx.word_classes`, storing it and the classes met on the way there.

    A missing word walks by first descents, each swap taking it one
    inversion closer to sorted(w), until it reaches a stored word or a
    sorted one, whose class is 0; on the way back each word u with
    descent i gets N(u) = normal_form(wedge_at(u, i)) + N(u swapped at
    i), since wedge_at(u, i) expands to u minus its swap.  The values
    are ints, reduced mod p over F_p: over Q a single term's residue
    against the RREF of +-1 entries is integral."""
    classes = ctx.word_classes
    found = classes.get(w)
    if found is not None:
        return found
    path = []
    u = w
    while True:
        for i in range(1, len(u)):
            if u[i - 1] > u[i]:
                break
        else:
            found = ()
            break
        path.append((u, i))
        u = u[:i - 1] + (u[i], u[i - 1]) + u[i + 1:]
        found = classes.get(u)
        if found is not None:
            break
    space, n = ctx.space, ctx.degree
    p = space.field.char
    for u, i in reversed(path):
        step = normal_form(ctx, wedge_at(TensorElement._own(space, n, {u: space.field.one}), i))
        pairs = iter(found)
        acc = dict(zip(pairs, pairs))
        for c, v in zip(step.cols, step.vals):
            v = acc.get(c, 0) + (v if p else v.numerator)
            if p:
                v %= p
            if v:
                acc[c] = v
            else:
                del acc[c]  # a nonzero step entry cancelled the parent's
        found = classes[u] = tuple(chain.from_iterable(acc.items()))
    return found


def cocycle(ctx: QuotientContext, t: perms.Perm, a: TensorElement,
            word: Sequence[int] | None = None) -> Coordinates:
    """The normal form of the class h(t, a) whose expansion is a - t.a:
    the class of sum_k wedge_at(...applied swaps...), telescoping along a
    factorization of t into adjacent transpositions, which does not
    depend on the factorization (the module docstring).

    By default the answer is N(a) - N(t.a) from the memo
    `ctx.word_classes`, with t.a from `perm_action(t, a)`: each word w
    of a and of t.a adds its coefficient times N(w), stored or found by
    `_word_class`.  The sum needs no reduction; over Q it runs on ints
    while a's coefficients are integral, each turned into an int as it
    is read, so no converted element is built, and the answer's values
    pass through `_scalars`, so they are field scalars as `normal_form`
    gives them.  t is checked by `perm_action`, through the cached
    `perms._mover`, before the memo is read, so a refused query stores
    nothing.  A warm query on a word runs no `wedge_at`, `normal_form`
    or `residue_list`.

    `word` (first letter applied first) names the factorization to sum
    instead, and may be non-reduced; t is checked and the word composed
    on every such call.  This is the plain telescope, the oracle that the
    `cocycle` command checks the memo against: for each letter i, the
    image `wedge_at(cur, i)` is summed into one dict by `collect`, and
    cur, starting at a, is moved by the swap of i, taken from the
    degree's cached tuple of adjacent transpositions.  So `wedge_at` and
    `perm_action` each run once per letter.

    Either way a must be over the space of `ctx`.
    """
    n = ctx.degree
    if a.degree != n:
        raise ValueError(f"element degree {a.degree} != context degree {n}")
    if len(t) != n:
        raise ValueError(f"permutation size {len(t)} != degree {n}")
    if a.space is not ctx.space and a.space != ctx.space:
        raise ValueError("element does not match the context")
    field = ctx.space.field
    if word is None:
        moved = perm_action(t, a)  # checks t before the memo is read
        acc: dict = {}
        get = acc.get
        rational = not field.char
        for terms, sign in ((a.terms, 1), (moved.terms, -1)):
            for w, c in terms.items():
                pairs = iter(_word_class(ctx, w))
                if rational and c.denominator == 1:
                    c = c.numerator
                c *= sign
                for col, v in zip(pairs, pairs):
                    acc[col] = get(col, 0) + c * v
        if field.char:
            p = field.char
            acc = {col: v % p for col, v in acc.items()}
        # the sums are ints while a's coefficients are, and an int tests
        # nonzero in C, not through `Fraction.__bool__`
        cols = sorted([col for col, v in acc.items() if v])
        scalar = _scalars(field)
        return Coordinates(ctx.ambient_dim, field.zero, tuple(cols),
                           tuple([scalar(acc[col]) for col in cols]))
    perms.check_perm(t)
    word = tuple(word)
    if perms.compose_word(n, word) != t:
        raise ValueError(f"word {word} does not compose to {t}")
    swaps = perms._adjacent_transpositions(n)
    acc = {}
    cur = a
    for i in word:
        collect(field, wedge_at(cur, i).terms.items(), acc)
        cur = perm_action(swaps[i - 1], cur)
    return normal_form(ctx, BimodElement._own(ctx.space, n, acc))
