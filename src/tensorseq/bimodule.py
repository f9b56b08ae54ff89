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

`verify_sequence` needs only the rank of the relation span R, and it
takes it from a leading-term witness instead of an elimination.  Order
the degree-n terms canonically, by (len(left), left, pair, right), as
`all_bimod_terms` lists them, and call a relation's smallest term its
leading term.  The argument has four steps:

  * the generators are the two-sided word translates l.core.r of a
    few cores (`_relation_cores`).  Translation preserves the order,
    because every term of a core has the same degree, so the leading
    term of l.core.r is l.lead(core).r and the leading terms are counted
    as tuples, with no translate built;
  * one generator per distinct leading term gives rows in echelon form,
    so k distinct leading terms give k <= rank R;
  * expansion commutes with two-sided multiplication, and translation by
    basis words is injective on tensors, so every generator expands to
    zero exactly when every core does, which is checked once per core.
    Then R lies in the kernel of the expansion E, and
    rank R <= ambient - rank E, where `image_equals_kernel` returns
    rank E as words minus connected components;
  * so k = ambient - rank E proves rank R = k, and then R = ker E.

The witness always closes: k = ambient - rank E on every cell, by a
lemma in the setting of Bergman's Diamond Lemma (Adv. Math. 29, 1978).
Call the wedge of a term (l, a^b, r) at the last ascent of its word
l.a.b.r when b >= r[0] >= r[1] >= ... .  Every other term is the
leading term of a generator; look at the first ascent after a.b:

  * if it is b < r[0], the term is l.lead(J(a, b, r[0])).r[1:], where
    the Jacobi core J(x, y, z) has leading term ((), x^y, (z));
  * if it is r[j] < r[j+1] with j >= 0, the term is
    l.lead(T(a, b, r[:j], r[j], r[j+1])).r[j+2:], where the transfer core
    T(x, y, mid, z, t) has leading term ((), x^y, mid.z.t).

Both cores are nonzero members of `_relation_cores` of degree at most
n.  A leading term has an ascent right after its wedge, so no leading
term is a last-ascent term.  The last-ascent terms match the words that
are not weakly decreasing one to one (the wedge marks the word's last
ascent).  Each component of the adjacent-swap graph holds one weakly
decreasing word, so there are m^n - C(m+n-1, n) = rank E of them, and
k = ambient - rank E whenever the relation cores are the real ones.  The
certificate does not rely on the lemma: the count is checked against
the bound on every cell, and a cell whose count falls short fails.

`verify_sequence` computes over the integers (`fields._ZZ`), once per
(m, n), and its certificate holds over Q and every F_p.  Reducing the
integer data into a field F keeps every step of the argument:

  * every relation core has integer coefficients, and the cell checks
    that each core's leading coefficient is +-1, a unit in F.  Reduced
    into F, each generator keeps its leading term, so k distinct
    leading terms still give k <= rank R over F; a core that expands to
    zero over Z expands to zero over F, because expansion has integer
    coefficients;
  * every expansion row is e_u - e_v, a column of a graph's oriented
    incidence matrix, whose rank over any field is vertices minus
    components (Biggs, *Algebraic Graph Theory*), so rank E is the same
    over every F;
  * every projection row holds one 1, so over any F the kernel of the
    projection is spanned by the differences inside its fibres, and the
    kernel vectors found over Z, each e_j minus the first word of j's
    fibre, reduce to a basis of it.  Image and kernel are then compared
    on the graph and the fibres alone.

`certify.run_grid` therefore runs one computation per (m, n) and stamps
a copy of its certificate with each field's name.

`wedge_at` replaces one tensor sign of a word by a wedge; summing its
images along a factorization of a permutation into adjacent swaps gives
the telescoping `cocycle` map, whose value is independent of the chosen
factorization.  `cocycle` sums the images in place, into one dict, and
applies no swap after the last letter, whose result nothing would read.
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import chain, combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from . import perms
from .certificates import Certificate, CheckResult, certificate, image_equals_kernel
from .errors import Record, check_cap
from .fields import _ZZ, Field, Scalar
from .linalg import Row, echelon_rows, residue_list
from .tensor import (Space, TensorElement, Word, _SparseElement, all_words, check_word,
                     collect, dim_sym, dim_tensor, perm_action, symmetrize_matrix)

BimodTerm = tuple  # (left word, (a, b), right word)


def ambient_dim(m: int, n: int) -> int:
    """Dimension of the degree-n component: (n-1) * C(m,2) * m^(n-2).

    Degrees below 2 have no wedge slot, so the component vanishes.

    >>> ambient_dim(2, 3), ambient_dim(3, 3), ambient_dim(2, 2)
    (4, 18, 1)
    """
    if n < 2:
        return 0
    return (n - 1) * comb(m, 2) * (m ** (n - 2))


def all_bimod_terms(m: int, n: int) -> list[BimodTerm]:
    """Canonical term enumeration: left degree ascending, then left word,
    wedge pair, right word, each lexicographically.  With fewer than two
    letters there is no wedge pair, so no term, whatever the degree."""
    if n < 2 or m < 2:
        return []
    terms = []
    for i in range(n - 1):
        j = n - 2 - i
        for left in all_words(m, i):
            for pair in combinations(range(1, m + 1), 2):
                for right in all_words(m, j):
                    terms.append((left, pair, right))
    return terms


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


def _wedge_terms(field: Field, items: Iterable[tuple]) -> Iterator[tuple]:
    """The canonical (term, coeff) pairs of coeff * (left | u^v | right)
    for each (left, u, v, right, coeff) in `items`: u^v with u > v
    becomes -(v^u), and u^u drops out."""
    neg = field.neg
    for left, u, v, right, coeff in items:
        if u < v:
            yield (left, (u, v), right), coeff
        elif u > v:
            yield (left, (v, u), right), neg(coeff)


def commutator_transfer(space: Space, x: int, y: int, mid: Word,
                        z: int, t: int) -> BimodElement:
    """(xy - yx) (x) mid (x) z^t  -  x^y (x) mid (x) (zt - tz)."""
    mid = check_word(space, mid)
    f = space.field
    one, neg_one = f.one, f.neg(f.one)
    terms = collect(f, _wedge_terms(f, (((x, y) + mid, z, t, (), one),
                                        ((y, x) + mid, z, t, (), neg_one),
                                        ((), x, y, mid + (z, t), neg_one),
                                        ((), x, y, mid + (t, z), one))))
    return BimodElement._own(space, len(mid) + 4, terms)


def jacobi_cycle(space: Space, x: int, y: int, z: int) -> BimodElement:
    """[x, y^z] + [y, z^x] + [z, x^y], the cyclic commutator sum."""
    f = space.field
    one, neg_one = f.one, f.neg(f.one)
    items = (item for a, (b, c) in ((x, (y, z)), (y, (z, x)), (z, (x, y)))
             for item in (((a,), b, c, (), one), ((), b, c, (a,), neg_one)))
    return BimodElement._own(space, 3, collect(f, _wedge_terms(f, items)))


def _two_sided_closure(space: Space, core: BimodElement, n: int) -> Iterable[BimodElement]:
    """All basis-word translates of `core` landing in degree n."""
    d = core.degree
    m = space.dim
    for p in range(n - d + 1):
        q = n - d - p
        for left in all_words(m, p):
            for right in all_words(m, q):
                terms = {(left + a, pair, b + right): c
                         for (a, pair, b), c in core.terms.items()}
                yield BimodElement._own(space, n, terms)


def _relation_cores(space: Space, n: int) -> Iterator[BimodElement]:
    """The nonzero relation cores of degree at most n whose two-sided
    translates span the degree-n relations: Jacobi cycles, then
    commutator transfers by middle length.

    Cores are instantiated on ordered index tuples only: both families
    are multilinear and alternating in the relevant slots, so unordered
    or repeated instantiations are scalar multiples of ordered ones.
    """
    letters = range(1, space.dim + 1)
    jacobi = (jacobi_cycle(space, x, y, z) for x, y, z in combinations(letters, 3))
    transfers = (commutator_transfer(space, x, y, mid, z, t)
                 for k in range(n - 3)
                 for x, y in combinations(letters, 2)
                 for z, t in combinations(letters, 2)
                 for mid in all_words(space.dim, k))
    return (core for core in chain(jacobi if n >= 3 else (), transfers) if not core.is_zero())


def relation_generators(space: Space, n: int) -> list[BimodElement]:
    """A degree-n spanning set of the relation subbimodule: every
    two-sided translate of every `_relation_cores` core into degree n.
    Translating by basis words is injective, so none of them is zero."""
    return [g for core in _relation_cores(space, n) for g in _two_sided_closure(space, core, n)]


def _term_order(term: BimodTerm) -> tuple:
    """Sort key of the canonical term order of `all_bimod_terms`."""
    left, pair, right = term
    return len(left), left, pair, right


def _leading_terms(space: Space, n: int) -> tuple[set, str | None]:
    """The distinct leading terms of the degree-n relation generators,
    and the first fault among the relation cores, or None: a leading
    coefficient other than +-1, or an expansion that is not zero.

    The leading term of l.core.r is l.lead(core).r, so the translates'
    leading terms are formed as tuples and no translate is built; each
    core is checked once, up to the first fault (see the module
    docstring)."""
    m = space.dim
    units = (space.field.one, space.field.neg(space.field.one))
    leads: set = set()
    fault = None
    for core in _relation_cores(space, n):
        lead = min(core.terms, key=_term_order)
        if fault is None:
            if core.terms[lead] not in units:
                fault = (f"relation core led by {lead} has leading coefficient "
                         f"{core.terms[lead]}, not +-1")
            elif not expand_wedge(core).is_zero():
                fault = "relations do not expand to zero"
        a, pair, b = lead
        d = core.degree
        for p in range(n - d + 1):
            rights = tuple(all_words(m, n - d - p))
            for left in all_words(m, p):
                la = left + a
                leads.update((la, pair, b + right) for right in rights)
    return leads, fault


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
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "rel_rows", rel_rows)
        object.__setattr__(self, "rel_pivots", rel_pivots)
        object.__setattr__(self, "rel_basis", rel_basis)

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
    neg = x.space.field.neg
    terms = collect(x.space.field,
                    (pair for (left, (a, b), right), c in x.terms.items()
                     for pair in ((left + (a, b) + right, c), (left + (b, a) + right, neg(c)))))
    return TensorElement._own(x.space, x.degree, terms)


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


def _expansion_rows(field: Field, word_index: dict, terms: Iterable[BimodTerm]) -> list[Row]:
    """Sparse tensor coordinates of the expansion of each basis term; a < b,
    so the word l.a.b.r precedes l.b.a.r."""
    one, neg_one = field.one, field.neg(field.one)
    return [((word_index[left + (a, b) + right], one),
             (word_index[left + (b, a) + right], neg_one))
            for left, (a, b), right in terms]


def verify_sequence(space: Space, n: int, size_cap: int | None = None) -> Certificate:
    """Certify degree-n exactness of quotient -> tensor -> symmetric:
    the expansion map is well defined and injective on the quotient, its
    image is exactly the kernel of symmetrization, and the dimensions
    agree.

    The computation runs over the integers whatever field `space` names,
    and the certificate, stamped with that field's name, holds over Q
    and over every F_p alike (module docstring).  The cap bounds both
    the ambient dimension and the tensor dimension m^n, the rows of the
    projection, before anything is built.

    The expansion E sends each basis term l.(a^b).r to the difference of
    the words l.a.b.r and l.b.a.r, an edge between two words one adjacent
    swap apart, so `image_equals_kernel` certifies its image as the span
    of a graph's edges, with no elimination, and returns rank E.

    The relation rank is k, the number of distinct leading terms among
    the generators (module docstring): k <= rank R always, and once every
    core expands to zero, R lies in ker E, so rank R <= ambient - rank E.
    `injective_rank` passes when every core has leading coefficient +-1
    and expands to zero, and k = ambient - rank E; then R = ker E, and
    the quotient, of dimension ambient - k = rank E, maps injectively.
    It fails, naming the fault, when some core has another leading
    coefficient, so that its leading term might vanish in some F_p, or
    does not expand to zero, E not being well defined on the quotient,
    or when k falls short of the bound, which the module docstring
    proves cannot happen for the real relations.  No relation span is
    row-reduced.
    """
    start = time.perf_counter()
    if n < 2:
        raise ValueError(f"degree must be >= 2, got {n}")
    m = space.dim
    ambient = ambient_dim(m, n)
    check_cap(ambient, size_cap)
    t_dim = dim_tensor(m, n)
    check_cap(t_dim, size_cap, "tensor dimension")
    s_dim = dim_sym(m, n)
    ring = Space(m, _ZZ)
    leads, fault = _leading_terms(ring, n)
    word_index = {w: i for i, w in enumerate(all_words(m, n))}
    image_rows = _expansion_rows(_ZZ, word_index, all_bimod_terms(m, n))
    exact, inj_rank, _ = image_equals_kernel(_ZZ, image_rows, symmetrize_matrix(ring, n))
    q_dim = ambient - len(leads)
    detail = f"rank of expansion on quotient basis = {inj_rank}, quotient dim = {q_dim}"
    checks = (
        CheckResult(
            "injective_rank", fault is None and inj_rank == q_dim,
            detail if fault is None else f"{detail}, {fault}"),
        exact,
        CheckResult(
            "dimension_identity", q_dim == t_dim - s_dim,
            f"quotient dim {q_dim}, tensor dim {t_dim}, symmetric dim {s_dim}"),
    )
    return certificate(
        "M->T->S", space, n,
        {"ambient": ambient, "wm_rank": len(leads), "m_dim": q_dim,
         "t_dim": t_dim, "s_dim": s_dim},
        checks, start)
