"""The graded bimodule of wedge-carrying tensors and its relation quotient.

A degree-n basis term is (left word, wedge pair, right word) with the
wedge pair strictly increasing; the two-sided word multiplication
concatenates into the outer slots.  Two relation families are divided
out:

  * commutator transfer: (uv - vu) (x) mid (x) z^t  -  u^v (x) mid (x) (zt - tz)
  * Jacobi cycle:        [u, v^w] + [v, w^u] + [w, u^v]

with u, v, w, z, t basis vectors and `mid` ranging over basis words.
Both families expand, via the commutator, to zero in the tensor
algebra, so `expand_wedge` descends to the quotient; the quotient is
handled concretely through cached row-echelon normal forms.

`wedge_at` replaces one tensor sign of a word by a wedge; summing its
images along a factorization of a permutation into adjacent swaps gives
the telescoping `cocycle` map, whose value is independent of the chosen
factorization.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Mapping, Sequence

from . import perms
from .certificates import Certificate, CheckResult, certificate, image_equals_kernel
from .errors import check_cap
from .fields import Field, Scalar
from .linalg import Row, echelon_rows, residue_list
from .tensor import (Space, TensorElement, Word, _SparseElement, all_words,
                     check_word, dim_sym, dim_tensor, perm_action,
                     symmetrize_matrix)

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
    wedge pair, right word, each lexicographically."""
    if n < 2:
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


def bimod_element(space: Space, degree: int, terms: Mapping[BimodTerm, Scalar]) -> BimodElement:
    checked = {}
    for (left, pair, right), c in terms.items():
        left = check_word(space, left)
        right = check_word(space, right)
        a, b = pair
        if not (1 <= a < b <= space.dim):
            raise ValueError(f"wedge pair {pair} is not strictly increasing in range")
        if len(left) + 2 + len(right) != degree:
            raise ValueError(f"term {(left, pair, right)} does not have degree {degree}")
        checked[(left, (a, b), right)] = c
    out = {}
    for k, c in checked.items():
        c = space.field.coerce(c)
        if c:
            out[k] = c
    return BimodElement(space, degree, out)


def bimodule_mult(l: TensorElement, x: BimodElement, r: TensorElement) -> BimodElement:
    """Two-sided word multiplication, bilinear in all three slots."""
    if not (l.space == x.space == r.space):
        raise ValueError("elements live over different spaces")
    f = x.space.field
    out: dict = {}
    for wl, cl in l.terms.items():
        for (a, pair, b), cx in x.terms.items():
            cla = f.mul(cl, cx)
            for wr, cr in r.terms.items():
                key = (wl + a, pair, b + wr)
                v = f.mul(cla, cr)
                s = f.add(out[key], v) if key in out else v
                if s:
                    out[key] = s
                else:
                    del out[key]
    return BimodElement(x.space, l.degree + x.degree + r.degree, out)


def _add_wedge_term(out: dict, field: Field, left: Word, u: int, v: int,
                    right: Word, coeff) -> None:
    """Accumulate coeff * (left | u^v | right), canonicalizing the wedge."""
    if u == v:
        return
    if u < v:
        key = (left, (u, v), right)
    else:
        key = (left, (v, u), right)
        coeff = field.neg(coeff)
    s = field.add(out[key], coeff) if key in out else coeff
    if s:
        out[key] = s
    else:
        del out[key]


def commutator_transfer(space: Space, x: int, y: int, mid: Word,
                        z: int, t: int) -> BimodElement:
    """(xy - yx) (x) mid (x) z^t  -  x^y (x) mid (x) (zt - tz)."""
    mid = check_word(space, mid)
    f = space.field
    one, neg_one = f.one, f.neg(f.one)
    out: dict = {}
    _add_wedge_term(out, f, (x, y) + mid, z, t, (), one)
    _add_wedge_term(out, f, (y, x) + mid, z, t, (), neg_one)
    _add_wedge_term(out, f, (), x, y, mid + (z, t), neg_one)
    _add_wedge_term(out, f, (), x, y, mid + (t, z), one)
    return BimodElement(space, len(mid) + 4, out)


def jacobi_cycle(space: Space, x: int, y: int, z: int) -> BimodElement:
    """[x, y^z] + [y, z^x] + [z, x^y], the cyclic commutator sum."""
    f = space.field
    one, neg_one = f.one, f.neg(f.one)
    out: dict = {}
    for a, (b, c) in ((x, (y, z)), (y, (z, x)), (z, (x, y))):
        _add_wedge_term(out, f, (a,), b, c, (), one)
        _add_wedge_term(out, f, (), b, c, (a,), neg_one)
    return BimodElement(space, 3, out)


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
                yield BimodElement(space, n, terms)


def relation_generators(space: Space, n: int) -> list[BimodElement]:
    """A degree-n spanning set of the relation subbimodule.

    Cores are instantiated on ordered index tuples only: both families
    are multilinear and alternating in the relevant slots, so unordered
    or repeated instantiations are scalar multiples of ordered ones.
    """
    m = space.dim
    gens: list[BimodElement] = []
    if n >= 3:
        for x, y, z in combinations(range(1, m + 1), 3):
            core = jacobi_cycle(space, x, y, z)
            gens.extend(_two_sided_closure(space, core, n))
    for k in range(n - 3):
        for x, y in combinations(range(1, m + 1), 2):
            for z, t in combinations(range(1, m + 1), 2):
                for mid in all_words(m, k):
                    core = commutator_transfer(space, x, y, mid, z, t)
                    gens.extend(_two_sided_closure(space, core, n))
    return [g for g in gens if not g.is_zero()]


@dataclass(frozen=True, eq=False)
class QuotientContext:
    """Cached coordinates for one (space, degree): the canonical term
    enumeration and the sparse RREF of the relation span, with its
    pivot column -> row index for residues.

    `rel_rows` and `rel_basis` hold values as `linalg` computes them:
    over Q an integral value is an int and any other a `Fraction` (equal,
    and equal in hash, to the `Fraction` of the same value); `normal_form`
    converts back to field scalars."""

    space: Space
    degree: int
    terms: tuple[BimodTerm, ...]
    index: dict
    rel_rows: tuple[Row, ...]
    rel_pivots: tuple[int, ...]
    free_cols: tuple[int, ...]
    rel_basis: dict

    @property
    def ambient_dim(self) -> int:
        return len(self.terms)

    @property
    def rel_rank(self) -> int:
        return len(self.rel_pivots)

    @property
    def quotient_dim(self) -> int:
        return len(self.terms) - len(self.rel_pivots)


def build_context(space: Space, n: int, size_cap: int | None = None) -> QuotientContext:
    """Enumerate degree-n terms and row-reduce the relation span."""
    if n < 2:
        raise ValueError(f"degree must be >= 2, got {n}")
    amb = ambient_dim(space.dim, n)
    check_cap(amb, size_cap)
    terms = tuple(all_bimod_terms(space.dim, n))
    index = {t: i for i, t in enumerate(terms)}
    rows = [tuple(sorted((index[k], c) for k, c in g.terms.items()))
            for g in relation_generators(space, n)]
    rel_rows, pivots = echelon_rows(space.field, rows)
    pivot_set = set(pivots)
    free = tuple(c for c in range(amb) if c not in pivot_set)
    return QuotientContext(space, n, terms, index, tuple(rel_rows), tuple(pivots), free,
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


def normal_form(ctx: QuotientContext, x: BimodElement) -> tuple:
    """Canonical coordinates of the class of x: the residue of its
    coordinate vector against the relation row basis.  Zero iff x lies
    in the relation span; equal vectors iff equal classes.  Entries are
    field scalars (`Fraction` over Q), whatever `linalg` computed on."""
    field = ctx.space.field
    vec = [field.zero] * ctx.ambient_dim
    for c, v in residue_list(field, coords_of(ctx, x), ctx.rel_basis):
        vec[c] = field.normalize(v)
    return tuple(vec)


def expand_wedge(x: BimodElement) -> TensorElement:
    """Replace the wedge slot by a commutator: (l | a^b | r) becomes
    l.a.b.r - l.b.a.r in the tensor algebra.  Kills both relation
    families, so it is well defined on quotient classes."""
    f = x.space.field
    out: dict = {}
    for (left, (a, b), right), c in x.terms.items():
        for w, v in ((left + (a, b) + right, c), (left + (b, a) + right, f.neg(c))):
            s = f.add(out[w], v) if w in out else v
            if s:
                out[w] = s
            else:
                del out[w]
    return TensorElement(x.space, x.degree, out)


def wedge_at(a: TensorElement, i: int) -> BimodElement:
    """Replace the tensor sign between positions i and i+1 by a wedge,
    canonicalizing signs; words with a repeated letter there drop out."""
    n = a.degree
    if not 1 <= i <= n - 1:
        raise ValueError(f"position {i} out of range 1..{n - 1}")
    f = a.space.field
    out: dict = {}
    for w, c in a.terms.items():
        _add_wedge_term(out, f, w[:i - 1], w[i - 1], w[i], w[i + 1:], c)
    return BimodElement(a.space, n, out)


def cocycle(ctx: QuotientContext, t: perms.Perm, a: TensorElement,
            word: Sequence[int] | None = None) -> tuple:
    """Normal form of sum_k wedge_at(...applied swaps...), telescoping
    along a factorization of t into adjacent transpositions.

    The value does not depend on the factorization; `word` (first letter
    applied first) overrides the default bubble-sort word and may be
    non-reduced.  Expanding the result recovers a - t(a).
    """
    n = ctx.degree
    if a.degree != n:
        raise ValueError(f"element degree {a.degree} != context degree {n}")
    if len(t) != n:
        raise ValueError(f"permutation size {len(t)} != degree {n}")
    if word is None:
        word = perms.perm_word(t)
    else:
        word = tuple(word)
        if perms.compose_word(n, word) != t:
            raise ValueError(f"word {word} does not compose to {t}")
    acc = BimodElement(ctx.space, n, {})
    cur = a
    for i in word:
        acc = acc + wedge_at(cur, i)
        cur = perm_action(perms.adjacent_transposition(n, i), cur)
    return normal_form(ctx, acc)


def _expansion_rows(field: Field, word_index: dict, terms: Iterable[BimodTerm]) -> list[Row]:
    """Sparse tensor coordinates of the expansion of each basis term; a < b,
    so the word l.a.b.r precedes l.b.a.r."""
    one, neg_one = field.one, field.neg(field.one)
    return [((word_index[left + (a, b) + right], one),
             (word_index[left + (b, a) + right], neg_one))
            for left, (a, b), right in terms]


def verify_sequence(space: Space, n: int, size_cap: int | None = None) -> Certificate:
    """Certify degree-n exactness of quotient -> tensor -> symmetric:
    the expansion map is injective on the quotient, its image is exactly
    the kernel of symmetrization, and the dimensions agree."""
    start = time.perf_counter()
    m = space.dim
    field = space.field
    ctx = build_context(space, n, size_cap)
    t_dim = dim_tensor(m, n)
    s_dim = dim_sym(m, n)
    q_dim = ctx.quotient_dim
    word_index = {w: i for i, w in enumerate(all_words(m, n))}
    image_rows = _expansion_rows(field, word_index, ctx.terms)
    inj_rank = len(echelon_rows(field, [image_rows[c] for c in ctx.free_cols])[1])
    checks = (
        CheckResult(
            "injective_rank", inj_rank == q_dim,
            f"rank of expansion on quotient basis = {inj_rank}, quotient dim = {q_dim}"),
        image_equals_kernel(field, image_rows, symmetrize_matrix(space, n)),
        CheckResult(
            "dimension_identity", q_dim == t_dim - s_dim,
            f"quotient dim {q_dim}, tensor dim {t_dim}, symmetric dim {s_dim}"),
    )
    return certificate(
        "M->T->S", space, n,
        {"ambient": ctx.ambient_dim, "wm_rank": ctx.rel_rank, "m_dim": q_dim,
         "t_dim": t_dim, "s_dim": s_dim},
        checks, start)
