"""Certification of 0 -> M -> T -> S -> 0, the quotient bimodule sequence.

M is the graded bimodule of wedge-carrying tensors modulo its relations
(`bimodule`); a degree-n basis term is (left word, wedge pair, right
word) with the wedge pair strictly increasing.  The relations are the
two-sided word translates of two families of cores, built here as
integer {term: +-1} dicts, with no ring, field or `Space`:

  * commutator transfer: (uv - vu) (x) mid (x) z^t  -  u^v (x) mid (x) (zt - tz)
  * Jacobi cycle:        [u, v^w] + [v, w^u] + [w, u^v]

with u, v, w, z, t basis vectors and `mid` a basis word.  The
expansion E replaces the wedge by a commutator, l.(a^b).r |-> l.a.b.r -
l.b.a.r, and maps M to T; S is the symmetric quotient of T.  This
module needs no element class: `bimodule` translates the same integer
cores into the integer generators of its quotient, and a field enters M
only where an element does, in `bimodule.expand_wedge` and
`bimodule.normal_form`.

`verify_sequence` needs only the rank of the relation span R, and it
takes it from a leading-term witness instead of an elimination.  Order
the degree-n terms canonically, by (len(left), left, pair, right), as
`all_bimod_terms` lists them, and call a relation's smallest term its
leading term.  R is spanned by the two-sided word translates l.core.r
of every core of `_relation_cores`, by the word pairs (l, r) of
`_translates`, and `_relation_cores` flags the basis cores among them:

  * every Jacobi core J(x, y, z) with x < y < z, whose leading term is
    ((), x^y, (z));
  * the transfer cores T(x, y, mid, z, t) with x < y, z < t and
    y >= mid[0] >= ... >= mid[-1] >= z (y >= z when mid is empty),
    whose leading term is ((), x^y, mid.z.t).

The witness checks every core and translates only the basis cores.  The
argument has four steps:

  * translation preserves the order, because every term of a core has
    the same degree, so the leading term of l.core.r is l.lead(core).r.
    The witness forms these as tuples for the translates of the basis
    cores, with no translate built; `bimodule` builds the same
    translates as the generators of its quotient;
  * one generator per distinct leading term gives rows in echelon form,
    so k distinct leading terms give k <= rank R;
  * expansion commutes with two-sided multiplication, and translation by
    basis words is injective on tensors, so a translate expands to zero
    exactly when its core does.  R is defined by every core, so each
    core of the full family, basis core or not, is checked once.  Then
    R lies in the kernel of the expansion E, and
    rank R <= ambient - rank E, where `image_equals_kernel` returns
    rank E as words minus connected components;
  * so k = ambient - rank E proves rank R = k, and then R = ker E.  The
    basis translates have k distinct leading terms, so on a certified
    cell there are exactly k of them, and they are a basis of R.

The witness always closes: k = ambient - rank E on every cell, by a
lemma in the setting of Bergman's Diamond Lemma (Adv. Math. 29, 1978).
Call the wedge of a term (l, a^b, r) at the last ascent of its word
l.a.b.r when b >= r[0] >= r[1] >= ... .  Read any other term from its
wedge to the first ascent after a.b:

  * if it is b < r[0], the term is l.lead(J(a, b, r[0])).r[1:];
  * if it is r[j] < r[j+1] with j >= 0, the term is
    l.lead(T(a, b, r[:j], r[j], r[j+1])).r[j+2:], and
    b >= r[0] >= ... >= r[j] makes T a basis core.

Conversely, the leading term of a basis translate has its first ascent
after the wedge exactly there, so decoding by the first ascent gives
back the core and (l, r): the basis translates' leading terms are
pairwise distinct, and they are the terms that are not last-ascent
terms.  The last-ascent terms match the words that are not weakly
decreasing one to one (the wedge marks the word's last ascent).  Each
component of the adjacent-swap graph holds one weakly decreasing word,
so there are m^n - C(m+n-1, n) = rank E of them, and the basis
translates number k = ambient - rank E whenever the relation cores are
the real ones.  The certificate does not rely on the lemma: the count
is checked against the bound on every cell, and a cell whose count
falls short fails.

So R is the free T(V)-bimodule on the span C of the basis cores, and

  0 -> T (x) C (x) T -> T (x) Lambda^2 (x) T -> M -> 0

is a free resolution of M.  Its degree-n part C_n is a complement of
V.R_(n-1) + R_(n-1).V in R_n: the relations new in degree n.  With
H_M(t) = 1/(1 - mt) - 1/(1 - t)^m from 0 -> M -> T -> S -> 0, the
resolution gives H_M(t) = (C(m,2) t^2 - H_C(t)) / (1 - mt)^2, so

  H_C(t) = C(m,2) t^2 - (1 - mt) + (1 - mt)^2 / (1 - t)^m.

C_n != 0 for every n >= 4 once m >= 2: the transfer cores T(1, 2, mid,
1, 2) with mid weakly decreasing in {1, 2} alone number n - 3.  So R is
not finitely generated, and no bound on the length of `mid` suffices.

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
"""

from __future__ import annotations

import time
from itertools import chain, combinations
from itertools import product as _iproduct
from math import comb
from typing import Iterable, Iterator

from .bases import (Space, Word, all_words, collect, dim_sym, dim_tensor, edge_rows,
                    symmetrize_matrix)
from .certificates import Certificate, CheckResult, certificate, image_equals_kernel
from .errors import check_cap
from .fields import _ZZ, Field
from .linalg import Row

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


def _wedge_terms(items: Iterable[tuple]) -> Iterator[tuple]:
    """The canonical (term, coeff) pairs of coeff * (left | u^v | right)
    for each (left, u, v, right, coeff) in `items`, coeff an int: u^v
    with u > v becomes -(v^u), and u^u drops out."""
    for left, u, v, right, coeff in items:
        if u < v:
            yield (left, (u, v), right), coeff
        elif u > v:
            yield (left, (v, u), right), -coeff


def _transfer_core(x: int, y: int, mid: Word, z: int, t: int) -> dict:
    """(xy - yx) (x) mid (x) z^t  -  x^y (x) mid (x) (zt - tz), as {term: +-1}."""
    return collect(_ZZ, _wedge_terms((((x, y) + mid, z, t, (), 1),
                                      ((y, x) + mid, z, t, (), -1),
                                      ((), x, y, mid + (z, t), -1),
                                      ((), x, y, mid + (t, z), 1))))


def _jacobi_core(x: int, y: int, z: int) -> dict:
    """[x, y^z] + [y, z^x] + [z, x^y], the cyclic commutator sum, as {term: +-1}."""
    items = (item for a, (b, c) in ((x, (y, z)), (y, (z, x)), (z, (x, y)))
             for item in (((a,), b, c, (), 1), ((), b, c, (a,), -1)))
    return collect(_ZZ, _wedge_terms(items))


def _relation_cores(m: int, n: int) -> Iterator[tuple[dict, bool]]:
    """The relation cores of degree at most n whose two-sided translates
    span the degree-n relations: Jacobi cycles, then commutator
    transfers by middle length, each as ({term: +-1}, basis), over the
    letters 1..m.  They are integer data: a field enters only through an
    element built from them.  `basis` marks the basis cores, whose
    translates alone are a basis of the relations (module docstring):
    every Jacobi core, and the transfer cores T(x, y, mid, z, t) with
    y >= mid[0] >= ... >= mid[-1] >= z.

    Cores are instantiated on ordered index tuples only: both families
    are multilinear and alternating in the relevant slots, so unordered
    or repeated instantiations are scalar multiples of ordered ones.  No
    ordered core is zero: its terms are distinct.
    """
    letters = range(1, m + 1)
    jacobi = ((_jacobi_core(x, y, z), True) for x, y, z in combinations(letters, 3))
    transfers = ((_transfer_core(x, y, mid, z, t),
                  all(p >= q for p, q in zip((y,) + mid, mid + (z,))))
                 for k in range(n - 3)
                 for x, y in combinations(letters, 2)
                 for z, t in combinations(letters, 2)
                 for mid in all_words(m, k))
    return chain(jacobi if n >= 3 else (), transfers)


def _expand(field: Field, terms: dict) -> dict:
    """Tensor terms of the expansion of the bimodule `terms`: each
    (l | a^b | r) becomes l.a.b.r - l.b.a.r."""
    neg = field.neg
    return collect(field, (pair for (left, (a, b), right), c in terms.items()
                           for pair in ((left + (a, b) + right, c),
                                        (left + (b, a) + right, neg(c)))))


def _translates(m: int, n: int, d: int) -> Iterator[tuple[Word, Word]]:
    """The (left, right) word pairs over {1..m} that carry a degree-d
    core into degree n, (n - d + 1) * m^(n - d) of them: by left length,
    then left word, then right word."""
    return chain.from_iterable(_iproduct(all_words(m, p), all_words(m, n - d - p))
                               for p in range(n - d + 1))


def _term_order(term: BimodTerm) -> tuple:
    """Sort key of the canonical term order of `all_bimod_terms`."""
    left, pair, right = term
    return len(left), left, pair, right


def _leading_terms(m: int, n: int) -> tuple[set, str | None]:
    """The distinct leading terms of the degree-n relation generators
    over the letters 1..m, the translates of the basis cores, and the
    first fault among all the relation cores, or None: a leading
    coefficient that is not a unit of the integers (not +-1), or an
    expansion over the integers that is not zero.

    The leading term of l.core.r is l.lead(core).r, so the translates'
    leading terms are formed as tuples and no translate is built; every
    core, basis core or not, is checked once, up to the first fault (see
    the module docstring)."""
    leads: set = set()
    fault = None
    for core, basis in _relation_cores(m, n):
        lead = min(core, key=_term_order)
        if fault is None:
            if not _ZZ.is_unit(core[lead]):
                fault = (f"relation core led by {lead} has leading coefficient "
                         f"{core[lead]}, not +-1")
            elif _expand(_ZZ, core):
                fault = "relations do not expand to zero"
        if basis:
            a, pair, b = lead
            leads.update((left + a, pair, b + right)
                         for left, right in _translates(m, n, len(a) + 2 + len(b)))
    return leads, fault


def _expansion_rows(field: Field, word_index: dict, terms: Iterable[BimodTerm]) -> list[Row]:
    """Sparse tensor coordinates of the expansion of each basis term: the
    edge from the word l.a.b.r to l.b.a.r."""
    return edge_rows(field, ((word_index[left + (a, b) + right], word_index[left + (b, a) + right])
                             for left, (a, b), right in terms))


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
    the generators, the translates of the basis cores (module
    docstring): k <= rank R always, and once every core expands to
    zero, R lies in ker E, so rank R <= ambient - rank E.
    `injective_rank` passes when every core has leading coefficient +-1
    and expands to zero, and k = ambient - rank E; then R = ker E, and
    the quotient, of dimension ambient - k = rank E, maps injectively.
    It fails, naming the fault, when some core has another leading
    coefficient, so that its leading term might vanish in some F_p, or
    does not expand to zero, E not being well defined on the quotient,
    or when k falls short of the bound, which the module docstring
    proves cannot happen for the real relations.  No relation span is
    row-reduced.  `dimension_identity` also requires the projection to be
    onto: its rank, returned by `image_equals_kernel`, must equal both its
    column count and dim S.
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
    leads, fault = _leading_terms(m, n)
    word_index = {w: i for i, w in enumerate(all_words(m, n))}
    image_rows = _expansion_rows(_ZZ, word_index, all_bimod_terms(m, n))
    projection = symmetrize_matrix(Space(m, _ZZ), n)
    exact, inj_rank, proj_rank = image_equals_kernel(_ZZ, image_rows, projection)
    q_dim = ambient - len(leads)
    detail = f"rank of expansion on quotient basis = {inj_rank}, quotient dim = {q_dim}"
    onto = proj_rank == projection.ncols == s_dim
    dim_detail = f"quotient dim {q_dim}, tensor dim {t_dim}, symmetric dim {s_dim}"
    checks = (
        CheckResult(
            "injective_rank", fault is None and inj_rank == q_dim,
            detail if fault is None else f"{detail}, {fault}"),
        exact,
        CheckResult(
            "dimension_identity", onto and q_dim == t_dim - s_dim,
            dim_detail if onto else
            f"{dim_detail}, projection rank {proj_rank} of {projection.ncols} columns"),
    )
    return certificate(
        "M->T->S", space, n,
        {"ambient": ambient, "wm_rank": len(leads), "m_dim": q_dim,
         "t_dim": t_dim, "s_dim": s_dim},
        checks, start)
