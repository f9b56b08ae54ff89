"""Certification of 0 -> Lambda^{>=2} -> S' -> S -> 0, the orbit sequence.

S' is the tensor algebra modulo the cyclic three-letter shifts
xyz - yzx (`evensym`).  Its degree-n basis, in canonical order, is the
plain classes, one per weakly increasing word, then the twisted
classes, one per strictly increasing word of length at least 2.  The
maps are given here as matrices on those bases, so certifying the
sequence builds no element and loads none of the element modules:

* the wedge embedding sends a strictly increasing word to its plain
  class minus its twisted class (`wedge_embed_matrix`);
* the projection onto S forgets the flag (`to_sym_matrix`).
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import chain

from .bases import (Space, all_monomials, all_wedge_words, dim_sym, dim_wedge, edge_rows,
                    fibre_matrix)
from .certificates import Certificate, CheckResult, certificate, image_equals_kernel
from .errors import check_cap
from .linalg import Matrix


def dim_evensym(m: int, n: int) -> int:
    """Plain classes count weakly increasing words; twisted classes count
    strictly increasing words and need degree >= 2.

    >>> dim_evensym(3, 3), dim_evensym(2, 3), dim_evensym(3, 2)
    (11, 4, 9)
    """
    return dim_sym(m, n) + (dim_wedge(m, n) if n >= 2 else 0)


# cached: an S' cell needs it for both P and the embedding, and the cells
# of one (m, n) over different fields need the same one
@lru_cache(maxsize=32)
def _twisted_columns(m: int, n: int) -> tuple[int, ...]:
    """Monomial index of each strictly increasing word, in order: the
    column that twisted class s + k forgets its flag onto.  Outside
    2 <= n <= m there is no twisted class, and no monomial is built."""
    if not 2 <= n <= m:
        return ()
    mono_index = {w: j for j, w in enumerate(all_monomials(m, n))}
    return tuple(mono_index[w] for w in all_wedge_words(m, n))


def to_sym_matrix(space: Space, n: int) -> Matrix:
    """Rows = basis classes (canonical order), columns = monomials.

    Plain class i is monomial i; twisted class s + k forgets its flag
    onto the monomial of the k-th strictly increasing word."""
    s = dim_sym(space.dim, n)
    return fibre_matrix(space.field, chain(range(s), _twisted_columns(space.dim, n)), s)


def wedge_embed_matrix(space: Space, n: int) -> Matrix:
    """Rows = strictly increasing words, columns = basis classes: the
    k-th word maps to its plain class minus twisted class s + k, with s
    the number of plain classes."""
    if n < 2:
        raise ValueError("need degree >= 2")
    s = dim_sym(space.dim, n)
    rows = edge_rows(space.field, ((j, s + k)
                                   for k, j in enumerate(_twisted_columns(space.dim, n))))
    return Matrix(space.field, s + len(rows), tuple(rows))


def verify_sequence(space: Space, n: int, size_cap: int | None = None) -> Certificate:
    """Certify degree-n exactness of wedge -> quotient -> symmetric:
    the wedge embedding is injective, its image is exactly the kernel of
    the flag-forgetting projection, that projection is onto, and the
    dimensions add up.

    The embedding sends a strictly increasing word to its plain class
    minus its twisted class, one edge between the two classes, so
    `image_equals_kernel` certifies its image as the span of a graph's
    edges, with no elimination: the injective rank is classes minus
    connected components, and the surjective rank is the class count
    minus the size of the projection's kernel basis, which must equal
    both dim S and the projection's column count."""
    if n < 2:
        raise ValueError(f"degree must be >= 2, got {n}")
    start = time.perf_counter()
    m = space.dim
    q_dim = dim_evensym(m, n)
    check_cap(q_dim, size_cap, "basis size")
    lam_dim = dim_wedge(m, n)
    s_dim = dim_sym(m, n)
    emb = wedge_embed_matrix(space, n)
    sym_m = to_sym_matrix(space, n)
    exact, emb_rank, sym_rank = image_equals_kernel(space.field, emb.rows, sym_m)
    onto = sym_rank == sym_m.ncols == s_dim
    surj_detail = f"rank of projection = {sym_rank}, symmetric dim = {s_dim}"
    checks = (
        CheckResult(
            "injective_rank", emb_rank == lam_dim,
            f"rank of wedge embedding = {emb_rank}, wedge dim = {lam_dim}"),
        CheckResult(
            "surjective_rank", onto,
            surj_detail if onto else f"{surj_detail}, projection columns = {sym_m.ncols}"),
        exact,
        CheckResult(
            "dimension_identity", q_dim == s_dim + lam_dim,
            f"basis size {q_dim}, symmetric dim {s_dim}, wedge dim {lam_dim}"),
    )
    return certificate(
        "Lambda->S'->S", space, n,
        {"lambda_dim": lam_dim, "sprime_dim": q_dim, "s_dim": s_dim},
        checks, start)
