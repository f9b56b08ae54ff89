"""The degree-2 agreement certificate.

In degree 2 both quotient constructions collapse onto the classical
sequence 0 -> Lambda^2 -> T^2 -> S^2 -> 0: the bimodule M has no
relations, its expansion is the wedge embedding, and the orbit algebra
S' is the whole tensor square.  `verify_degree2_agreement` checks this
on the element algebra itself, so it loads every element module; no
grid certification loads this module.
"""

from __future__ import annotations

import time

from . import evensym, exterior, mseq, tensor
from .bases import Space, all_wedge_words, all_words, dim_sym, dim_wedge
from .certificates import Certificate, CheckResult, certificate
from .sprimeseq import dim_evensym


def verify_degree2_agreement(space: Space) -> Certificate:
    """Certify that in degree 2 both quotients collapse onto the
    classical sequence: the relation span is zero, the quotient is the
    wedge square, the expansion matrix literally equals the degree-2
    wedge embedding, and the orbit algebra is the full tensor square
    with matching maps."""
    start = time.perf_counter()
    m = space.dim
    field = space.field
    checks = []

    # the witness: every nonzero relation has a leading term, so none means R = 0
    rel_rank = len(mseq._leading_terms(space, 2)[0])
    terms = mseq.all_bimod_terms(m, 2)
    lam2 = dim_wedge(m, 2)
    checks.append(CheckResult(
        "relation_rank_zero", rel_rank == 0,
        f"degree-2 relation rank {rel_rank}"))
    checks.append(CheckResult(
        "quotient_is_wedge_square", len(terms) - rel_rank == lam2,
        f"quotient dim {len(terms) - rel_rank}, wedge dim {lam2}"))

    word_index = {w: i for i, w in enumerate(all_words(m, 2))}
    expansion_rows = tuple(mseq._expansion_rows(field, word_index, terms))
    wedge_rows = exterior.wedge_to_tensor_matrix(space).rows
    checks.append(CheckResult(
        "expansion_matrix_matches_wedge", expansion_rows == wedge_rows,
        f"{len(expansion_rows)} rows compared entrywise"))

    t2 = m * m
    checks.append(CheckResult(
        "orbit_degree2_is_tensor_square", dim_evensym(m, 2) == t2,
        f"orbit basis size {dim_evensym(m, 2)}, tensor dim {t2}"))

    # Identify each length-2 word with its orbit class and compare maps.
    maps_ok = True
    for w in all_words(m, 2):
        word_sym = tensor.symmetrize(tensor.word_element(space, w))
        orbit_sym = evensym.to_sym(evensym.from_word(space, w))
        if word_sym != orbit_sym:
            maps_ok = False
            break
    if maps_ok:
        for pair in all_wedge_words(m, 2):
            ext = exterior.ExtElement(space, 2, {pair: 1})
            via_tensor = exterior.wedge_to_tensor(ext)
            transported = evensym.EvenSymElement(space, 2, {})
            for w, c in via_tensor.terms.items():
                transported = transported + evensym.from_word(space, w, c)
            if transported != evensym.wedge_embed(ext):
                maps_ok = False
                break
    checks.append(CheckResult(
        "orbit_maps_match_degree2", maps_ok,
        "projection and embedding agree under the word/class identification"))

    return certificate(
        "degree2", space, 2,
        {"lambda_dim": lam2, "t_dim": t2, "s_dim": dim_sym(m, 2)},
        checks, start)
