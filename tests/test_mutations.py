"""Fail closed against wrong maps: each row of a table corrupts one map
builder or witness of a certifier and says where the fault is caught,
either by the checks that must then fail on every cell of that
sequence's list (and, where given, what their details say), or by a
named Tier-1 test."""

import re

import pytest

from tensorseq import mseq, sprimeseq
from tensorseq.bases import Space
from tensorseq.fields import GF, QQ
from tensorseq.linalg import Matrix

import test_evensym

M_CELLS = [(2, 4, QQ), (3, 4, QQ), (3, 5, GF(3))]
SPRIME_CELLS = [(3, 3, QQ), (4, 4, QQ), (5, 4, GF(3))]


def _wider(p):
    """One more target column, which no row hits: P is no longer onto."""
    return Matrix(p.field, p.ncols + 1, p.rows)


def _merged(p):
    """The fibre of the second target column joined to the first one's."""
    first, second = ((0, p.field.one),), ((1, p.field.one),)
    return Matrix(p.field, p.ncols, tuple(first if row == second else row for row in p.rows))


def _second_word_in_a_fresh_column(p):
    """The word (1, ..., 1, 2), second in lex order, sent to a new target
    column of its own, split off from its fibre."""
    rows = list(p.rows)
    rows[1] = ((p.ncols, p.field.one),)
    return Matrix(p.field, p.ncols + 1, tuple(rows))


def _without_last_row(e):
    return Matrix(e.field, e.ncols, e.rows[:-1])


def _edge_between_plain_classes(e):
    """The first wedge row e_j - e_(s+k) re-aimed at e_j - e_(j+1), two
    plain classes (the first strictly increasing word is never the last
    weakly increasing one)."""
    (j, a), (_, b) = e.rows[0]
    return Matrix(e.field, e.ncols, (((j, a), (j + 1, b)),) + e.rows[1:])


def _first_core(change):
    """A corruption of the relation cores that replaces the first
    (core, basis) pair by `change(core, basis)`.  On every M cell the
    first core, J(1, 2, 3) or T(1, 2, (), 1, 2), is a basis core."""
    def corrupt(cores):
        (core, basis), *rest = cores
        assert basis
        return iter([change(core, basis), *rest])
    return corrupt


def _non_leading_doubled(core, basis):
    """The core's last term, in the canonical order, doubled: the leading
    term and its coefficient stay, but the expansion is no longer 0."""
    last = max(core, key=mseq._term_order)
    return {**core, last: 2 * core[last]}, basis


MUTATIONS = [
    # (name, module, builder, corruption, cells, checks that must fail,
    #  {failing check: pattern its detail must match})
    ("M projection not onto", mseq, "symmetrize_matrix", _wider, M_CELLS,
     {"dimension_identity"}, {}),
    ("M two fibres merged", mseq, "symmetrize_matrix", _merged, M_CELLS,
     {"image_equals_kernel", "dimension_identity"}, {}),
    ("M word split off its fibre", mseq, "symmetrize_matrix", _second_word_in_a_fresh_column,
     M_CELLS, {"image_equals_kernel", "dimension_identity"}, {}),
    ("M expansion edge dropped", mseq, "_expansion_rows", lambda rows: rows[:-1], M_CELLS,
     {"injective_rank", "image_equals_kernel"}, {}),
    # The witness (`mseq._leading_terms`) reads the cores of `_relation_cores`.
    ("M witness: first basis core unflagged", mseq, "_relation_cores",
     _first_core(lambda core, basis: (core, False)), M_CELLS,
     {"injective_rank", "dimension_identity"}, {}),
    ("M witness: first core scaled by 2", mseq, "_relation_cores",
     _first_core(lambda core, basis: ({k: 2 * c for k, c in core.items()}, basis)), M_CELLS,
     {"injective_rank"}, {"injective_rank": r", relation core led by .* has leading "
                                            r"coefficient -2, not \+-1$"}),
    ("M witness: non-leading term doubled", mseq, "_relation_cores",
     _first_core(_non_leading_doubled), M_CELLS,
     {"injective_rank"}, {"injective_rank": r", relations do not expand to zero$"}),
    ("S' projection not onto", sprimeseq, "to_sym_matrix", _wider, SPRIME_CELLS,
     {"surjective_rank"}, {}),
    ("S' wedge row dropped", sprimeseq, "wedge_embed_matrix", _without_last_row,
     SPRIME_CELLS, {"injective_rank", "image_equals_kernel"}, {}),
    ("S' wedge edge between plain classes", sprimeseq, "wedge_embed_matrix",
     _edge_between_plain_classes, SPRIME_CELLS, {"image_equals_kernel"}, {}),
]


@pytest.mark.parametrize("name,module,builder,corrupt,cells,failing,details", MUTATIONS,
                         ids=[row[0] for row in MUTATIONS])
def test_a_corrupted_map_fails_its_cells(monkeypatch, name, module, builder, corrupt,
                                         cells, failing, details):
    real = getattr(module, builder)
    monkeypatch.setattr(module, builder, lambda *args: corrupt(real(*args)))
    for m, n, field in cells:
        cert = module.verify_sequence(Space(m, field), n)
        assert not cert.passed and cert.error is None
        assert {c.name for c in cert.checks if not c.passed} == failing, (m, n, field)
        for c in cert.checks:
            if c.name in details:
                assert re.search(details[c.name], c.detail), (m, n, field, c.detail)


def test_a_witness_that_flags_every_core_as_basis_still_passes(monkeypatch):
    """The witness counts distinct leading terms, a lower bound on rank R,
    so translating extra cores adds no new leading term (the `mseq`
    lemma) and every M cell still passes."""
    real = mseq._relation_cores
    flipped = []

    def all_basis(*args):
        for core, basis in real(*args):
            flipped.append(not basis)
            yield core, True

    monkeypatch.setattr(mseq, "_relation_cores", all_basis)
    for m, n, field in M_CELLS:
        assert mseq.verify_sequence(Space(m, field), n).passed, (m, n, field)
    assert any(flipped)


def _two_twisted_classes_on_one_monomial(cols):
    return cols[:1] * 2 + cols[2:] if len(cols) >= 2 else cols


TIER1_CAUGHT = [
    # (name, module, builder, corruption, the test that must fail and its arguments).
    # Both S' matrices read `_twisted_columns`, so the corrupted sequence is
    # still exact and only a comparison with the element-level maps sees it.
    ("S' two twisted classes on one monomial", sprimeseq, "_twisted_columns",
     _two_twisted_classes_on_one_monomial,
     test_evensym.test_projection_and_embedding_matrices_match_the_maps, (QQ,)),
]


@pytest.mark.parametrize("name,module,builder,corrupt,test,args", TIER1_CAUGHT,
                         ids=[row[0] for row in TIER1_CAUGHT])
def test_a_corrupted_map_fails_its_named_test(monkeypatch, name, module, builder, corrupt,
                                              test, args):
    real = getattr(module, builder)
    test(*args)
    monkeypatch.setattr(module, builder, lambda *a: corrupt(real(*a)))
    with pytest.raises(AssertionError):
        test(*args)
