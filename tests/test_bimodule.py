import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorseq import bimodule, certify, linalg, mseq, perms, tensor
from tensorseq.bases import collect
from tensorseq.errors import SizeCapError
from tensorseq.fields import _ZZ, GF, QQ

from conftest import CORES, apply_to_positions, bimodule_mult, contained


def test_ambient_dim():
    assert bimodule.ambient_dim(2, 3) == 4
    assert bimodule.ambient_dim(3, 3) == 18
    assert bimodule.ambient_dim(2, 2) == 1
    assert bimodule.ambient_dim(3, 1) == 0 and bimodule.ambient_dim(3, 0) == 0
    for m, n in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 3)]:
        assert len(bimodule.all_bimod_terms(m, n)) == bimodule.ambient_dim(m, n)


def test_bimod_element_validation():
    sp = tensor.Space(3, QQ)
    with pytest.raises(ValueError):
        bimodule.BimodElement(sp, 3, {((1,), (2, 1), ()): 1})
    with pytest.raises(ValueError):
        bimodule.BimodElement(sp, 3, {((1,), (1, 4), ()): 1})
    with pytest.raises(ValueError):
        bimodule.BimodElement(sp, 4, {((1,), (1, 2), ()): 1})


def test_bimodule_mult_examples():
    sp = tensor.Space(2, QQ)
    x = bimodule.BimodElement(sp, 2, {((), (1, 2), ()): 1})
    one = tensor.word_element(sp, ())
    assert bimodule_mult(one, x, one) == x
    v1 = tensor.word_element(sp, (1,))
    v2 = tensor.word_element(sp, (2,))
    prod = bimodule_mult(v1, x, v2)
    assert prod.terms == {((1,), (1, 2), (2,)): Fraction(1)}
    lin = bimodule_mult(v1 + v2, x, one)
    assert lin.terms == {((1,), (1, 2), ()): Fraction(1), ((2,), (1, 2), ()): Fraction(1)}


def test_generators_expand_to_zero_all_instantiations():
    """Both relation families land in the kernel of the expansion, for
    every basis instantiation including repeated letters."""
    for field in (QQ, GF(2), GF(3)):
        sp = tensor.Space(3, field)
        for x, y, z in product(range(1, 4), repeat=3):
            jacobi = bimodule.BimodElement(sp, 3, mseq._jacobi_core(field, x, y, z))
            assert bimodule.expand_wedge(jacobi).is_zero()
        for x, y, z, t in product(range(1, 4), repeat=4):
            for mid in [(), (2,), (1, 3)]:
                g = bimodule.BimodElement(sp, len(mid) + 4,
                                          mseq._transfer_core(field, x, y, mid, z, t))
                assert bimodule.expand_wedge(g).is_zero()


def _full_relation_translates(space, n):
    """Naive spanning family: the degree-n translates, as {term: coeff},
    of the cores over all index tuples, not just the ordered ones the
    library enumerates."""
    m = space.dim
    cores = []
    if n >= 3:
        cores += [bimodule.BimodElement(space, 3, mseq._jacobi_core(space.field, x, y, z))
                  for x, y, z in product(range(1, m + 1), repeat=3)]
    for k in range(n - 3):
        for x, y, z, t in product(range(1, m + 1), repeat=4):
            for mid in tensor.all_words(m, k):
                cores.append(bimodule.BimodElement(
                    space, len(mid) + 4, mseq._transfer_core(space.field, x, y, mid, z, t)))
    for core in cores:
        if not core.is_zero():
            yield from (g.terms for g in bimodule._two_sided_closure(space, core.terms, n))


def _index_rows(index, translates):
    """Sparse rows, sorted by column, of {term: coeff} dicts."""
    return [tuple(sorted((index[key], c) for key, c in g.items())) for g in translates]


def _full_relation_rows(space, n):
    index = {term: i for i, term in enumerate(bimodule.all_bimod_terms(space.dim, n))}
    return _index_rows(index, _full_relation_translates(space, n))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
@pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (2, 4), (3, 4), (2, 5), (3, 5), (4, 4)])
def test_reduced_generators_span_the_full_family(m, n, field):
    """Oracle for the basis-core enumeration: its span equals the span
    of all basis instantiations, also in characteristic 2 where signs
    degenerate, and its generators are independent."""
    sp = tensor.Space(m, field)
    ctx = bimodule.build_context(sp, n)
    full, piv = linalg.echelon_rows(field, _full_relation_rows(sp, n))
    assert len(full) == ctx.rel_rank
    assert len(bimodule.relation_generators(sp, n)) == ctx.rel_rank
    assert contained(field, full, piv, ctx.rel_rows)
    assert contained(field, ctx.rel_rows, ctx.rel_pivots, full)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
@pytest.mark.parametrize("m,n", [(3, 3), (2, 5), (3, 5), (4, 4), (3, 6)])
def test_bottom_up_order_keeps_the_relation_rref(m, n, field):
    """`build_context` reorders the generator rows before eliminating;
    the RREF, its pivots and the value types over Q must be those of the
    generators in enumeration order."""
    sp = tensor.Space(m, field)
    ctx = bimodule.build_context(sp, n)
    index = {t: i for i, t in enumerate(bimodule.all_bimod_terms(m, n))}
    rows = [tuple(sorted((index[k], c) for k, c in g.terms.items()))
            for g in bimodule.relation_generators(sp, n)]
    rel_rows, pivots = linalg.echelon_rows(field, rows)
    assert ctx.rel_pivots == tuple(pivots)
    assert repr(ctx.rel_rows) == repr(tuple(rel_rows))
    assert ctx.rel_basis == dict(zip(pivots, rel_rows))


def test_context_ranks_and_dims(ctx_cache):
    assert ctx_cache(2, 3).rel_rank == 0
    assert ctx_cache(3, 3).rel_rank == 1
    assert ctx_cache(3, 3).quotient_dim == 17 == 27 - 10
    c22 = ctx_cache(2, 2)
    assert c22.rel_rank == 0 and c22.quotient_dim == 1


def test_build_context_rejects_low_degree_and_cap():
    sp = tensor.Space(3, QQ)
    with pytest.raises(ValueError):
        bimodule.build_context(sp, 1)
    with pytest.raises(SizeCapError):
        bimodule.build_context(sp, 4, size_cap=10)


def test_normal_form_examples(ctx_cache):
    c33 = ctx_cache(3, 3)
    sp3 = c33.space
    for g in bimodule.relation_generators(sp3, 3):
        assert not any(bimodule.normal_form(c33, g))
    jacobi = bimodule.BimodElement(sp3, 3, mseq._jacobi_core(sp3.field, 1, 2, 3))
    assert not any(bimodule.normal_form(c33, jacobi))
    c23 = ctx_cache(2, 3)
    single = bimodule.BimodElement(c23.space, 3, {((1,), (1, 2), ()): 1})
    vec = bimodule.normal_form(c23, single)
    assert bimodule.element_of(c23, vec) == single


def test_normal_form_degree_mismatch(ctx_cache):
    c23 = ctx_cache(2, 3)
    wrong = bimodule.BimodElement(c23.space, 2, {((), (1, 2), ()): 1})
    with pytest.raises(ValueError):
        bimodule.normal_form(c23, wrong)


def test_normal_form_refuses_an_element_over_another_field(ctx_cache):
    c23 = ctx_cache(2, 3)
    other = bimodule.BimodElement(tensor.Space(2, GF(3)), 3, {((1,), (1, 2), ()): 1})
    with pytest.raises(ValueError, match="^element does not match the context$"):
        bimodule.normal_form(c23, other)


def test_element_of_and_cocycle_refuse_the_wrong_shape(ctx_cache):
    ctx = ctx_cache(2, 3)
    for size in (ctx.ambient_dim - 1, ctx.ambient_dim + 1):
        with pytest.raises(ValueError, match="^coordinate vector has the wrong length$"):
            bimodule.element_of(ctx, (0,) * size)
    with pytest.raises(ValueError, match="^element degree 2 != context degree 3$"):
        bimodule.cocycle(ctx, (2, 1), tensor.word_element(ctx.space, (1, 2)))


def test_normal_form_separates_classes(ctx_cache):
    """Equal residues exactly when the difference lies in the span."""
    ctx = ctx_cache(3, 3)
    sp = ctx.space
    x = bimodule.BimodElement(sp, 3, {((1,), (2, 3), ()): 1})
    jac = bimodule.BimodElement(sp, 3, mseq._jacobi_core(sp.field, 1, 2, 3))
    assert bimodule.normal_form(ctx, x) == bimodule.normal_form(ctx, x + jac)
    y = bimodule.BimodElement(sp, 3, {((2,), (1, 3), ()): 1})
    assert bimodule.normal_form(ctx, x) != bimodule.normal_form(ctx, y)


def test_expand_wedge_example():
    sp = tensor.Space(2, QQ)
    x = bimodule.BimodElement(sp, 2, {((), (1, 2), ()): 1})
    assert bimodule.expand_wedge(x).terms == {(1, 2): Fraction(1), (2, 1): Fraction(-1)}


def test_wedge_at_examples():
    sp = tensor.Space(3, QQ)
    f1 = bimodule.wedge_at(tensor.word_element(sp, (1, 2, 3)), 1)
    assert f1.terms == {((), (1, 2), (3,)): Fraction(1)}
    assert bimodule.wedge_at(tensor.word_element(sp, (1, 1, 2)), 1).is_zero()
    f2 = bimodule.wedge_at(tensor.word_element(sp, (1, 3, 2)), 2)
    assert f2.terms == {((1,), (2, 3), ()): Fraction(-1)}
    with pytest.raises(ValueError):
        bimodule.wedge_at(tensor.word_element(sp, (1, 2, 3)), 3)
    with pytest.raises(ValueError):
        bimodule.wedge_at(tensor.word_element(sp, (1, 2, 3)), 0)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (3, 4), (2, 4)])
def test_expansion_of_wedge_at_is_difference(m, n):
    """Exhaustive: expanding wedge_at(w, i) gives w - (swap at i)(w)."""
    for field in (QQ, GF(2)):
        sp = tensor.Space(m, field)
        for w in tensor.all_words(m, n):
            e = tensor.word_element(sp, w)
            for i in range(1, n):
                lhs = bimodule.expand_wedge(bimodule.wedge_at(e, i))
                rhs = e - tensor.perm_action(perms.adjacent_transposition(n, i), e)
                assert lhs == rhs


def test_telescoping_sum():
    """Random transposition words: expanding the accumulated wedge
    insertions recovers 1 - (composed permutation) on every basis word."""
    rng = random.Random(17)
    for m, n in [(2, 3), (3, 3), (2, 4), (3, 4)]:
        sp = tensor.Space(m, QQ)
        for _ in range(20):
            word = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 6)))
            composed = perms.compose_word(n, word)
            for w in tensor.all_words(m, n):
                a = tensor.word_element(sp, w)
                acc = bimodule.BimodElement(sp, n, {})
                cur = a
                for i in word:
                    acc = acc + bimodule.wedge_at(cur, i)
                    cur = tensor.perm_action(perms.adjacent_transposition(n, i), cur)
                assert bimodule.expand_wedge(acc) == a - tensor.perm_action(composed, a)


def test_cocycle_identity_and_special_values(ctx_cache):
    ctx = ctx_cache(2, 4)
    sp = ctx.space
    a = tensor.word_element(sp, (1, 2, 2, 1))
    assert not any(bimodule.cocycle(ctx, perms.identity_perm(4), a))
    t1 = perms.adjacent_transposition(4, 1)
    assert bimodule.cocycle(ctx, t1, a) == \
        bimodule.normal_form(ctx, bimodule.wedge_at(a, 1))


def test_cocycle_braid_words(ctx_cache):
    ctx = ctx_cache(3, 3)
    sp = ctx.space
    t = perms.compose_word(3, (1, 2, 1))
    assert t == perms.compose_word(3, (2, 1, 2))
    for w in tensor.all_words(3, 3):
        a = tensor.word_element(sp, w)
        assert bimodule.cocycle(ctx, t, a, word=(1, 2, 1)) == \
            bimodule.cocycle(ctx, t, a, word=(2, 1, 2))


def test_cocycle_factorization_independent(ctx_cache):
    rng = random.Random(23)
    ctx = ctx_cache(3, 4)
    sp = ctx.space
    for _ in range(40):
        t = tuple(rng.sample(range(1, 5), 4))
        w = tuple(rng.randint(1, 3) for _ in range(4))
        a = tensor.word_element(sp, w)
        base = bimodule.cocycle(ctx, t, a)
        assert bimodule.cocycle(ctx, t, a, word=perms.perm_word_alt(t)) == base
        padded = perms.perm_word(t) + (2, 2)
        assert bimodule.cocycle(ctx, t, a, word=padded) == base


def test_cocycle_mid_word_square_insertion(ctx_cache):
    """A repeated-swap pair inserted anywhere in the factorization, not
    just appended, leaves the value unchanged."""
    rng = random.Random(99)
    ctx = ctx_cache(3, 4)
    sp = ctx.space
    for _ in range(30):
        t = tuple(rng.sample(range(1, 5), 4))
        w = tuple(rng.randint(1, 3) for _ in range(4))
        a = tensor.word_element(sp, w)
        base = bimodule.cocycle(ctx, t, a)
        word = perms.perm_word(t)
        k = rng.randint(0, len(word))
        i = rng.randint(1, 3)
        padded = word[:k] + (i, i) + word[k:]
        assert bimodule.cocycle(ctx, t, a, word=padded) == base


def test_verify_sequence_empty_space():
    cert = bimodule.verify_sequence(tensor.Space(0, QQ), 3)
    assert cert.passed
    assert cert.dims == {"ambient": 0, "wm_rank": 0, "m_dim": 0, "t_dim": 0, "s_dim": 0}


def test_cocycle_rejects_wrong_word(ctx_cache):
    ctx = ctx_cache(2, 3)
    a = tensor.word_element(ctx.space, (1, 2, 1))
    with pytest.raises(ValueError):
        bimodule.cocycle(ctx, perms.identity_perm(3), a, word=(1,))
    with pytest.raises(ValueError):
        bimodule.cocycle(ctx, perms.identity_perm(2), a)


def test_cocycle_rejects_non_permutations(ctx_cache):
    ctx = ctx_cache(2, 3)
    a = tensor.word_element(ctx.space, (1, 2, 1))
    for t in [(1, 1, 3), (3, 3, 1), (0, 1, 2), (1, 2, 4)]:
        with pytest.raises(ValueError, match="not a permutation"):
            bimodule.cocycle(ctx, t, a)


def test_cocycle_sum_rule(ctx_cache):
    """cocycle(s . t) = cocycle(t) + cocycle(s) after acting by t."""
    rng = random.Random(29)
    for m, n in [(2, 3), (3, 4)]:
        ctx = ctx_cache(m, n)
        sp = ctx.space
        add = sp.field.add
        for _ in range(60):
            s = tuple(rng.sample(range(1, n + 1), n))
            t = tuple(rng.sample(range(1, n + 1), n))
            w = tuple(rng.randint(1, m) for _ in range(n))
            a = tensor.word_element(sp, w)
            lhs = bimodule.cocycle(ctx, perms.compose(s, t), a)
            h_t = bimodule.cocycle(ctx, t, a)
            h_s = bimodule.cocycle(ctx, s, tensor.perm_action(t, a))
            assert lhs == tuple(add(x, y) for x, y in zip(h_t, h_s))


def test_cocycle_expansion_rule(ctx_cache):
    """Expanding a cocycle value recovers a - t(a)."""
    rng = random.Random(31)
    for m, n in [(2, 3), (3, 4)]:
        ctx = ctx_cache(m, n)
        sp = ctx.space
        for _ in range(40):
            t = tuple(rng.sample(range(1, n + 1), n))
            w = tuple(rng.randint(1, m) for _ in range(n))
            a = tensor.word_element(sp, w)
            vec = bimodule.cocycle(ctx, t, a)
            expanded = bimodule.expand_wedge(bimodule.element_of(ctx, vec))
            assert expanded == a - tensor.perm_action(t, a)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 2)])
def test_verify_sequence_small_cells(m, n, fields_qf23):
    for field in fields_qf23:
        cert = bimodule.verify_sequence(tensor.Space(m, field), n)
        assert cert.passed, cert.to_json_dict()
        assert cert.dims["m_dim"] == tensor.dim_tensor(m, n) - tensor.dim_sym(m, n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_verify_sequence_degenerate_line(n):
    """m=1: no wedge pairs at all, so the quotient is zero and the
    projection onto the symmetric part is an isomorphism."""
    cert = bimodule.verify_sequence(tensor.Space(1, QQ), n)
    assert cert.passed
    assert cert.dims["ambient"] == 0 and cert.dims["m_dim"] == 0
    assert cert.dims["t_dim"] == cert.dims["s_dim"] == 1


@pytest.mark.parametrize("m", range(5))
def test_term_enumeration_and_sort_key_agree(m):
    """The witness lemma (`mseq` docstring) reads a core's leading term by
    `_term_order` as its smallest column in the `all_bimod_terms` order,
    so the two spellings of the canonical order must agree."""
    for n in range(7):
        terms = mseq.all_bimod_terms(m, n)
        assert terms == sorted(terms, key=mseq._term_order)


@pytest.mark.parametrize("m", range(5))
def test_translates_are_every_word_pair_of_the_missing_degree(m):
    """`_translates(m, n, d)` gives each (left, right) pair of total
    length n - d once, by left length, then left word, then right word."""
    letters = set(range(1, m + 1))
    for n in range(7):
        for d in range(2, n + 1):
            pairs = list(mseq._translates(m, n, d))
            assert len(set(pairs)) == len(pairs) == (n - d + 1) * m ** (n - d)
            assert all(len(left) + len(right) == n - d and set(left + right) <= letters
                       for left, right in pairs)
            assert pairs == sorted(pairs, key=lambda pair: (len(pair[0]), pair))


def test_all_bimod_terms_draws_no_word_without_a_wedge_pair(monkeypatch):
    """m = 1 has no wedge pair, so no degree has a term, and no word may
    be drawn: its ambient dimension is 0, so no size cap bounds the work."""
    real = mseq.all_words
    drawn = []

    def counted(m, n):
        for w in real(m, n):
            drawn.append(n)
            yield w

    monkeypatch.setattr(mseq, "all_words", counted)
    assert mseq.all_bimod_terms(1, 2000) == []
    assert drawn == []


def test_verify_sequence_cap_propagates():
    with pytest.raises(SizeCapError):
        bimodule.verify_sequence(tensor.Space(3, QQ), 5, size_cap=100)


def test_certificate_json_shape():
    cert = bimodule.verify_sequence(tensor.Space(2, QQ), 3)
    doc = cert.to_json_dict()
    assert doc["sequence"] == "M->T->S"
    assert set(doc["dims"]) == {"ambient", "wm_rank", "m_dim", "t_dim", "s_dim"}
    assert {c["name"] for c in doc["checks"]} == \
        {"injective_rank", "image_equals_kernel", "dimension_identity"}
    assert doc["pass"] is True


def test_relation_generators_deterministic():
    sp = tensor.Space(3, QQ)
    a = [g.terms for g in bimodule.relation_generators(sp, 4)]
    b = [g.terms for g in bimodule.relation_generators(sp, 4)]
    assert a == b


def test_normal_form_over_q_returns_fractions(ctx_cache):
    """linalg computes on ints over Q; the public normal form still hands
    out field scalars, including for non-integral coefficients."""
    ctx = ctx_cache(3, 4)
    space = ctx.space
    rng = random.Random(5)
    for _ in range(10):
        terms = {ctx.terms[rng.randrange(ctx.ambient_dim)]: Fraction(rng.randint(-3, 3),
                                                                      rng.randint(1, 3))
                 for _ in range(4)}
        nf = bimodule.normal_form(ctx, bimodule.BimodElement(space, 4, terms))
        assert all(type(x) is Fraction for x in nf)
    word = tensor.word_element(space, (1, 2, 3, 1))
    value = bimodule.cocycle(ctx, (2, 3, 4, 1), word)
    assert any(value) and all(type(x) is Fraction for x in value)


@pytest.mark.parametrize("scale", [1, Fraction(-2, 3)])
def test_normal_form_answers_share_their_nonzero_scalars(ctx_cache, scale):
    """A caller that keeps answers keeps one scalar object per value, not
    one per nonzero entry."""
    ctx = ctx_cache(3, 4)
    answers = [bimodule.cocycle(ctx, t, tensor.word_element(ctx.space, w).scale(scale))
               for t, w in [((2, 3, 4, 1), (1, 2, 3, 1)), ((4, 3, 2, 1), (1, 2, 3, 3)),
                            ((2, 1, 4, 3), (3, 1, 2, 2))]]
    nonzero = [x for h in answers for x in h if x]
    assert len(nonzero) > len(set(nonzero))
    first = {}
    assert all(first.setdefault(x, x) is x for x in nonzero)
    assert all(type(x) is Fraction for x in nonzero)


@pytest.mark.parametrize("family,m,n", [
    ("jacobi_cycle", 3, 3), ("jacobi_cycle", 4, 3), ("jacobi_cycle", 3, 4),
    ("commutator_transfer", 2, 4), ("commutator_transfer", 2, 5),
    ("commutator_transfer", 3, 4)])
@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_sign_broken_relations_fail_injective_rank(break_sign, family, m, n, field):
    """The broken family spans a space of the same rank, so every dimension
    still matches and the image is still the kernel; only the check that
    each relation expands to zero sees that the expansion is not well
    defined on the quotient."""
    break_sign(family)
    cert = bimodule.verify_sequence(tensor.Space(m, field), n)
    checks = {c.name: c for c in cert.checks}
    assert not checks["injective_rank"].passed and not cert.passed
    assert checks["injective_rank"].detail.endswith(", relations do not expand to zero")
    assert checks["image_equals_kernel"].passed and checks["dimension_identity"].passed
    assert cert.dims["m_dim"] == cert.dims["t_dim"] - cert.dims["s_dim"]


@pytest.mark.parametrize("family,m,n", [("jacobi_cycle", 3, 3), ("commutator_transfer", 2, 4)])
def test_leading_coefficient_two_fails_injective_rank(monkeypatch, family, m, n):
    """A family scaled by 2 still expands to zero and keeps its leading
    terms, so only its leading coefficient shows that over F2 it would
    vanish.  The integer pass checks that coefficient: every field's
    copy of the cell fails `injective_rank`, and the detail names the
    core by its leading term."""
    real = getattr(mseq, CORES[family])
    monkeypatch.setattr(mseq, CORES[family],
                        lambda field, *args: {k: 2 * c for k, c in real(field, *args).items()})
    certs = certify.run_grid(certify.CheckGrid((m,), (n,), (QQ, GF(2), GF(3))), "m")
    assert len(certs) == 3
    for cert in certs:
        checks = {c.name: c for c in cert.checks}
        assert not checks["injective_rank"].passed and not cert.passed
        assert re.search(r", relation core led by \(\(\), \(1, 2\), \(.*\)\) "
                         r"has leading coefficient -2, not \+-1$",
                         checks["injective_rank"].detail)
        assert checks["image_equals_kernel"].passed and checks["dimension_identity"].passed


def test_tensor_dimension_cap_refuses_before_building(monkeypatch):
    """At (200, 2) the ambient dimension, 19,900, is under the default
    cap, but the projection would have 40,000 rows: the cell is refused
    before any word is drawn."""
    def no_words(*args):
        raise AssertionError("a word was drawn")

    monkeypatch.setattr(mseq, "all_words", no_words)
    monkeypatch.setattr(mseq, "symmetrize_matrix", no_words)
    assert mseq.ambient_dim(200, 2) == 19_900
    with pytest.raises(SizeCapError, match="tensor dimension 40000 exceeds size cap 20000"):
        mseq.verify_sequence(tensor.Space(200, QQ), 2)


_WITNESS_CELLS = [(m, n) for m in (2, 3) for n in range(2, 6)] + \
    [(4, 2), (4, 3), (4, 4), (2, 6), (3, 6), (3, 7)]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
@pytest.mark.parametrize("m,n", _WITNESS_CELLS)
def test_leading_terms_are_the_pivots_of_the_relation_rref(m, n, field):
    """Oracle for the witness: the translated leading terms are the
    generators' first columns, and exactly the pivot columns
    `echelon_rows` finds for them, so their count is the relation rank."""
    sp = tensor.Space(m, field)
    index = {t: i for i, t in enumerate(bimodule.all_bimod_terms(m, n))}
    rows = [tuple(sorted((index[k], c) for k, c in g.terms.items()))
            for g in bimodule.relation_generators(sp, n)]
    leads, fault = mseq._leading_terms(sp, n)
    assert fault is None
    assert {index[t] for t in leads} == {row[0][0] for row in rows}
    assert {index[t] for t in leads} == set(linalg.echelon_rows(field, rows)[1])


def _integer_echelon(rows):
    """Row echelon form over the integers of the sparse `rows` ({column:
    int}), by Euclid on each pivot column: every step adds an integer
    multiple of one row to another or swaps two, so the rows keep
    spanning the same lattice, and no value ever leaves the integers.
    Returns {pivot column: row}."""
    pivots = {}
    for row in rows:
        row = {j: x for j, x in row.items() if x}
        while row:
            c = min(row)
            if c not in pivots:
                pivots[c] = row
                break
            top = pivots[c]
            while row.get(c):
                q = top[c] // row[c]
                top = {j: x for j in top.keys() | row.keys()
                       if (x := top.get(j, 0) - q * row.get(j, 0))}
                top, row = row, top
            pivots[c] = top
    return pivots


@pytest.mark.parametrize("m,n,k", [(2, 4, 1), (3, 4, 15), (2, 5, 6), (3, 5, 102), (4, 4, 67),
                                   (2, 6, 23)])
def test_integer_relation_lattice_is_saturated_of_witness_rank(m, n, k):
    """Oracle for the integer certificate: eliminated over the integers,
    the relation generators have rank k, the witness count, and every
    pivot is +-1, so the pivot-column minor is +-1 and the relation
    lattice is saturated: a vector whose multiple is a relation is one."""
    sp = tensor.Space(m, _ZZ)
    assert len(mseq._leading_terms(sp, n)[0]) == k
    index = {t: i for i, t in enumerate(bimodule.all_bimod_terms(m, n))}
    rows = [{index[t]: c for t, c in g.terms.items()}
            for g in bimodule.relation_generators(sp, n)]
    pivots = _integer_echelon(rows)
    assert len(pivots) == k
    assert all(row[c] in (1, -1) for c, row in pivots.items())


def _counting(monkeypatch, name):
    calls = []
    real = getattr(bimodule, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(bimodule, name, counted)
    return calls


@pytest.mark.parametrize("m,n,field", [(3, 5, QQ), (3, 4, GF(2)), (2, 6, GF(3)), (4, 4, QQ)])
def test_passing_cell_runs_no_relation_elimination(monkeypatch, m, n, field):
    """On a passing cell the witness closes: no context is built and the
    one `echelon_rows` call is the one inside `kernel_basis`."""
    contexts = _counting(monkeypatch, "build_context")
    eliminations = []
    real = linalg.echelon_rows

    def counted(*args, **kwargs):
        eliminations.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(bimodule, "echelon_rows", counted)
    monkeypatch.setattr(linalg, "echelon_rows", counted)
    cert = bimodule.verify_sequence(tensor.Space(m, field), n)
    assert cert.passed and cert.dims["wm_rank"] > 0
    assert contexts == [] and len(eliminations) == 1


def _at_last_ascent(term):
    """True iff the wedge of `term` sits at the last ascent of its word:
    b >= r[0] >= r[1] >= ... for the term (l, a^b, r)."""
    _, (_, b), right = term
    tail = (b,) + right
    return all(x >= y for x, y in zip(tail, tail[1:]))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
@pytest.mark.parametrize("m,n", _WITNESS_CELLS)
def test_leading_terms_are_the_terms_off_the_last_ascent(m, n, field):
    """The closure lemma of the module docstring: the leading terms and
    the last-ascent terms split the term basis, and there is one
    last-ascent term per word that is not weakly decreasing, so the
    witness count always meets the bound ambient - rank E."""
    terms = bimodule.all_bimod_terms(m, n)
    leads, fault = mseq._leading_terms(tensor.Space(m, field), n)
    last = {t for t in terms if _at_last_ascent(t)}
    assert fault is None and not leads & last
    assert leads | last == set(terms)
    assert len(last) == m ** n - comb(m + n - 1, n)


def _ordered_cores(m, n):
    """Every core of degree at most n on ordered letters, with its flag:
    the Jacobi cores J(a, b, c) with a < b < c, all basis cores, then
    the transfer cores T(a, b, mid, z, t) with a < b and z < t for every
    mid, a basis core iff b >= mid[0] >= ... >= mid[-1] >= z (b >= z
    when mid is empty)."""
    letters = range(1, m + 1)
    if n >= 3:
        for a, b, c in combinations(letters, 3):
            yield mseq._jacobi_core(_ZZ, a, b, c), True
    for k in range(n - 3):
        for a, b in combinations(letters, 2):
            for z, t in combinations(letters, 2):
                for mid in tensor.all_words(m, k):
                    run = (b,) + mid + (z,)
                    yield (mseq._transfer_core(_ZZ, a, b, mid, z, t),
                           all(x >= y for x, y in zip(run, run[1:])))


def _basis_cores(m, n):
    return [core for core, basis in _ordered_cores(m, n) if basis]


def _translated_leads(cores, m, n):
    """The leading term of every degree-n translate of each core."""
    leads = []
    for core in cores:
        a, pair, b = min(core, key=mseq._term_order)
        leads += [(left + a, pair, b + right)
                  for left, right in mseq._translates(m, n, len(a) + 2 + len(b))]
    return leads


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (2, 7), (3, 3), (3, 4), (3, 5),
                                 (3, 6), (3, 7), (4, 5), (5, 4)])
def test_translates_of_the_basis_cores_have_distinct_leading_terms(m, n):
    """The basis behind a free presentation of M (ROADMAP item 2): the
    translates of `_basis_cores` have pairwise distinct leading terms, so
    they are independent; there are ambient - m^n + C(m+n-1, n) of them,
    the relation rank; and they are the witness's leading terms.  So
    these translates alone form a basis of the degree-n relations.  The
    package flags exactly these cores, and their translates' leading
    terms are those of every translate of the full ordered family, so
    translating only the basis cores leaves the witness count as it was."""
    leads = _translated_leads(_basis_cores(m, n), m, n)
    assert len(set(leads)) == len(leads)
    assert len(leads) == mseq.ambient_dim(m, n) - m ** n + comb(m + n - 1, n)
    assert set(leads) == mseq._leading_terms(tensor.Space(m, _ZZ), n)[0]
    flagged = [core for core, basis in mseq._relation_cores(tensor.Space(m, _ZZ), n) if basis]
    assert flagged == _basis_cores(m, n)
    every = _translated_leads((core for core, _ in _ordered_cores(m, n)), m, n)
    assert set(every) == mseq._leading_terms(tensor.Space(m, _ZZ), n)[0]


def test_non_basis_cores_are_still_checked(monkeypatch):
    """R is defined by every core, so the witness checks the expansion of
    the cores it does not translate too.  With one coefficient perturbed
    in each transfer core whose `mid` has an ascent, a non-basis core,
    the quotient's generators and the leading terms stay as they were,
    and the (3, 6) cell fails `injective_rank`.  At (3, 5) no `mid` has
    an ascent, so the same patch leaves the cell passing."""
    real = mseq._transfer_core
    perturbed = []

    def patched(field, x, y, mid, z, t):
        terms = real(field, x, y, mid, z, t)
        if any(p < q for p, q in zip(mid, mid[1:])):
            last = max(terms, key=mseq._term_order)
            terms[last] = field.neg(terms[last])
            perturbed.append(mid)
        return terms

    sp = tensor.Space(3, QQ)
    generators = [g.terms for g in bimodule.relation_generators(sp, 6)]
    monkeypatch.setattr(mseq, "_transfer_core", patched)
    assert [g.terms for g in bimodule.relation_generators(sp, 6)] == generators
    cert = bimodule.verify_sequence(sp, 6)
    checks = {c.name: c for c in cert.checks}
    assert perturbed and not checks["injective_rank"].passed and not cert.passed
    assert checks["injective_rank"].detail.endswith(", relations do not expand to zero")
    assert cert.dims["wm_rank"] == 514
    assert checks["image_equals_kernel"].passed and checks["dimension_identity"].passed
    assert bimodule.verify_sequence(sp, 5).passed


def _hilbert_c(m, n):
    """The t^n coefficient of H_C(t) = C(m,2) t^2 - (1 - mt) + (1 - mt)^2 / (1 - t)^m,
    from the series 1 / (1 - t)^m = sum_j C(m+j-1, j) t^j."""
    square = {0: 1, 1: -2 * m, 2: m * m}  # (1 - mt)^2
    series = sum(c * comb(m + n - i - 1, n - i) for i, c in square.items() if i <= n)
    return series + {0: -1, 1: m, 2: comb(m, 2)}.get(n, 0)


def _core_degree(core):
    left, _, right = next(iter(core))
    return len(left) + 2 + len(right)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
@pytest.mark.parametrize("m,n,new", [(2, 4, 1), (2, 5, 2), (2, 6, 3), (2, 7, 4), (3, 4, 9),
                                     (3, 5, 21), (3, 6, 37), (4, 4, 35), (4, 5, 96),
                                     (5, 4, 95)])
def test_new_relations_in_degree_n_are_the_basis_cores_of_degree_n(m, n, new, field):
    """R is free on the span C of the basis cores (the `mseq` docstring),
    so the relations new in degree n, R_n / (V.R_(n-1) + R_(n-1).V),
    number the basis cores of degree n and the t^n coefficient of H_C.
    Both ranks are taken here from the full family of instantiated
    cores; V.R_(n-1) + R_(n-1).V is spanned by its degree-(n-1)
    translates times a letter on either side."""
    sp = tensor.Space(m, field)
    index = {t: i for i, t in enumerate(bimodule.all_bimod_terms(m, n))}
    lower = [shifted for g in _full_relation_translates(sp, n - 1) for v in range(1, m + 1)
             for shifted in ({((v,) + l, p, r): c for (l, p, r), c in g.items()},
                             {(l, p, r + (v,)): c for (l, p, r), c in g.items()})]
    rank_n = len(linalg.echelon_rows(field, _full_relation_rows(sp, n))[1])
    rank_lower = len(linalg.echelon_rows(field, _index_rows(index, lower))[1])
    top = sum(1 for core, basis in mseq._relation_cores(sp, n)
              if basis and _core_degree(core) == n)
    assert rank_n - rank_lower == top == _hilbert_c(m, n) == new


@pytest.mark.parametrize("m,n,field", [(3, 5, QQ), (3, 4, GF(2)), (2, 6, GF(3)), (4, 4, QQ),
                                       (3, 3, GF(3))])
def test_witness_short_of_the_bound_fails_injective_rank(monkeypatch, m, n, field):
    """With one leading term dropped the count proves nothing: the cell
    fails its `injective_rank` check, and no relation span is
    row-reduced to rescue it."""
    sp = tensor.Space(m, field)
    real = mseq._leading_terms

    def short(space, k):
        leads, fault = real(space, k)
        return set(sorted(leads)[1:]), fault

    monkeypatch.setattr(mseq, "_leading_terms", short)
    contexts = _counting(monkeypatch, "build_context")
    cert = bimodule.verify_sequence(sp, n)
    checks = {c.name: c for c in cert.checks}
    assert contexts == []
    assert not checks["injective_rank"].passed and not cert.passed
    assert checks["image_equals_kernel"].passed
    assert cert.dims["m_dim"] == cert.dims["t_dim"] - cert.dims["s_dim"] + 1


_COCYCLE_FIELDS = (QQ, GF(2), GF(3), GF(2**31 - 1))
_COCYCLE_CELLS = ((2, 3), (3, 3), (2, 4), (3, 4))
# the benchmark's query cell: t is always factored by `cocycle` itself,
# through the cached `perms._perm_word` and transposition tuple
_COCYCLE_PERM_CELLS = ((3, 6),)


def _summing_loop_cocycle(ctx, t, a, word=None):
    """The telescoping loop summed into a new element at every letter,
    with every swap applied, the last one included."""
    n = ctx.degree
    if word is None:
        word = perms.perm_word(t)
    acc = bimodule.BimodElement(ctx.space, n, {})
    cur = a
    for i in word:
        acc = acc + bimodule.wedge_at(cur, i)
        cur = tensor.perm_action(perms.adjacent_transposition(n, i), cur)
    return bimodule.normal_form(ctx, acc)


def _nonzero_scalars(field):
    if field.char == 0:
        return st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    return st.integers(1, field.char - 1) | st.integers(max(1, field.char - 3), field.char - 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cocycle_matches_the_summing_loop(ctx_cache, data):
    field = data.draw(st.sampled_from(_COCYCLE_FIELDS))
    m, n = data.draw(st.sampled_from(_COCYCLE_CELLS + _COCYCLE_PERM_CELLS))
    ctx = ctx_cache(m, n, field)
    sp = ctx.space
    # few letters, so words repeat letters; some words come with their
    # swap at a position, so `wedge_at` sums (and may cancel) two terms
    words = data.draw(st.lists(st.tuples(*[st.integers(1, m)] * n), min_size=1, max_size=4))
    for w in data.draw(st.lists(st.sampled_from(words), max_size=2)):
        i = data.draw(st.integers(1, n - 1))
        words.append(apply_to_positions(perms.adjacent_transposition(n, i), w))
    coeffs = data.draw(st.lists(_nonzero_scalars(field), min_size=len(words),
                                max_size=len(words)))
    terms: dict = {}
    for w, c in zip(words, coeffs):
        terms[w] = field.add(terms.get(w, field.zero), field.coerce(c))
    a = tensor.TensorElement(sp, n, terms)
    a_terms = dict(a.terms)
    if (m, n) in _COCYCLE_PERM_CELLS or data.draw(st.booleans()):
        t, word = tuple(data.draw(st.permutations(range(1, n + 1)))), None
    else:
        # a random letter sequence: usually not reduced
        word = tuple(data.draw(st.lists(st.integers(1, n - 1), max_size=8)))
        t = perms.compose_word(n, word)
    answer = bimodule.cocycle(ctx, t, a, word)
    assert answer == _summing_loop_cocycle(ctx, t, a, word)
    assert a.terms == a_terms
    if field.char == 0:
        # the sum runs on ints while the values are integral; the answer does not
        assert all(type(v) is Fraction for v in answer)


def test_wedge_at_cancels_a_word_against_its_swap():
    for field in _COCYCLE_FIELDS:
        sp = tensor.Space(3, field)
        for w in tensor.all_words(3, 4):
            for i in range(1, 4):
                e = tensor.word_element(sp, w, 2)
                x = e + tensor.perm_action(perms.adjacent_transposition(4, i), e)
                assert bimodule.wedge_at(x, i).is_zero()


def test_cocycle_applies_no_swap_after_the_last_letter(ctx_cache, monkeypatch):
    ctx = ctx_cache(3, 4)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bimodule, "wedge_at", counted("wedge_at", bimodule.wedge_at))
    monkeypatch.setattr(bimodule, "perm_action", counted("perm_action", bimodule.perm_action))
    monkeypatch.setattr(perms, "is_perm", counted("is_perm", perms.is_perm))
    a = tensor.TensorElement(ctx.space, 4, {(1, 2, 3, 1): 1, (2, 1, 3, 3): 2,
                                            (3, 3, 2, 1): -1, (1, 1, 1, 2): 5})
    cases = [(perms.compose_word(4, word), word)
             for word in [(), (1,), (1, 2, 1), (3, 3, 2, 1, 2)]]
    cases.append(((4, 3, 2, 1), None))
    for t, word in cases:
        length = len(perms.perm_word(t) if word is None else word)
        calls.clear()
        bimodule.cocycle(ctx, t, a, word)
        assert calls["wedge_at"] == length
        assert calls["perm_action"] == max(length - 1, 0)
        # one check in `cocycle` and one per `perm_action`, none per word
        assert calls["is_perm"] == 1 + calls["perm_action"]


def _count_telescope_calls(monkeypatch) -> Counter:
    calls = Counter()
    for name in ("wedge_at", "perm_action"):
        def wrapper(*args, fn=getattr(bimodule, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(bimodule, name, wrapper)
    return calls


def test_cocycle_skips_a_swap_that_fixes_every_word(ctx_cache, monkeypatch):
    """Letter 1 swaps two equal letters in both words, so it leaves the
    element as it is and has no wedge: neither call runs for it."""
    ctx = ctx_cache(3, 4)
    a = tensor.TensorElement(ctx.space, 4, {(1, 1, 2, 3): 1, (2, 2, 3, 1): -2})
    word = (1, 2, 3)
    t = perms.compose_word(4, word)
    expected = _summing_loop_cocycle(ctx, t, a, word)
    calls = _count_telescope_calls(monkeypatch)
    assert bimodule.cocycle(ctx, t, a, word) == expected and any(expected)
    assert calls == {"wedge_at": 2, "perm_action": 1}
    # a last letter that fixes every word runs no `wedge_at`
    b = tensor.TensorElement(ctx.space, 4, {(1, 2, 3, 3): 1, (3, 1, 2, 2): 5})
    t = perms.compose_word(4, (1, 3))
    expected = _summing_loop_cocycle(ctx, t, b, (1, 3))
    calls.clear()
    assert bimodule.cocycle(ctx, t, b, (1, 3)) == expected
    assert calls == {"wedge_at": 1, "perm_action": 1}


def test_cocycle_does_not_skip_a_swap_that_moves_one_word(ctx_cache, monkeypatch):
    """The first word holds equal letters at positions 1, 2 and the second
    does not, so letter 1 still moves the element and has a wedge."""
    ctx = ctx_cache(3, 4)
    a = tensor.TensorElement(ctx.space, 4, {(1, 1, 2, 3): 1, (1, 2, 2, 3): 3})
    word = (1, 2, 3)
    t = perms.compose_word(4, word)
    expected = _summing_loop_cocycle(ctx, t, a, word)
    calls = _count_telescope_calls(monkeypatch)
    value = bimodule.cocycle(ctx, t, a, word)
    assert value == expected and any(value)
    assert calls == {"wedge_at": 3, "perm_action": 2}


def test_cocycle_over_q_shares_fraction_entries(ctx_cache):
    """The telescope runs on ints over Q; answers still hold `Fraction`s,
    one object per value across answers, for integral and non-integral
    coefficients alike, and halving the element halves every entry."""
    ctx = ctx_cache(3, 4)
    cases = [((2, 3, 4, 1), (1, 2, 3, 1)), ((4, 3, 2, 1), (1, 2, 3, 3)),
             ((3, 1, 4, 2), (2, 1, 1, 3))]
    answers = {}
    for scale in (1, 2, Fraction(1, 2)):
        answers[scale] = [bimodule.cocycle(ctx, t, tensor.word_element(ctx.space, w, scale))
                          for t, w in cases]
    for whole, half in zip(answers[1], answers[Fraction(1, 2)]):
        assert any(whole) and half == tuple(x / 2 for x in whole)
    entries = [x for hs in answers.values() for h in hs for x in h]
    assert all(type(x) is Fraction for x in entries)
    nonzero = [x for x in entries if x]
    assert {Fraction(1, 2), 1, 2} <= set(nonzero)
    first = {}
    assert all(first.setdefault(x, x) is x for x in nonzero)


@pytest.mark.parametrize("field", _COCYCLE_FIELDS, ids=str)
def test_wedge_at_sums_into_out(field):
    """`wedge_at(a, i, out)` adds the image of a into `out` as `collect`
    does, dropping a term that cancels, and returns `out` itself."""
    sp = tensor.Space(3, field)
    a = tensor.TensorElement(sp, 4, {(1, 2, 3, 1): 1, (2, 1, 3, 1): 2, (3, 3, 2, 1): 4,
                                     (1, 3, 2, 2): 1})
    kept = ((1, 1), (2, 3), ())
    for i in range(1, 4):
        image = bimodule.wedge_at(a, i).terms
        assert image and kept not in image
        key, c = next(iter(image.items()))
        start = {key: field.neg(c), kept: field.one}
        out = dict(start)
        assert bimodule.wedge_at(a, i, out) is out
        assert key not in out and out[kept] == field.one
        assert out == collect(field, image.items(), dict(start))
        assert len(out) == len(image)


@pytest.mark.parametrize("m,n", [(3, 4), (2, 5), (3, 5)])
def test_cocycle_over_q_reduces_to_its_value_over_each_prime_field(ctx_cache, m, n):
    """On a basis word the cocycle over Q is integral, and reduced mod p it
    is the cocycle over F_p: the relation RREFs agree over every field."""
    q_ctx = ctx_cache(m, n)
    rng = random.Random(100 * m + n)
    samples = [(tuple(rng.sample(range(1, n + 1), n)),
                tuple(rng.randint(1, m) for _ in range(n))) for _ in range(300)]
    q_values = [bimodule.cocycle(q_ctx, t, tensor.word_element(q_ctx.space, w))
                for t, w in samples]
    assert all(x.denominator == 1 for h in q_values for x in h)
    assert sum(map(any, q_values)) > 200
    for p in (2, 3, 5):
        ctx = ctx_cache(m, n, GF(p))
        for (t, w), h in zip(samples, q_values):
            assert bimodule.cocycle(ctx, t, tensor.word_element(ctx.space, w)) == \
                tuple(int(x) % p for x in h)
