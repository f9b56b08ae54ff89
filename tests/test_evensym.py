import operator
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorseq import evensym, exterior, linalg, perms, sprimeseq, tensor
from tensorseq.errors import SizeCapError
from tensorseq.fields import GF, QQ
from tensorseq.evensym import OrbitWord

from conftest import (alternating_perms, apply_to_positions, basis_words, evensym_product, parity,
                      representative, swap_first_two, sym_product)


def test_normal_form_examples():
    for w in [(1, 1, 2), (1, 2, 1), (2, 1, 1)]:
        assert evensym.normal_form(w) == OrbitWord((1, 1, 2), False)
    assert evensym.normal_form((2, 1, 3)) == OrbitWord((1, 2, 3), True)
    assert evensym.normal_form((1, 2, 3)) == OrbitWord((1, 2, 3), False)
    assert evensym.normal_form(()) == OrbitWord((), False)


def test_normal_form_orbit_oracle():
    """Independent oracle: two words share a normal form iff one is an
    even permutation of the other (enumerated directly)."""
    for n in (2, 3, 4):
        evens = list(alternating_perms(n))
        for w in product((1, 2, 3), repeat=n):
            orbit = {apply_to_positions(s, w) for s in evens}
            nf = evensym.normal_form(w)
            for u in product((1, 2, 3), repeat=n):
                assert (evensym.normal_form(u) == nf) == (u in orbit)


def test_representative_examples_and_roundtrip():
    assert representative(OrbitWord((1, 2, 3), True)) == (2, 1, 3)
    assert representative(OrbitWord((1, 1, 2), False)) == (1, 1, 2)
    for n in range(5):
        for k in basis_words(3, n):
            assert evensym.normal_form(representative(k)) == k


def test_orbit_word_validation():
    with pytest.raises(ValueError):
        OrbitWord((2, 1), False)  # not weakly increasing
    with pytest.raises(ValueError):
        OrbitWord((1, 1), True)  # twisted needs distinct letters
    with pytest.raises(ValueError):
        OrbitWord((1,), True)  # twisted needs degree >= 2


@pytest.mark.parametrize("other", [(1, 2), 3])
def test_orbit_words_do_not_order_against_other_types(other):
    k = OrbitWord((1, 2))
    assert k.__lt__(other) is NotImplemented and k.__le__(other) is NotImplemented
    kind = type(other).__name__
    for op, sym in [(operator.lt, "<"), (operator.le, "<="), (operator.gt, ">"),
                    (operator.ge, ">=")]:
        with pytest.raises(TypeError, match=f"^'{sym}' not supported between instances of "
                                            f"'OrbitWord' and '{kind}'$"):
            op(k, other)


def test_swap_first_two():
    sp = tensor.Space(3, QQ)
    plain = evensym.EvenSymElement(sp, 3, {OrbitWord((1, 2, 3), False): 1})
    twisted = swap_first_two(plain)
    assert twisted.terms == {OrbitWord((1, 2, 3), True): Fraction(1)}
    rep = evensym.EvenSymElement(sp, 3, {OrbitWord((1, 1, 2), False): 1})
    assert swap_first_two(rep) == rep
    assert swap_first_two(twisted) == plain
    with pytest.raises(ValueError):
        swap_first_two(evensym.from_word(sp, (1,)))


def test_swap_is_involution_and_projection_invariant():
    sp = tensor.Space(3, QQ)
    for n in (2, 3, 4):
        for k in basis_words(3, n):
            e = evensym.EvenSymElement(sp, n, {k: 1})
            assert swap_first_two(swap_first_two(e)) == e
            assert evensym.to_sym(swap_first_two(e)) == evensym.to_sym(e)


def test_product_examples():
    sp = tensor.Space(2, QQ)
    e1 = evensym.from_word(sp, (1,))
    e2 = evensym.from_word(sp, (2,))
    assert evensym_product(e1, e2).terms == {OrbitWord((1, 2), False): Fraction(1)}
    assert evensym_product(e2, e1).terms == {OrbitWord((1, 2), True): Fraction(1)}
    twisted12 = evensym.EvenSymElement(sp, 2, {OrbitWord((1, 2), True): 1})
    p = evensym_product(e1, twisted12)
    assert p.terms == {OrbitWord((1, 1, 2), False): Fraction(1)}


def test_product_unit_and_space_check():
    sp = tensor.Space(2, QQ)
    one = evensym.from_word(sp, ())
    a = evensym.from_word(sp, (2, 1), Fraction(5, 3))
    assert evensym_product(one, a) == a
    assert evensym_product(a, one) == a
    with pytest.raises(ValueError):
        evensym_product(a, evensym.from_word(tensor.Space(3, QQ), (1,)))


def test_product_well_defined_on_representatives():
    """Concatenating even-equivalent words gives even-equivalent words."""
    rng = random.Random(41)
    for _ in range(200):
        nu = rng.randint(1, 4)
        nv = rng.randint(1, 4)
        u = tuple(rng.randint(1, 3) for _ in range(nu))
        v = tuple(rng.randint(1, 3) for _ in range(nv))
        su = rng.choice(list(alternating_perms(nu)))
        sv = rng.choice(list(alternating_perms(nv)))
        u2 = apply_to_positions(su, u)
        v2 = apply_to_positions(sv, v)
        assert evensym.normal_form(u + v) == evensym.normal_form(u2 + v2)


def _rand_elem(rng, sp, degree):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        w = tuple(rng.randint(1, sp.dim) for _ in range(degree))
        k = evensym.normal_form(w)
        c = rng.randint(-4, 4)
        terms[k] = sp.field.add(terms.get(k, sp.field.zero), sp.field.coerce(c))
    return evensym.EvenSymElement(sp, degree, terms)


def test_product_associative_randomized():
    rng = random.Random(43)
    for field in (QQ, GF(2), GF(3)):
        sp = tensor.Space(3, field)
        for _ in range(40):
            a = _rand_elem(rng, sp, rng.randint(0, 3))
            b = _rand_elem(rng, sp, rng.randint(0, 3))
            c = _rand_elem(rng, sp, rng.randint(0, 3))
            assert evensym_product(evensym_product(a, b), c) == \
                evensym_product(a, evensym_product(b, c))


def test_to_sym_examples_and_multiplicativity():
    sp = tensor.Space(3, QQ)
    twisted = evensym.EvenSymElement(sp, 3, {OrbitWord((1, 2, 3), True): 1})
    assert evensym.to_sym(twisted).terms == {(1, 2, 3): Fraction(1)}
    pair = evensym.EvenSymElement(sp, 2, {OrbitWord((1, 1), False): 1})
    assert evensym.to_sym(pair).terms == {(1, 1): Fraction(1)}
    plain = evensym.EvenSymElement(sp, 3, {OrbitWord((1, 2, 3), False): 1})
    assert evensym.to_sym(plain - twisted).is_zero()
    rng = random.Random(47)
    for _ in range(40):
        a = _rand_elem(rng, sp, rng.randint(0, 3))
        b = _rand_elem(rng, sp, rng.randint(0, 3))
        assert evensym.to_sym(evensym_product(a, b)) == \
            sym_product(evensym.to_sym(a), evensym.to_sym(b))


def test_wedge_embed():
    sp = tensor.Space(3, QQ)
    w = exterior.ExtElement(sp, 3, {(1, 2, 3): 1})
    e = evensym.wedge_embed(w)
    assert e.terms == {OrbitWord((1, 2, 3), False): Fraction(1),
                       OrbitWord((1, 2, 3), True): Fraction(-1)}
    assert evensym.wedge_embed(exterior.ExtElement(sp, 2, {})).is_zero()
    assert evensym.to_sym(e).is_zero()
    with pytest.raises(ValueError):
        evensym.wedge_embed(exterior.ExtElement(sp, 1, {}))


def test_dims_against_orbit_count():
    def orbit_count(m, n):
        seen, count = set(), 0
        evens = list(alternating_perms(n))
        for w in product(range(1, m + 1), repeat=n):
            if w in seen:
                continue
            count += 1
            seen.update(apply_to_positions(s, w) for s in evens)
        return count

    for m in (1, 2, 3):
        for n in (0, 1, 2, 3, 4):
            expected = orbit_count(m, n)
            assert evensym.dim_evensym(m, n) == expected
            assert len(basis_words(m, n)) == expected
    assert evensym.dim_evensym(3, 3) == 11
    assert evensym.dim_evensym(2, 3) == 4
    for m in (1, 2, 3, 4):
        for n in (0, 1, 2):
            assert evensym.dim_evensym(m, n) == m ** n


def test_basis_words_unique_and_ordered():
    b = basis_words(3, 3)
    assert len(set(b)) == len(b)
    plains = [k for k in b if not k.twisted]
    assert b[:len(plains)] == plains  # plain classes first


# (3, 6), (4, 5) and (2, 7) visit at most 6144 rows; counting
# (n!/2 - 1) * m^n even-orbit rows refused them at the default cap
@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4),
                                 (3, 6), (4, 5), (2, 7)])
def test_verify_relation_span(m, n, fields_qf23):
    for field in fields_qf23:
        cert = evensym.verify_relation_span(tensor.Space(m, field), n)
        assert cert.passed, cert.to_json_dict()
        assert cert.dims["relation_rank"] == m ** n - evensym.dim_evensym(m, n)


def test_relation_span_known_ranks():
    c = evensym.verify_relation_span(tensor.Space(2, QQ), 3)
    assert c.dims["relation_rank"] == 8 - 4
    c = evensym.verify_relation_span(tensor.Space(3, QQ), 3)
    assert c.dims["relation_rank"] == 27 - 11
    c = evensym.verify_relation_span(tensor.Space(3, QQ), 2)
    assert c.dims["relation_rank"] == 0


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 3), (5, 5)])
def test_verify_sequence(m, n, fields_qf23):
    for field in fields_qf23:
        cert = evensym.verify_sequence(tensor.Space(m, field), n)
        assert cert.passed, cert.to_json_dict()
        assert cert.dims["sprime_dim"] == cert.dims["s_dim"] + cert.dims["lambda_dim"]


def test_verify_sequence_iso_case():
    """No wedge part: the projection is an isomorphism."""
    cert = evensym.verify_sequence(tensor.Space(2, QQ), 3)
    assert cert.passed and cert.dims["lambda_dim"] == 0
    assert cert.dims["sprime_dim"] == cert.dims["s_dim"] == 4


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_projection_and_embedding_matrices_match_the_maps(field):
    """Row k of each matrix is the image of basis element k under the
    element-level map, in monomial and class coordinates."""
    for m in range(6):
        sp = tensor.Space(m, field)
        for n in range(2, 8):
            classes = basis_words(m, n)
            monomials = list(tensor.all_monomials(m, n))
            sym_m = evensym.to_sym_matrix(sp, n)
            assert sym_m.ncols == len(monomials)
            assert [dict(row) for row in sym_m.rows] == [
                {monomials.index(w): c for w, c in evensym.to_sym(
                    evensym.EvenSymElement(sp, n, {k: 1})).terms.items()}
                for k in classes]
            emb = evensym.wedge_embed_matrix(sp, n)
            assert emb.ncols == len(classes)
            assert [dict(row) for row in emb.rows] == [
                {classes.index(k): c for k, c in evensym.wedge_embed(
                    exterior.ExtElement(sp, n, {w: 1})).terms.items()}
                for w in exterior.all_wedge_words(m, n)]


def test_sequence_with_more_degrees_than_letters_stays_linear():
    """At m = 2 the basis has n + 1 plain classes and no twisted one, so
    the cap admits n up to 19,999: no length-n monomial may be built."""
    tracemalloc.start()
    try:
        cert = evensym.verify_sequence(tensor.Space(2, QQ), 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.passed and cert.dims["sprime_dim"] == 3001
    assert peak < 8 * 2 ** 20


def test_verify_sequence_guards():
    with pytest.raises(ValueError):
        evensym.verify_sequence(tensor.Space(2, QQ), 1)
    with pytest.raises(SizeCapError):
        evensym.verify_sequence(tensor.Space(5, QQ), 5, size_cap=10)
    with pytest.raises(SizeCapError):
        evensym.verify_relation_span(tensor.Space(5, QQ), 5, size_cap=10)


def test_relation_span_caps_its_rows_before_enumerating(monkeypatch):
    """At (2, 14) the tensor dimension 16384 is under the default cap, but
    the three partner rules would visit (12 + 2 + 1) * 2^14 rows: refused
    before any word is enumerated."""
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumeration started")

    for name in ("all_words", "normal_form", "_relation_rows"):
        monkeypatch.setattr(evensym, name, no_enumeration)
    start = time.perf_counter()
    with pytest.raises(SizeCapError) as exc:
        evensym.verify_relation_span(tensor.Space(2, QQ), 14)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == f"relation rows {15 * 2 ** 14} exceeds size cap 20000"


@pytest.mark.parametrize("n", range(3, 9))
def test_alternating_generators_generate_the_alternating_group(n):
    generators = evensym._alternating_generators(n)
    group = {perms.identity_perm(n)}
    frontier = list(group)
    while frontier:
        frontier = [perms.compose(g, t) for t in frontier for g in generators]
        frontier = [t for t in set(frontier) if t not in group]
        group.update(frontier)
    assert group == set(alternating_perms(n))


@pytest.mark.parametrize("m,n", [(m, n) for m in (2, 3) for n in range(3, 7)])
def test_relation_rules_match_their_literal_definitions(m, n, fields_qf23):
    """The ideal rule's rows are the translates l.xyz.r - l.yzx.r, written
    out; the orbit rule's two generators span every w - s.w, s even."""
    words = list(tensor.all_words(m, n))
    index = {w: i for i, w in enumerate(words)}
    letters = range(1, m + 1)
    translates = set()
    for p in range(n - 2):
        for left in product(letters, repeat=p):
            for right in product(letters, repeat=n - 3 - p):
                for x, y, z in product(letters, repeat=3):
                    i, j = index[left + (x, y, z) + right], index[left + (y, z, x) + right]
                    if i != j:
                        translates.add((i, j))
    pairs = {frozenset((index[w], index[apply_to_positions(s, w)]))
             for s in alternating_perms(n) for w in words}
    pairs = sorted(tuple(sorted(p)) for p in pairs if len(p) == 2)
    generators = evensym._alternating_generators(n)
    for field in fields_qf23:
        one, neg_one = field.one, field.neg(field.one)

        def difference(i, j):  # e_i - e_j, sorted by column
            return ((i, one), (j, neg_one)) if i < j else ((j, neg_one), (i, one))

        ideal, orbit, _ = evensym._relation_rows(tensor.Space(m, field), n, generators)
        assert set(ideal) == {difference(i, j) for i, j in translates}
        every_even = [difference(i, j) for i, j in pairs]
        assert linalg.echelon_rows(field, orbit)[0] == \
            linalg.echelon_rows(field, every_even)[0]


def test_json_roundtrip():
    sp = tensor.Space(3, QQ)
    a = evensym.EvenSymElement(sp, 3, {OrbitWord((1, 2, 3), True): Fraction(-2, 5),
                                       OrbitWord((1, 1, 3), False): 3})
    doc = a.to_json()
    assert evensym.EvenSymElement.from_json(sp, doc) == a
    twisted_flags = [t["twisted"] for t in doc["terms"]]
    assert twisted_flags == [False, True]


def _inversions(word):
    return sum(1 for i in range(len(word)) for j in range(i + 1, len(word))
               if word[i] > word[j])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 9), max_size=8))
def test_sorting_parity_matches_inversion_count(letters):
    """normal_form and wedge_canon take their sign from the parity of the
    sorting permutation; it must agree with the inversion count, and a
    repeated letter still gives the plain class or no wedge word."""
    word = tuple(letters)
    k = evensym.normal_form(word)
    canon = exterior.wedge_canon(word)
    assert k.word == tuple(sorted(word))
    if len(set(word)) < len(word):
        assert not k.twisted
        assert canon is None
    else:
        odd = _inversions(word) % 2 == 1
        assert parity(perms.sorting_perm(word)) == int(odd)
        assert k.twisted == odd
        assert canon == (-1 if odd else 1, tuple(sorted(word)))


def test_twisted_columns_are_built_once_per_cell_shape():
    sprimeseq._twisted_columns.cache_clear()
    for field in (QQ, GF(3)):
        assert evensym.verify_sequence(tensor.Space(5, field), 3).passed
    info = sprimeseq._twisted_columns.cache_info()
    # P and the embedding of both fields read one tuple
    assert (info.misses, info.hits) == (1, 3)
    assert sprimeseq._twisted_columns(5, 3) == sprimeseq._twisted_columns(5, 3)
