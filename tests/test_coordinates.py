"""`normal_form` answers (`bimodule.Coordinates`) against the dense tuple
they replace: the reference below is the dense construction, the
residue of `linalg.residue_list` written into a tuple with one slot per
ambient term.  An answer must read, compare and hash as that tuple, and
a kept answer must hold only its nonzero entries."""

import gc
import pickle
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorseq import bimodule, tensor
from tensorseq.fields import _ZZ, GF, QQ
from tensorseq.linalg import residue_list

CELLS = [(2, 4), (3, 4), (3, 5)]
FIELDS = [QQ, GF(2), GF(3)]


def dense_normal_form(ctx, x) -> tuple:
    """The dense reference: residue_list, then a tuple of field scalars."""
    field = ctx.space.field
    vec = [field.normalize(0)] * ctx.ambient_dim
    for c, v in residue_list(field, [(ctx.index[k], c) for k, c in x.terms.items()],
                             ctx.rel_basis):
        vec[c] = field.normalize(v)
    return tuple(vec)


@lru_cache(maxsize=None)
def _context(m, n, field):
    return bimodule.build_context(tensor.Space(m, field), n)


def _coefficients(field):
    if field.char:
        return st.integers(1, field.char - 1)
    return st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


@st.composite
def elements(draw):
    """(context, element): a random element of a random cell and field."""
    m, n = draw(st.sampled_from(CELLS))
    field = draw(st.sampled_from(FIELDS))
    ctx = _context(m, n, field)
    cols = draw(st.lists(st.integers(0, ctx.ambient_dim - 1), max_size=8, unique=True))
    terms = {ctx.terms[c]: draw(_coefficients(field)) for c in cols}
    return ctx, bimodule.BimodElement(ctx.space, n, terms)


@settings(max_examples=150, deadline=None)
@given(elements(), st.data())
def test_an_answer_reads_compares_and_hashes_as_its_dense_tuple(case, data):
    ctx, x = case
    answer, dense = bimodule.normal_form(ctx, x), dense_normal_form(ctx, x)
    size = ctx.ambient_dim
    assert len(answer) == size
    assert tuple(answer) == dense and list(answer) == list(dense)
    assert answer == dense and dense == answer and not answer != dense
    assert answer == list(dense) and list(dense) == answer and not answer != list(dense)
    assert hash(answer) == hash(dense)
    assert bool(answer) == bool(dense) and any(answer) == any(dense)
    for i in data.draw(st.lists(st.integers(-size, size - 1), max_size=10)):
        assert answer[i] == dense[i] and type(answer[i]) is type(dense[i])
    for i in (size, size + 3, -size - 1, -size - 4):
        with pytest.raises(IndexError):
            answer[i]
    bound = st.none() | st.integers(-size - 2, size + 2)
    for _ in range(3):
        s = slice(data.draw(bound), data.draw(bound),
                  data.draw(st.none() | st.integers(-5, 5).filter(bool)))
        assert type(answer[s]) is tuple and answer[s] == dense[s]
    # the perfbench query gate's idiom for a wrong answer
    negated = tuple(-x for x in answer)
    assert negated == tuple(-x for x in dense)
    assert (negated == answer) == (not any(dense))


@settings(max_examples=60, deadline=None)
@given(elements(), st.data())
def test_answers_that_differ_in_one_entry_compare_unequal(case, data):
    """A free column of the quotient is its own residue, so adding it to
    x changes the answer in that one entry."""
    ctx, x = case
    free = [c for c in range(ctx.ambient_dim) if c not in ctx.rel_basis]
    col = data.draw(st.sampled_from(free))
    field = ctx.space.field
    terms = dict(x.terms)
    key = ctx.terms[col]
    terms[key] = field.add(terms.get(key, field.zero), field.one)
    y = bimodule.BimodElement(ctx.space, x.degree, terms)
    a, b = bimodule.normal_form(ctx, x), bimodule.normal_form(ctx, y)
    assert sum(u != v for u, v in zip(a, b)) == 1 and a[col] != b[col]
    assert a != b and b != a and not a == b
    assert a != tuple(b) and tuple(a) != b and a != list(b)
    assert a == bimodule.normal_form(ctx, x) and hash(a) == hash(bimodule.normal_form(ctx, x))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_relation_has_the_zero_answer(field):
    ctx = _context(3, 4, field)
    relation = bimodule.BimodElement(ctx.space, 4, bimodule.relation_generators(3, 4)[0])
    answer = bimodule.normal_form(ctx, relation)
    assert answer.cols == () and answer.vals == ()
    assert not any(answer) and answer == (field.zero,) * ctx.ambient_dim
    assert answer != (field.zero,) * (ctx.ambient_dim - 1) and answer != ()
    longer = _context(3, 5, field)
    relation = bimodule.BimodElement(longer.space, 5, bimodule.relation_generators(3, 5)[0])
    assert answer != bimodule.normal_form(longer, relation)


def test_an_answer_is_an_immutable_value():
    ctx = _context(2, 4, QQ)
    answer = bimodule.cocycle(ctx, (2, 3, 4, 1), tensor.word_element(ctx.space, (1, 2, 2, 1)))
    assert any(answer)
    with pytest.raises(AttributeError):
        answer.vals = ()
    assert pickle.loads(pickle.dumps(answer)) == answer
    assert answer != "x" and answer != 0
    assert answer in {tuple(answer)} and tuple(answer) in {answer}


def test_each_ring_has_one_zero():
    assert QQ.zero is QQ.zero and type(QQ.zero) is Fraction and QQ.zero == 0
    assert GF(3).zero is GF(5).zero == 0 and type(GF(3).zero) is int
    assert _ZZ.zero == 0 and type(_ZZ.zero) is int


def _kept_answers(ctx, count=200, seed=7):
    rng = random.Random(seed)
    n = ctx.degree
    queries = [(tuple(rng.sample(range(1, n + 1), n)),
                tuple(rng.randint(1, ctx.space.dim) for _ in range(n))) for _ in range(count)]
    return lambda: [bimodule.cocycle(ctx, t, tensor.word_element(ctx.space, w))
                    for t, w in queries]


def test_kept_q_answers_share_one_zero(ctx_cache):
    answers = _kept_answers(ctx_cache(3, 5), count=50)()
    zeros = {id(x) for h in answers for x in h if not x}
    assert zeros == {id(QQ.zero)}


def test_kept_answers_hold_only_their_nonzeros(ctx_cache):
    """200 seeded (3, 6, Q) `cocycle` answers, as a query loop keeps them:
    under a tenth of the 1,933 KB their dense tuples held, and at most
    three collector-tracked objects each (the answer, its columns and its
    values).  A first pass fills the scalar and permutation caches."""
    make = _kept_answers(ctx_cache(3, 6))
    make()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = make()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 0.1 * 1933 * 1024
    del kept
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        kept = make()
        tracked = len(gc.get_objects()) - before - 1  # the list
    finally:
        gc.enable()
    assert sum(map(any, kept)) > 150
    assert tracked <= 3 * len(kept)
