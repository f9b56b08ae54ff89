import json
import operator
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensorseq import bases, bimodule, evensym, exterior, linalg, perms, tensor
from tensorseq.evensym import OrbitWord
from tensorseq.fields import GF, QQ

from conftest import bimodule_mult, commutator, inverse, sym_product, tensor_product


def elements(space, degree):
    coeffs = st.integers(-6, 6)
    words = st.tuples(*[st.integers(1, space.dim)] * degree)
    return st.dictionaries(words, coeffs, max_size=4).map(
        lambda terms: tensor.TensorElement(space, degree, terms))


def rand_element(rng, space, degree, nterms=3):
    terms = {}
    for _ in range(nterms):
        w = tuple(rng.randint(1, space.dim) for _ in range(degree))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if space.field.char == 0 \
            else rng.randint(0, space.field.char - 1)
        terms[w] = space.field.add(terms.get(w, space.field.zero), space.field.coerce(c))
    return tensor.TensorElement(space, degree, terms)


def test_product_is_concatenation():
    sp = tensor.Space(2, QQ)
    a = tensor.word_element(sp, (1,))
    b = tensor.word_element(sp, (2,))
    assert tensor_product(a, b).terms == {(1, 2): Fraction(1)}


def test_product_bilinear():
    sp = tensor.Space(2, QQ)
    a = tensor.word_element(sp, (1,)) + tensor.word_element(sp, (2,))
    b = tensor.word_element(sp, (1,))
    assert tensor_product(a, b).terms == {(1, 1): Fraction(1), (2, 1): Fraction(1)}


def test_empty_word_is_unit():
    sp = tensor.Space(2, QQ)
    one = tensor.word_element(sp, ())
    a = tensor.word_element(sp, (2, 1), Fraction(3, 2))
    assert tensor_product(one, a) == a
    assert tensor_product(a, one) == a


def test_commutator_examples():
    sp = tensor.Space(2, QQ)
    v1, v2 = tensor.word_element(sp, (1,)), tensor.word_element(sp, (2,))
    c = commutator(v1, v2)
    assert c.terms == {(1, 2): Fraction(1), (2, 1): Fraction(-1)}
    assert commutator(v1, v1).is_zero()
    sp2 = tensor.Space(2, GF(2))
    c2 = commutator(tensor.word_element(sp2, (1,)), tensor.word_element(sp2, (2,)))
    assert c2.terms == {(1, 2): 1, (2, 1): 1}


def test_space_mismatch_rejected():
    a = tensor.word_element(tensor.Space(2, QQ), (1,))
    b = tensor.word_element(tensor.Space(3, QQ), (1,))
    c = tensor.word_element(tensor.Space(2, GF(2)), (1,))
    for other in (b, c):
        with pytest.raises(ValueError):
            tensor_product(a, other)


def test_sums_and_products_refuse_elements_over_different_spaces():
    sp2, sp3 = tensor.Space(2, QQ), tensor.Space(3, QQ)
    a, b = tensor.word_element(sp2, (1,)), tensor.word_element(sp3, (1,))
    x = bimodule.BimodElement(sp2, 2, {((), (1, 2), ()): 1})
    for product, args in [(operator.add, (a, b)),
                          (tensor_product, (a, b)),
                          (sym_product, (tensor.symmetrize(a), tensor.symmetrize(b))),
                          (bimodule_mult, (b, x, a)),
                          (bimodule_mult, (a, x, b))]:
        with pytest.raises(ValueError, match="^elements live over different spaces$"):
            product(*args)


def test_element_repr_and_scalar_multiples():
    a = tensor.TensorElement(tensor.Space(2, QQ), 2, {(2, 1): "1/2", (1, 2): -3})
    assert repr(a) == "-3*(1, 2) + 1/2*(2, 1)"
    assert repr(-a) == "3*(1, 2) + -1/2*(2, 1)"
    zero = a.scale(0)
    assert (type(zero), zero.degree, zero.terms, repr(zero)) == (tensor.TensorElement, 2, {}, "0")
    assert 2 * a == a.scale(2) == a + a
    assert repr(2 * a) == "-6*(1, 2) + 1*(2, 1)"


def test_tensor_element_rejects_a_coefficient_undefined_in_the_field():
    space = tensor.Space(2, GF(3))
    with pytest.raises(ValueError, match="coefficient 1/3 has a denominator divisible by 3"):
        tensor.TensorElement(space, 2, {(1, 2): Fraction(1, 3)})
    with pytest.raises(ValueError, match="divisible by 3"):
        tensor.word_element(space, (1, 2), Fraction(2, 6))
    assert tensor.TensorElement(space, 2, {(1, 2): Fraction(1, 2)}).terms == {(1, 2): 2}


def test_perm_action_examples():
    sp = tensor.Space(3, QQ)
    w = tensor.word_element(sp, (1, 2, 3))
    assert tensor.perm_action(perms.adjacent_transposition(3, 1), w).terms == \
        {(2, 1, 3): Fraction(1)}
    assert tensor.perm_action(perms.identity_perm(3), w) == w
    cyc = (2, 3, 1)
    assert tensor.perm_action(inverse(cyc), tensor.perm_action(cyc, w)) == w
    with pytest.raises(ValueError):
        tensor.perm_action(perms.identity_perm(2), w)


def test_perm_action_rejects_non_permutations():
    sp = tensor.Space(3, QQ)
    for a in (tensor.word_element(sp, (1, 2, 3)), tensor.TensorElement(sp, 3, {})):
        for t in [(1, 1, 3), (3, 3, 1), (0, 1, 2), (1, 2, 4)]:
            with pytest.raises(ValueError, match="not a permutation"):
                tensor.perm_action(t, a)


def test_perm_action_group_property():
    rng = random.Random(5)
    sp = tensor.Space(3, QQ)
    for _ in range(50):
        n = rng.randint(1, 5)
        s = tuple(rng.sample(range(1, n + 1), n))
        t = tuple(rng.sample(range(1, n + 1), n))
        a = rand_element(rng, sp, n)
        assert tensor.perm_action(perms.compose(s, t), a) == \
            tensor.perm_action(s, tensor.perm_action(t, a))


def test_symmetrize_examples():
    sp = tensor.Space(3, QQ)
    assert tensor.symmetrize(tensor.word_element(sp, (2, 1, 3))).terms == \
        {(1, 2, 3): Fraction(1)}
    v1, v2 = tensor.word_element(sp, (1,)), tensor.word_element(sp, (2,))
    assert tensor.symmetrize(commutator(v1, v2)).is_zero()
    assert tensor.symmetrize(tensor.word_element(sp, (1, 1))).terms == \
        {(1, 1): Fraction(1)}


def test_symmetrize_is_algebra_morphism():
    rng = random.Random(6)
    for field in (QQ, GF(3)):
        sp = tensor.Space(3, field)
        for _ in range(30):
            a = rand_element(rng, sp, rng.randint(0, 3))
            b = rand_element(rng, sp, rng.randint(0, 3))
            lhs = tensor.symmetrize(tensor_product(a, b))
            rhs = sym_product(tensor.symmetrize(a), tensor.symmetrize(b))
            assert lhs == rhs


def test_symmetrize_permutation_invariant():
    rng = random.Random(7)
    sp = tensor.Space(3, QQ)
    for _ in range(30):
        n = rng.randint(1, 5)
        t = tuple(rng.sample(range(1, n + 1), n))
        a = rand_element(rng, sp, n)
        assert tensor.symmetrize(tensor.perm_action(t, a)) == tensor.symmetrize(a)


_SP2 = tensor.Space(2, QQ)


@given(elements(_SP2, 1), elements(_SP2, 2), elements(_SP2, 1))
def test_product_associative(a, b, c):
    assert tensor_product(tensor_product(a, b), c) == \
        tensor_product(a, tensor_product(b, c))


@given(elements(_SP2, 1), elements(_SP2, 1), elements(_SP2, 2))
def test_product_distributes_over_sum(a, b, c):
    assert tensor_product(a + b, c) == \
        tensor_product(a, c) + tensor_product(b, c)


def test_dims():
    assert tensor.dim_tensor(2, 3) == 8
    assert tensor.dim_sym(2, 3) == 4
    assert tensor.dim_sym(3, 3) == 10
    assert tensor.dim_tensor(0, 0) == 1 and tensor.dim_sym(0, 0) == 1
    assert tensor.dim_sym(0, 2) == 0
    with pytest.raises(ValueError):
        tensor.dim_sym(-1, 2)


@pytest.mark.parametrize("dim", [bases.dim_tensor, bases.dim_sym, bases.dim_wedge])
@pytest.mark.parametrize("m,n", [(-1, 2), (2, -1)])
def test_dimensions_refuse_a_negative_argument(dim, m, n):
    with pytest.raises(ValueError, match="^m, n must be >= 0$"):
        dim(m, n)


def test_all_monomials_is_the_filtered_word_list():
    for m in range(5):
        for n in range(6):
            filtered = [w for w in tensor.all_words(m, n)
                        if all(w[i] <= w[i + 1] for i in range(n - 1))]
            assert list(tensor.all_monomials(m, n)) == filtered
            assert len(filtered) == tensor.dim_sym(m, n)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1])
def test_projection_bijective_in_low_degree(m, n):
    mat = tensor.symmetrize_matrix(tensor.Space(m, QQ), n)
    assert mat.nrows == mat.ncols == tensor.dim_tensor(m, n)
    assert linalg.rank(mat) == mat.ncols


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_projection_surjective(m, n):
    for field in (QQ, GF(2)):
        mat = tensor.symmetrize_matrix(tensor.Space(m, field), n)
        assert linalg.rank(mat) == tensor.dim_sym(m, n)


def test_degree_mismatch_rejected():
    sp = tensor.Space(2, QQ)
    with pytest.raises(ValueError):
        tensor.word_element(sp, (1,)) + tensor.word_element(sp, (1, 2))
    with pytest.raises(ValueError):
        tensor.TensorElement(sp, 2, {(1,): 1})


def test_letter_range_checked():
    sp = tensor.Space(2, QQ)
    with pytest.raises(ValueError):
        tensor.word_element(sp, (1, 3))
    with pytest.raises(ValueError):
        tensor.word_element(sp, (0,))


def test_json_spellings_are_pinned():
    q, f7 = tensor.Space(3, QQ), tensor.Space(3, GF(7))
    docs = [
        tensor.TensorElement(q, 2, {(2, 1): "-1/3", (1, 1): 2}).to_json(),
        exterior.ExtElement(f7, 2, {(1, 3): 3, (2, 3): -1}).to_json(),
        evensym.EvenSymElement(f7, 2, {OrbitWord((1, 2), True): -1,
                                       OrbitWord((1, 1)): 9}).to_json(),
    ]
    assert [json.dumps(d) for d in docs] == [
        '{"degree": 2, "terms": [{"word": [1, 1], "coeff": "2"}, '
        '{"word": [2, 1], "coeff": "-1/3"}]}',
        '{"degree": 2, "wedge": true, "terms": [{"word": [1, 3], "coeff": 3}, '
        '{"word": [2, 3], "coeff": 6}]}',
        '{"degree": 2, "terms": [{"word": [1, 1], "twisted": false, "coeff": 2}, '
        '{"word": [1, 2], "twisted": true, "coeff": 6}]}',
    ]
    # symmetric and bimodule elements have no JSON form
    for cls in (tensor.SymElement, bimodule.BimodElement):
        assert not hasattr(cls, "to_json") and not hasattr(cls, "from_json")


def test_json_roundtrip():
    sp = tensor.Space(3, QQ)
    a = tensor.TensorElement(sp, 2, {(1, 2): Fraction(-1, 3), (3, 3): 2})
    doc = a.to_json()
    assert doc["terms"][0]["coeff"] == "-1/3"
    assert tensor.TensorElement.from_json(sp, doc) == a
    sp2 = tensor.Space(3, GF(5))
    b = tensor.TensorElement(sp2, 2, {(1, 2): 3})
    assert tensor.TensorElement.from_json(sp2, b.to_json()) == b
    # loading checks each term as the constructor does
    with pytest.raises(ValueError, match="out of range"):
        tensor.TensorElement.from_json(sp, {"degree": 2, "terms": [{"word": [1, 4], "coeff": 1}]})


@pytest.mark.parametrize("letter", [1.5, 2.0, True, False, "1", Fraction(1)])
def test_letters_must_be_ints(letter):
    """A letter is an int in 1..m: a float, a bool, a string or a
    `Fraction` is refused even where it compares equal to one."""
    sp = tensor.Space(3, QQ)
    with pytest.raises(ValueError, match="malformed letter"):
        tensor.word_element(sp, (letter, 2))
    with pytest.raises(ValueError, match="malformed letter"):
        tensor.TensorElement(sp, 2, {(2, letter): 1})
    with pytest.raises(ValueError, match="malformed letter"):
        bimodule.BimodElement(sp, 3, {((letter,), (1, 2), ()): 1})


_COLLECT_FIELDS = (QQ, GF(2), GF(3), GF(2**31 - 1))


def _nonzero_scalars(field):
    if field.char == 0:
        return st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    return st.integers(1, field.char - 1)


def _summed_then_filtered(field, pairs, out):
    total = dict(out)
    for k, v in pairs:
        total[k] = field.add(total[k], v) if k in total else v
    return {k: v for k, v in total.items() if v}


@given(st.data())
def test_collect_sums_by_key_and_drops_zeros(data):
    field = data.draw(st.sampled_from(_COLLECT_FIELDS))
    keys, values = st.integers(0, 4), _nonzero_scalars(field)
    pairs = data.draw(st.lists(st.tuples(keys, values), max_size=10))
    # cancel some keys to zero, then re-add every other one of them
    sums = _summed_then_filtered(field, pairs, {})
    cancelled = data.draw(st.lists(st.sampled_from(sorted(sums)), unique=True)) if sums else []
    pairs += [(k, field.neg(sums[k])) for k in cancelled]
    pairs += [(k, data.draw(values)) for k in cancelled[::2]]
    pairs += data.draw(st.lists(st.tuples(keys, values), max_size=5))
    assert tensor.collect(field, pairs) == _summed_then_filtered(field, pairs, {})
    prefilled = data.draw(st.dictionaries(keys, values, max_size=3))
    out = dict(prefilled)
    assert tensor.collect(field, iter(pairs), out) is out
    assert out == _summed_then_filtered(field, pairs, prefilled)


_CONSTRUCTORS = [pytest.param(cls, keys, id=cls.__name__) for cls, keys in [
    (tensor.TensorElement, [(1, 2), (2, 1), (2, 2)]),
    (tensor.SymElement, [(1, 2), (1, 1), (2, 3)]),
    (exterior.ExtElement, [(1, 2), (1, 3), (2, 3)]),
    (evensym.EvenSymElement, [OrbitWord((1, 2)), OrbitWord((1, 2), True), OrbitWord((3, 3))]),
    (bimodule.BimodElement, [((), (1, 2), ()), ((), (1, 3), ()), ((), (2, 3), ())]),
]]


@pytest.mark.parametrize("make,keys", _CONSTRUCTORS)
@pytest.mark.parametrize("field,values", [
    (QQ, (Fraction(3), Fraction(-1, 2))),
    (GF(3), (None, 1)),        # 3 is 0 and -1/2 is 1 in F3
    (GF(5), (3, 2)),           # -1/2 is 2 in F5
], ids=["Q", "F3", "F5"])
def test_element_constructors_coerce_coefficients_alike(make, keys, field, values):
    sp = tensor.Space(3, field)
    spellings = [
        ["3", "-1/2", "0"],
        [3, Fraction(-1, 2), 0],
        [Fraction(3), Fraction(-1, 2), Fraction(0)],
    ]
    want = {k: v for k, v in zip(keys, values) if v is not None}
    for coeffs in spellings:
        x = make(sp, 2, dict(zip(keys, coeffs)))
        assert x.terms == want
        assert all(type(c) is type(field.one) for c in x.terms.values())


_INEXACT = [0.5, 0.1, 2.5, 2.0, Decimal("0.5"), Decimal(2)]


def _refused(value):
    return pytest.raises(ValueError, match=re.escape(
        f"coefficient {value!r} is not an int, Fraction or numeric string"))


@pytest.mark.parametrize("make,keys", _CONSTRUCTORS)
@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=str)
@pytest.mark.parametrize("value", _INEXACT, ids=repr)
def test_constructors_refuse_inexact_coefficients(make, keys, field, value):
    """No floating point anywhere: a float or a `Decimal` coefficient is
    refused and named, even where it equals an exact value."""
    with _refused(value):
        make(tensor.Space(3, field), 2, {keys[0]: 1, keys[1]: value})


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=str)
@pytest.mark.parametrize("value", _INEXACT, ids=repr)
def test_word_element_and_scale_refuse_inexact_coefficients(field, value):
    sp = tensor.Space(2, field)
    with _refused(value):
        tensor.word_element(sp, (1, 2), value)
    a = tensor.word_element(sp, (1, 2), 2)
    with _refused(value):
        a.scale(value)
    with _refused(value):
        value * a


@pytest.mark.parametrize("dim", [2.5, 2.0, True, False, "2", Fraction(2), Decimal(2)])
def test_space_dimension_must_be_an_int(dim):
    """A dimension is an int, as a letter is: a float, a bool, a string or
    a `Fraction` is refused even where it compares equal to one."""
    with pytest.raises(ValueError, match="malformed dimension"):
        tensor.Space(dim, QQ)


@pytest.mark.parametrize("make,keys", _CONSTRUCTORS)
def test_public_constructors_copy_the_callers_dict(make, keys):
    sp = tensor.Space(3, QQ)
    terms = {keys[0]: 1, keys[1]: 2}
    x = make(sp, 2, terms)
    want = dict(x.terms)
    terms[keys[0]] = 5
    terms[keys[2]] = 7
    del terms[keys[1]]
    assert x.terms == want


# Per class, over {1..3}: a key of degree 2 with a letter out of range, a
# key of degree 3, non-canonical keys and malformed keys.  Tensor words and
# orbit classes have no non-canonical spelling (`OrbitWord` refuses one).
_BAD_KEYS = [pytest.param(*row, id=row[0].__name__) for row in [
    (tensor.TensorElement, (1, 4), (1, 2, 3), [], [5, ("a", "b"), None]),
    (tensor.SymElement, (1, 4), (1, 2, 3), [(2, 1)], [5, ("a", "b")]),
    (exterior.ExtElement, (1, 4), (1, 2, 3), [(2, 1), (1, 1)], [5, ("a", "b")]),
    (evensym.EvenSymElement, OrbitWord((1, 4)), OrbitWord((1, 2, 3)), [],
     [(1, 2), (9, 9), "ab"]),
    (bimodule.BimodElement, ((4,), (1, 2), ()), ((), (1, 2), (3,)),
     [((), (2, 1), ()), ((), (1, 1), ())],
     [(1, 2), ((), (1, 2, 3), ()), ((), ("a", "b"), ()), ((), (1, 2), 5)]),
]]


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
@pytest.mark.parametrize("cls,out_of_range,wrong_degree,non_canonical,malformed", _BAD_KEYS)
def test_constructors_refuse_bad_keys(field, cls, out_of_range, wrong_degree,
                                      non_canonical, malformed):
    sp = tensor.Space(3, field)
    cases = [(out_of_range, "out of range"), (wrong_degree, "degree 2")]
    cases += [(k, "increasing") for k in non_canonical]
    cases += [(k, "malformed|not an OrbitWord|is not \\(left word") for k in malformed]
    for key, message in cases:
        # a zero coefficient does not excuse a bad key
        for c in (1, 0):
            with pytest.raises(ValueError, match=message):
                cls(sp, 2, {key: c})


def test_constructors_hold_field_scalars():
    f3, q = tensor.Space(2, GF(3)), tensor.Space(2, QQ)
    assert tensor.TensorElement(f3, 1, {(1,): 4}) == tensor.TensorElement(f3, 1, {(1,): 1})
    assert tensor.TensorElement(f3, 1, {(1,): 4}).terms == {(1,): 1}
    half = tensor.TensorElement(q, 1, {(1,): "1/2"})
    assert half.terms == {(1,): Fraction(1, 2)}
    assert half + half == tensor.word_element(q, (1,))
    assert tensor.TensorElement(q, 1, {(1,): 0, (2,): "0/3"}).is_zero()
    assert evensym.EvenSymElement(tensor.Space(3, QQ), 2, {OrbitWord((3, 3)): 0}).is_zero()


def test_word_element_checks_its_word_and_drops_a_zero_coefficient():
    sp = tensor.Space(3, GF(3))
    assert tensor.word_element(sp, (1, 3), 4).terms == {(1, 3): 1}
    assert tensor.word_element(sp, (1, 3), 3).is_zero()
    assert tensor.word_element(sp, (), 2) == tensor.TensorElement(sp, 0, {(): 2})
    with pytest.raises(ValueError, match="out of range"):
        tensor.word_element(sp, (1, 4))


def test_element_maps_leave_their_operands_alone():
    sp = tensor.Space(3, QQ)
    x = tensor.TensorElement(sp, 3, {(1, 2, 3): 1, (2, 1, 3): 2, (3, 3, 1): -1})
    y = tensor.TensorElement(sp, 3, {(1, 2, 3): -1, (2, 2, 2): 4})
    x_terms, y_terms = dict(x.terms), dict(y.terms)
    results = [x + y, x - y, y - x, tensor.perm_action((2, 3, 1), x), -y, x.scale(3)]
    assert x.terms == x_terms and y.terms == y_terms
    for r in results:
        assert r.terms is not x.terms and r.terms is not y.terms
    # a result owns its dict: changing it reaches neither operand
    results[0].terms.clear()
    assert x.terms == x_terms and y.terms == y_terms
