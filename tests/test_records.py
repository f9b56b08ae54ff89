"""The package's value classes against frozen dataclasses with the same
names and fields: equality, hashing, repr, defaults, keywords, ordering
and read-only fields must be what the dataclass would give."""

import copy
import pickle
from dataclasses import field, fields, make_dataclass
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorseq import bimodule, tensor
from tensorseq.certificates import Certificate, CheckResult
from tensorseq.certify import CheckGrid
from tensorseq.errors import DEFAULT_SIZE_CAP, Record
from tensorseq.evensym import OrbitWord
from tensorseq.fields import GF, QQ
from tensorseq.linalg import Matrix


def _reference(cls, spec, **options):
    """A frozen dataclass named like `cls`; `spec` holds (name,) or
    (name, default) per field."""
    return make_dataclass(
        cls.__name__,
        [(s[0], object) if len(s) == 1 else (s[0], object, field(default=s[1])) for s in spec],
        frozen=True, **options)


_CHECK = CheckResult("image_equals_kernel", True, "image rank 1")
_ORBIT_REF = _reference(OrbitWord, [("word",), ("twisted", False)], order=True)

# (class, reference, constructor argument tuples); shorter tuples use the defaults
CASES = [
    (tensor.Space, _reference(tensor.Space, [("dim",), ("field",)]),
     [(2, QQ), (2, QQ), (3, QQ), (2, GF(3)), (0, GF(2))]),
    (Matrix, _reference(Matrix, [("field",), ("ncols",), ("rows",)]),
     [(QQ, 2, (((0, 1),),)), (QQ, 2, (((0, 1),),)), (QQ, 2, ()), (GF(3), 2, ()), (QQ, 3, ())]),
    (CheckResult, _reference(CheckResult, [("name",), ("passed",), ("detail",)]),
     [("a", True, "x"), ("a", True, "x"), ("a", False, "x"), ("b", True, "y")]),
    (Certificate, _reference(Certificate, [
        ("sequence",), ("m",), ("n",), ("field_name",), ("dims",), ("checks",),
        ("error", None), ("elapsed_ms", None)]),
     [("M->T->S", 2, 3, "Q", {"t_dim": 8}, (_CHECK,)),
      ("M->T->S", 2, 3, "Q", {"t_dim": 8}, (_CHECK,), None, None),
      ("M->T->S", 2, 3, "Q", {"t_dim": 8}, (_CHECK,), None, 1.5),
      ("M->T->S", 2, 3, "Q", {}, (), "size_cap: too big"),
      ("Lambda->S'->S", 2, 3, "F3", {"t_dim": 8}, (_CHECK,))]),
    (CheckGrid, _reference(CheckGrid, [
        ("m_values",), ("n_values",), ("fields",), ("size_cap", DEFAULT_SIZE_CAP)]),
     [((2,), (2, 3), (QQ,)), ((2,), (2, 3), (QQ,), DEFAULT_SIZE_CAP), ((2,), (2, 3), (QQ,), 10),
      ((2, 3), (2,), (QQ, GF(3)))]),
    (OrbitWord, _ORBIT_REF,
     [((1, 2),), ((1, 2), False), ((1, 2), True), ((1, 1, 2),), ((),)]),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls,ref,samples", CASES, ids=IDS)
def test_equality_and_hash_match_the_reference(cls, ref, samples):
    for a, b in product(samples, repeat=2):
        x, y, rx, ry = cls(*a), cls(*b), ref(*a), ref(*b)
        assert (x == y) == (rx == ry)
        assert (x != y) == (rx != ry)
    for a in samples:
        x, rx = cls(*a), ref(*a)
        try:
            expected = hash(rx)
        except TypeError:  # a dict field makes both unhashable
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == expected
        # another class never compares equal, even with equal fields
        assert x != rx and not x == rx
        sub = type("Sub", (cls,), {})
        assert sub(*a) != x and x != sub(*a) and sub(*a) == sub(*a)
        assert x != tuple(getattr(x, f.name) for f in fields(ref))
        assert x != None  # noqa: E711
        assert x.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("cls,ref,samples", CASES, ids=IDS)
def test_repr_defaults_and_keywords_match_the_reference(cls, ref, samples):
    names = [f.name for f in fields(ref)]
    for a in samples:
        x, rx = cls(*a), ref(*a)
        assert repr(x) == repr(rx)
        assert [getattr(x, n) for n in names] == [getattr(rx, n) for n in names]
        assert cls(**dict(zip(names, a))) == x
        assert cls(*a[:1], **dict(zip(names[1:], a[1:]))) == x
    with pytest.raises(TypeError):
        cls(*samples[0], no_such_field=1)


@pytest.mark.parametrize("cls,ref,samples", CASES, ids=IDS)
def test_fields_are_read_only(cls, ref, samples):
    x = cls(*samples[0])
    for name in [f.name for f in fields(ref)] + ["no_such_field"]:
        before = repr(x)
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert repr(x) == before
        with pytest.raises(AttributeError):  # the reference refuses the same
            setattr(ref(*samples[0]), name, 0)


@pytest.mark.parametrize("cls,ref,samples", CASES, ids=IDS)
def test_copy_and_pickle_keep_the_value(cls, ref, samples):
    for a in samples:
        x = cls(*a)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is cls and y == x and repr(y) == repr(x)


def test_validation_errors():
    with pytest.raises(ValueError, match=r"^dimension must be >= 0$"):
        tensor.Space(-1, QQ)
    for axes, message in [
        (((), (2,), (QQ,)), "grid axes must be nonempty"),
        (((2,), (), (QQ,)), "grid axes must be nonempty"),
        (((2,), (2,), ()), "grid axes must be nonempty"),
        (((2, -1), (2,), (QQ,)), "m values must be >= 0"),
        (((2,), (2, 1), (QQ,)), "sequence checks need degree >= 2"),
    ]:
        with pytest.raises(ValueError) as info:
            CheckGrid(*axes)
        assert str(info.value) == message
    for args, message in [
        (((2, 1),), "word (2, 1) must be weakly increasing"),
        (((2, 1), False), "word (2, 1) must be weakly increasing"),
        (((1, 1), True), "twisted word (1, 1) must be strictly increasing"),
        (((1, 3, 2), True), "twisted word (1, 3, 2) must be strictly increasing"),
        (((1,), True), "twisted classes need degree >= 2"),
        (((), True), "twisted classes need degree >= 2"),
    ]:
        with pytest.raises(ValueError) as info:
            OrbitWord(*args)
        assert str(info.value) == message


_orbit_args = (st.lists(st.integers(1, 4), max_size=4)
               .map(lambda letters: tuple(sorted(letters)))
               .flatmap(lambda w: st.tuples(
                   st.just(w),
                   st.booleans() if len(w) >= 2 and len(set(w)) == len(w) else st.just(False))))


@settings(max_examples=200, deadline=None)
@given(st.lists(_orbit_args, max_size=8))
def test_orbit_word_order_matches_the_reference(args):
    words = [OrbitWord(*a) for a in args]
    refs = [_ORBIT_REF(*a) for a in args]
    for (x, rx), (y, ry) in product(zip(words, refs), repeat=2):
        assert (x < y, x <= y, x > y, x >= y) == (rx < ry, rx <= ry, rx > ry, rx >= ry)
    assert [repr(x) for x in sorted(words)] == [repr(r) for r in sorted(refs)]
    if words:
        with pytest.raises(TypeError):
            words[0] < words[0].word


def test_quotient_context_compares_by_identity():
    space = tensor.Space(2, QQ)
    a, b = bimodule.build_context(space, 3), bimodule.build_context(space, 3)
    assert a == a and a != b and not a == b
    assert hash(a) == object.__hash__(a) and hash(b) == object.__hash__(b)
    names = ("space", "degree", "terms", "index", "rel_basis", "word_classes")
    ref = _reference(bimodule.QuotientContext, [(n,) for n in names], eq=False)
    assert repr(a) == repr(ref(*(getattr(a, n) for n in names)))
    with pytest.raises(AttributeError):
        a.degree = 4


@pytest.mark.parametrize("values", [(2,), (2, QQ, 0)], ids=["short", "long"])
def test_record_init_takes_one_value_per_field(values):
    space = tensor.Space(2, QQ)
    with pytest.raises(TypeError, match=f"^expected 2 field values, got {len(values)}$"):
        Record.__init__(space, *values)
    assert space == tensor.Space(2, QQ)
