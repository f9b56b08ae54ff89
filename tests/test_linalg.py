import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorseq import bimodule, linalg, tensor
from tensorseq.fields import GF, QQ, _ZZ

from conftest import contained


def _sparse(field, v):
    """Sparse row of a dense vector."""
    return linalg.matrix(field, [v]).rows[0]


def _dense(field, row, ncols):
    out = [field.zero] * ncols
    for c, x in row:
        out[c] = x
    return tuple(out)


def _basis(field, rows):
    """Pivot column -> row index of the RREF of dense rows."""
    red, pivots = linalg.echelon_rows(field, linalg.matrix(field, rows).rows)
    return dict(zip(pivots, red))


def _residue(field, v, basis, ncols):
    return _dense(field, linalg.residue_list(field, _sparse(field, v), basis), ncols)


def test_rref_identity():
    m = linalg.matrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    red, pivots = linalg.echelon_rows(QQ, m.rows)
    assert tuple(red) == m.rows
    assert pivots == [0, 1, 2]
    assert len(red) == 3


def test_rref_dependent_rows():
    m = linalg.matrix(QQ, [[1, 2], [2, 4]])
    red, pivots = linalg.echelon_rows(QQ, m.rows)
    assert len(red) == 1
    assert red == [((0, Fraction(1)), (1, Fraction(2)))]  # the zero row is dropped


def test_rref_characteristic_two_collapse():
    m = linalg.matrix(GF(2), [[1, 1], [1, -1]])
    assert linalg.rank(m) == 1


def test_rref_normalizes_pivots():
    m = linalg.matrix(QQ, [[0, 2, 4], [3, 3, 3]])
    red, pivots = linalg.echelon_rows(QQ, m.rows)
    assert pivots == [0, 1] and len(red) == 2
    for row, c in zip(red, pivots):
        assert row[0] == (c, 1)


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        linalg.matrix(QQ, [[1, 2], [1]])


@pytest.mark.parametrize("value", [0.5, 1.0, Decimal("0.5")], ids=repr)
def test_matrix_refuses_inexact_entries(value):
    with pytest.raises(ValueError, match=re.escape(f"coefficient {value!r} is not")):
        linalg.matrix(GF(3), [[value, 1]])
    assert linalg.matrix(GF(3), [["1/2", Fraction(4), 0]]).rows == (((0, 2), (1, 1)),)


def test_residue_in_row_space_is_zero():
    basis = _basis(QQ, [[1, 2, 3], [0, 1, 1]])
    v = [1, 3, 4]  # row0 + row1
    assert linalg.residue_list(QQ, _sparse(QQ, v), basis) == []


def test_residue_empty_basis():
    assert _residue(QQ, [1, 0, 0], {}, 3) == (Fraction(1), Fraction(0), Fraction(0))


def test_residue_idempotent_and_dimension_check():
    basis = _basis(QQ, [[1, 1, 0], [0, 0, 1]])
    r1 = linalg.residue_list(QQ, _sparse(QQ, [2, 5, 7]), basis)
    assert linalg.residue_list(QQ, r1, basis) == r1
    with pytest.raises(ValueError):
        linalg.matrix(QQ, [[1, 2]], ncols=3)


def test_kernel_identity_empty():
    m = linalg.matrix(QQ, [[1, 0], [0, 1]])
    assert linalg.kernel_basis(m) == []


def test_kernel_zero_matrix():
    m = linalg.matrix(QQ, [[0, 0, 0], [0, 0, 0]], ncols=3)
    ker = linalg.kernel_basis(m)
    assert len(ker) == 3
    assert linalg.rank(linalg.Matrix(QQ, 3, tuple(ker))) == 3


def _annihilates(field, m, v):
    dense_v = _dense(field, v, m.ncols)
    for row in m.rows:
        total = field.zero
        for c, a in row:
            total = field.add(total, field.mul(a, dense_v[c]))
        if total != field.zero:
            return False
    return True


def test_kernel_vectors_annihilate():
    rng = random.Random(7)
    for field in (QQ, GF(3)):
        for _ in range(25):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
            m = linalg.matrix(field, [[rng.randint(-3, 3) for _ in range(ncols)]
                                      for _ in range(nrows)])
            ker = linalg.kernel_basis(m)
            assert len(ker) == ncols - linalg.rank(m)
            assert all(_annihilates(field, m, v) for v in ker)


def _row_space_member(field, rows, v):
    """Independent membership oracle: appending v must not raise the rank."""
    base = linalg.rank(linalg.matrix(field, rows))
    extended = linalg.matrix(field, list(rows) + [list(v)])
    return linalg.rank(extended) == base


def test_rref_preserves_row_space_and_rank():
    rng = random.Random(11)
    for field in (QQ, GF(2), GF(5)):
        for _ in range(20):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
            m = linalg.matrix(field, [[rng.randint(-4, 4) for _ in range(ncols)]
                                      for _ in range(nrows)])
            red, pivots = linalg.echelon_rows(field, m.rows)
            assert len(red) == linalg.rank(linalg.Matrix(field, ncols, tuple(red))) == len(pivots)
            red2, _ = linalg.echelon_rows(field, red)
            assert red2 == red  # rref is a fixed point
            again, again_piv = linalg.echelon_rows(field, m.rows)
            assert contained(field, red, pivots, again)
            assert contained(field, again, again_piv, red)
            assert contained(field, red, pivots, m.rows)


def test_residue_zero_iff_membership():
    rng = random.Random(13)
    for field in (QQ, GF(3)):
        for _ in range(30):
            nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
            rows = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(nrows)]
            basis = _basis(field, rows)
            v = [rng.randint(-2, 2) for _ in range(ncols)]
            in_space = _row_space_member(field, rows, v)
            assert (not linalg.residue_list(field, _sparse(field, v), basis)) == in_space


def test_residue_handles_non_unit_pivots():
    basis = _basis(QQ, [[2, 4, 0], [0, 0, 3]])
    assert linalg.residue_list(QQ, _sparse(QQ, [2, 4, 3]), basis) == []
    assert _residue(QQ, [1, 0, 0], basis, 3) == (Fraction(0), Fraction(-2), Fraction(0))


def test_integer_elimination_never_divides():
    """Over the integers a pivot of 2 has no inverse: `echelon_rows` and
    `kernel_basis` raise where Q would scale the row by 1/2.  A pivot of
    -1 still reduces, as over Q."""
    row = ((0, 2), (1, 1))
    with pytest.raises(ValueError, match="^2 is not a unit of the integers$"):
        linalg.echelon_rows(_ZZ, [row])
    with pytest.raises(ValueError, match="^2 is not a unit of the integers$"):
        linalg.kernel_basis(linalg.Matrix(_ZZ, 2, (row,)))
    assert linalg.echelon_rows(QQ, [row]) == ([((0, 1), (1, Fraction(1, 2)))], [0])
    assert linalg.echelon_rows(_ZZ, [((0, -1), (1, 3))]) == ([((0, 1), (1, -3))], [0])
    assert linalg.kernel_basis(linalg.Matrix(_ZZ, 2, (((0, -1), (1, 3)),))) == [((0, 3), (1, 1))]
    assert [_ZZ.inv(1), _ZZ.inv(-1)] == [1, -1]
    with pytest.raises(ValueError, match="^0 is not a unit of the integers$"):
        _ZZ.inv(0)


def test_kernel_of_degree2_projection():
    """Brute-force 4x3 case: the kernel of the word -> monomial map on
    two letters is spanned by e_(1,2) - e_(2,1)."""
    mat = tensor.symmetrize_matrix(tensor.Space(2, QQ), 2)
    assert (mat.nrows, mat.ncols) == (4, 3) and linalg.rank(mat) == 3
    ker = linalg.kernel_basis(linalg.transpose(mat))
    assert len(ker) == 1
    # words in lex order: (1,1), (1,2), (2,1), (2,2)
    span = _basis(QQ, [[0, 1, -1, 0]])
    assert linalg.residue_list(QQ, ker[0], span) == []


def test_transpose_roundtrip():
    m = linalg.matrix(GF(5), [[1, 2, 3], [4, 0, 1]])
    assert linalg.transpose(linalg.transpose(m)).rows == m.rows


# --- differential tests against a dense oracle ------------------------------

def dense_rref(field, rows, ncols):
    """Textbook Gauss-Jordan on dense lists, generic field operations:
    (nonzero RREF rows, pivot columns)."""
    rows = [list(r) for r in rows]
    add, mul, neg = field.add, field.mul, field.neg
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [mul(inv, x) for x in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [a if not b else add(a, neg(mul(f, b))) for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in rows[:r]], pivots


def dense_residue(field, v, red, pivots):
    v = list(v)
    for row, c in zip(red, pivots):
        f = v[c]
        if f:
            v = [field.add(a, field.neg(field.mul(f, b))) for a, b in zip(v, row)]
    return tuple(v)


BIG_PRIME = 2_147_483_647
FIELDS = [QQ, GF(2), GF(3), GF(BIG_PRIME)]


@st.composite
def unit_matrices(draw, max_rows=7, max_cols=8):
    """Integer matrices with entries in {0, 1, -1}."""
    ncols = draw(st.integers(1, max_cols))
    nrows = draw(st.integers(0, max_rows))
    cell = st.sampled_from([0, 0, 1, -1])
    return draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows)), ncols


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(unit_matrices(), st.data())
def test_echelon_and_residue_match_dense_oracle(field, mat, data):
    ints, ncols = mat
    dense_rows = [[field.normalize(x) for x in row] for row in ints]
    m = linalg.matrix(field, ints, ncols=ncols)
    red, pivots = linalg.echelon_rows(field, m.rows)
    want, want_piv = dense_rref(field, dense_rows, ncols)
    assert pivots == want_piv
    assert [_dense(field, row, ncols) for row in red] == want
    v = data.draw(st.lists(st.sampled_from([0, 1, -1, 2]), min_size=ncols, max_size=ncols))
    got = linalg.residue_list(field, _sparse(field, v), dict(zip(pivots, red)))
    assert _dense(field, got, ncols) == dense_residue(
        field, [field.normalize(x) for x in v], want, want_piv)
    ker = linalg.kernel_basis(m)
    assert len(ker) == ncols - len(pivots)
    assert all(_annihilates(field, m, k) for k in ker)


@settings(max_examples=60, deadline=None)
@given(unit_matrices())
def test_rank_mod_p_bounded_by_rank_over_q(mat):
    ints, ncols = mat
    rank_q = linalg.rank(linalg.matrix(QQ, ints, ncols=ncols))
    for p in (2, 3):
        assert linalg.rank(linalg.matrix(GF(p), ints, ncols=ncols)) <= rank_q
    # every minor of a {0, +-1} matrix with at most 8 columns is at most
    # 8^4 = 4096 in absolute value (Hadamard), so none vanishes mod BIG_PRIME
    assert linalg.rank(linalg.matrix(GF(BIG_PRIME), ints, ncols=ncols)) == rank_q


def test_relation_rref_matches_dense_oracle():
    space = tensor.Space(3, QQ)
    ctx = bimodule.build_context(space, 5)
    amb = ctx.ambient_dim
    gens = [_dense(QQ, sorted((ctx.index[k], c)
                              for k, c in bimodule.BimodElement(space, 5, g).terms.items()), amb)
            for g in bimodule.relation_generators(3, 5)]
    want, want_piv = dense_rref(QQ, gens, amb)
    assert list(ctx.rel_basis) == want_piv
    assert [_dense(QQ, row, amb) for row in ctx.rel_rows] == want


# --- the Q path: non-unit pivots and non-integral values ---------------------

Q_CELLS = [Fraction(x) for x in range(-3, 4)] + [Fraction(1, 2), Fraction(-2, 3)]


@st.composite
def rational_matrices(draw, max_rows=6, max_cols=7):
    """Rational matrices with entries in {-3..3, 1/2, -2/3}, so that
    non-unit pivots and non-integral values both occur."""
    ncols = draw(st.integers(1, max_cols))
    nrows = draw(st.integers(0, max_rows))
    cell = st.sampled_from(Q_CELLS)
    return draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows)), ncols


@settings(max_examples=120, deadline=None)
@given(rational_matrices(), st.data())
def test_q_echelon_and_residue_match_dense_fraction_oracle(mat, data):
    rows, ncols = mat
    m = linalg.matrix(QQ, rows, ncols=ncols)
    red, pivots = linalg.echelon_rows(QQ, m.rows)
    want, want_piv = dense_rref(QQ, rows, ncols)
    assert pivots == want_piv
    assert [_dense(QQ, row, ncols) for row in red] == want
    v = data.draw(st.lists(st.sampled_from(Q_CELLS), min_size=ncols, max_size=ncols))
    got = linalg.residue_list(QQ, _sparse(QQ, v), dict(zip(pivots, red)))
    assert _dense(QQ, got, ncols) == dense_residue(QQ, v, want, want_piv)
    ker = linalg.kernel_basis(m)
    assert len(ker) == ncols - len(pivots)
    assert all(_annihilates(QQ, m, k) for k in ker)


def _recombined(field, rows, rng):
    """A shuffled copy of dense `rows` spanning the same space: rows are
    added to one another, negated, and one combination is appended."""
    rows = [[field.normalize(x) for x in row] for row in rows]
    rng.shuffle(rows)
    for _ in range(2 * len(rows)):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        if i == j:
            rows[i] = [field.neg(x) for x in rows[i]]
        else:
            c = field.normalize(rng.choice([1, -1, 2]))
            rows[i] = [field.add(x, field.mul(c, y)) for x, y in zip(rows[i], rows[j])]
    if rows:
        rows.append([field.add(x, y) for x, y in zip(rows[0], rows[-1])])
    return rows


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(unit_matrices(), st.data(), st.randoms(use_true_random=False))
def test_equal_rref_iff_equal_span(field, mat, data, rng):
    ints, ncols = mat
    other = data.draw(st.lists(st.lists(st.sampled_from([0, 0, 1, -1]), min_size=ncols,
                                        max_size=ncols), max_size=7))
    a, a_piv = linalg.echelon_rows(field, linalg.matrix(field, ints, ncols=ncols).rows)
    b, b_piv = linalg.echelon_rows(field, linalg.matrix(field, other, ncols=ncols).rows)
    same_span = (contained(field, a, a_piv, b)
                 and contained(field, b, b_piv, a))
    assert (a == b) == same_span
    mixed = linalg.matrix(field, _recombined(field, ints, rng), ncols=ncols)
    assert linalg.echelon_rows(field, mixed.rows) == (a, a_piv)


# --- the pieces of the image = kernel certificate ----------------------------

def _kernel_matches_free_columns(field, dense_rows, ncols):
    m = linalg.matrix(field, dense_rows, ncols=ncols)
    _, want_piv = dense_rref(field, dense_rows, ncols)
    free = [j for j in range(ncols) if j not in want_piv]
    ker = linalg.kernel_basis(m)
    assert len(ker) == ncols - len(want_piv) == len(free)
    for j, k in zip(free, ker):
        v = _dense(field, k, ncols)
        assert [v[f] for f in free] == [1 if f == j else 0 for f in free]
    assert linalg.rank(linalg.Matrix(field, ncols, tuple(ker))) == len(ker)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(unit_matrices())
def test_kernel_basis_free_column_property(field, mat):
    ints, ncols = mat
    _kernel_matches_free_columns(field, [[field.normalize(x) for x in r] for r in ints], ncols)


@settings(max_examples=40, deadline=None)
@given(rational_matrices())
def test_q_kernel_basis_free_column_property(mat):
    rows, ncols = mat
    _kernel_matches_free_columns(QQ, rows, ncols)


# --- kernel_basis peels one-entry rows ---------------------------------------

def full_elimination_kernel(m):
    """Reference `kernel_basis`: eliminate every row, then read one vector
    per free column off the RREF."""
    rows, pivots = linalg.echelon_rows(m.field, m.rows)
    neg = m.field.neg
    pivot_set = set(pivots)
    entries = {j: [] for j in range(m.ncols) if j not in pivot_set}
    for c, row in zip(pivots, rows):
        for j, x in row[1:]:
            entries[j].append((c, neg(x)))
    return [tuple(e) + ((j, 1),) for j, e in entries.items()]


@st.composite
def peelable_matrices(draw, field, max_cols=8):
    """Dense rows biased towards one-entry rows: one-entry rows, repeated
    on some columns; longer rows that also hold those columns; and longer
    rows that shrink to one entry, or to nothing, once those columns are
    dropped."""
    ncols = draw(st.integers(1, max_cols))
    cols = st.integers(0, ncols - 1)
    values = [x for x in (1, -1, 2, 3) if field.normalize(x)]
    if field.char == 0:
        values += [Fraction(1, 2), Fraction(-2, 3)]
    value = st.sampled_from(values)
    peeled = draw(st.lists(cols, min_size=1, max_size=ncols, unique=True))
    rows = [{c: draw(value)} for c in peeled for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 6))):
        kept = draw(st.lists(cols, max_size=3, unique=True))
        dropped = draw(st.lists(st.sampled_from(peeled), min_size=1, max_size=3))
        rows.append({c: draw(value) for c in dropped + kept})
    rows = draw(st.permutations(rows))
    return [[row.get(j, 0) for j in range(ncols)] for row in rows], ncols


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernel_basis_matches_full_elimination(field, data):
    dense_rows, ncols = data.draw(peelable_matrices(field))
    m = linalg.matrix(field, dense_rows, ncols=ncols)
    assert repr(linalg.kernel_basis(m)) == repr(full_elimination_kernel(m))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(unit_matrices())
def test_kernel_basis_matches_full_elimination_on_unit_matrices(field, mat):
    ints, ncols = mat
    m = linalg.matrix(field, ints, ncols=ncols)
    assert repr(linalg.kernel_basis(m)) == repr(full_elimination_kernel(m))
