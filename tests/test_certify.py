import importlib
import json
import pkgutil
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensorseq
from tensorseq import (bases, bimodule, certify, degree2, evensym, linalg, mseq, sprimeseq,
                       tensor)
from tensorseq.certificates import (Certificate, CheckResult, _is_difference,
                                    certificates_to_json, image_equals_kernel)
from tensorseq.fields import _ZZ, GF, QQ

from conftest import contained

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


def test_grid_validation():
    with pytest.raises(ValueError):
        certify.CheckGrid((), (2,), (QQ,))
    with pytest.raises(ValueError):
        certify.CheckGrid((2,), (1, 2), (QQ,))
    with pytest.raises(ValueError):
        certify.CheckGrid((-1,), (2,), (QQ,))


def test_run_grid_spec_example():
    grid = certify.CheckGrid((2, 3), (2, 3, 4), (QQ, GF(2), GF(3)))
    certs = certify.run_grid(grid, "both")
    assert len(certs) == 36
    assert all(c.passed for c in certs)
    keys = [(c.m, c.n, c.field_name, c.sequence) for c in certs]
    assert keys == sorted(keys)


def test_run_grid_selections():
    grid = certify.CheckGrid((2,), (2,), (QQ,))
    assert [c.sequence for c in certify.run_grid(grid, "m")] == ["M->T->S"]
    assert [c.sequence for c in certify.run_grid(grid, "sprime")] == ["Lambda->S'->S"]
    with pytest.raises(ValueError):
        certify.run_grid(grid, "everything")


def test_run_grid_deterministic():
    grid = certify.CheckGrid((2, 3), (2, 3), (QQ, GF(2)))
    one = certify.run_grid(grid, "both")
    two = certify.run_grid(grid, "both")
    assert certificates_to_json(one, include_timing=False) == \
        certificates_to_json(two, include_timing=False)


def _symmetrize_variant(space, n, change):
    """The degree-n symmetrization matrix: correct, with the column of the
    monomial 123 dropped, or with an indicator column of the word 123 added."""
    sym = tensor.symmetrize_matrix(space, n)
    if change == "drop":
        dropped = list(tensor.all_monomials(space.dim, n)).index((1, 2, 3))
        rows = tuple(tuple((c, x) for c, x in row if c != dropped) for row in sym.rows)
        return linalg.Matrix(space.field, sym.ncols, rows)
    if change == "add":
        word = list(tensor.all_words(space.dim, n)).index((1, 2, 3))
        rows = tuple(row + ((sym.ncols, space.field.one),) if i == word else row
                     for i, row in enumerate(sym.rows))
        return linalg.Matrix(space.field, sym.ncols + 1, rows)
    return sym


def _maps_to_zero(field, row, projection):
    out = [field.zero] * projection.ncols
    for j, x in row:
        for c, y in projection.rows[j]:
            out[c] = field.add(out[c], field.mul(x, y))
    return not any(out)


# Dropping the column loses the constraint that the six orderings of 123
# sum to zero, so the kernel gains a vector outside the image.  Adding the
# indicator of the word 123 moves the expansion of 1|2^3 out of the
# kernel, while the smaller kernel stays inside the image.
@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
@pytest.mark.parametrize("change,img_in_ker,ker_in_img", [
    (None, True, True), ("drop", True, False), ("add", False, True)])
def test_image_equals_kernel_flags(field, change, img_in_ker, ker_in_img):
    space = tensor.Space(3, field)
    word_index = {w: i for i, w in enumerate(tensor.all_words(3, 3))}
    image = []
    for term in bimodule.all_bimod_terms(3, 3):
        expanded = bimodule.expand_wedge(bimodule.BimodElement(space, 3, {term: 1}))
        image.append(tuple(sorted((word_index[w], c) for w, c in expanded.terms.items())))
    projection = _symmetrize_variant(space, 3, change)
    assert all(_maps_to_zero(field, row, projection) for row in image) == img_in_ker
    check, _, _ = image_equals_kernel(field, image, projection)
    assert check.name == "image_equals_kernel"
    assert check.passed == (img_in_ker and ker_in_img)
    assert check.detail.endswith(
        f"image<=kernel {img_in_ker}, kernel<=image {ker_in_img}")


def _image_equals_kernel_oracle(field, image_rows, projection):
    """The check as first defined: RREF of the image and of the kernel
    basis, then containment both ways."""
    img_rows, img_piv = linalg.echelon_rows(field, image_rows)
    ker_rows, ker_piv = linalg.echelon_rows(
        field, linalg.kernel_basis(linalg.transpose(projection)))
    img_in_ker = contained(field, ker_rows, ker_piv, img_rows)
    ker_in_img = contained(field, img_rows, img_piv, ker_rows)
    return CheckResult(
        "image_equals_kernel", img_in_ker and ker_in_img,
        f"image rank {len(img_rows)}, kernel rank {len(ker_rows)}, "
        f"image<=kernel {img_in_ker}, kernel<=image {ker_in_img}")


Q_CELLS = [Fraction(x) for x in (0, 0, 1, -1, 2, -3)] + [Fraction(1, 2), Fraction(-2, 3)]
FIELDS = [QQ, GF(2), GF(3), GF(2_147_483_647)]


def _nonzero(field):
    """Nonzero scalars of `field` drawn from the test cells."""
    cells = Q_CELLS if field.char == 0 else [1, -1, 2, -3]
    return [x for x in dict.fromkeys(field.normalize(c) for c in cells) if x]


def _difference(field, u, v, c):
    """The sparse row c * (e_u - e_v), u != v."""
    return ((u, c), (v, field.neg(c))) if u < v else ((v, field.neg(c)), (u, c))


@st.composite
def edge_lists(draw, nv):
    """Edges (u, v), u != v, on vertices range(nv): random ones, parallel
    copies of earlier ones, and reversed copies.  Vertices that no edge
    touches stay isolated."""
    edges = []
    for _ in range(draw(st.integers(0, 10)) if nv > 1 else 0):
        if edges and draw(st.booleans()):
            u, v = draw(st.sampled_from(edges))
            if draw(st.booleans()):
                u, v = v, u
        else:
            u = draw(st.integers(0, nv - 1))
            v = draw(st.integers(0, nv - 2))
            v += v >= u
        edges.append((u, v))
    return edges


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_union_find_rank_matches_elimination(field, data):
    """The image rank is the number of union-find merges; it must equal the
    rank that elimination finds for the same difference rows, whatever
    their scalars, orientation, repetition or isolated vertices."""
    nv = data.draw(st.integers(1, 9))
    scalars = st.sampled_from(_nonzero(field))
    rows = [_difference(field, u, v, data.draw(scalars))
            for u, v in data.draw(edge_lists(nv))]
    no_columns = linalg.Matrix(field, 0, ((),) * nv)
    check, image_rank, projection_rank = image_equals_kernel(field, rows, no_columns)
    assert image_rank == linalg.rank(linalg.Matrix(field, nv, tuple(rows)))
    assert projection_rank == 0
    # the kernel is everything, and the edges never span all of it
    assert check.detail == (f"image rank {image_rank}, kernel rank {nv}, "
                            "image<=kernel True, kernel<=image False")


@st.composite
def fibred_cases(draw, field):
    """A projection P sending each source basis vector to the row of its
    fibre (fibre `tgt` maps to zero), and difference rows on random edges
    inside fibres, so that the image lies in P's kernel and fills it when
    the edges connect every fibre.  Sometimes one edge crosses two
    fibres, and sometimes one entry of P is changed afterwards, so that
    either containment can fail."""
    scalars = _nonzero(field)
    src = draw(st.integers(1, 8))
    tgt = draw(st.integers(1, 4))
    ncols = tgt + 1  # column tgt is shared by some fibres
    fibre = draw(st.lists(st.integers(0, tgt - 1), min_size=src, max_size=src))
    if draw(st.integers(0, 3)) == 0:
        fibre[draw(st.integers(0, src - 1))] = tgt
    fibre_rows = []
    for t in range(tgt):
        row = [field.zero] * ncols
        row[t] = draw(st.sampled_from(scalars))
        if draw(st.booleans()):
            row[tgt] = draw(st.sampled_from(scalars))
        fibre_rows.append(row)
    fibre_rows.append([field.zero] * ncols)
    dense = [list(fibre_rows[f]) for f in fibre]
    edges = []
    for u, v in draw(edge_lists(src)):
        same = [w for w in range(src) if w != u and fibre[w] == fibre[u]]
        if same:
            edges.append((u, same[v % len(same)]))
    across = [(u, v) for u in range(src) for v in range(src) if fibre[u] != fibre[v]]
    if across and draw(st.booleans()):
        edges.append(draw(st.sampled_from(across)))
    image = [_difference(field, u, v, draw(st.sampled_from(scalars)))
             for u, v in draw(st.permutations(edges))]
    if draw(st.booleans()):
        cells = [field.zero] + scalars
        dense[draw(st.integers(0, src - 1))][draw(st.integers(0, ncols - 1))] = \
            draw(st.sampled_from(cells))
    return image, linalg.matrix(field, dense, ncols=ncols)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_image_equals_kernel_matches_oracle(field, data):
    image, projection = data.draw(fibred_cases(field))
    check, image_rank, projection_rank = image_equals_kernel(field, image, projection)
    assert check == _image_equals_kernel_oracle(field, image, projection)
    assert image_rank == linalg.rank(linalg.Matrix(field, projection.nrows, tuple(image)))
    assert projection_rank == linalg.rank(projection)


def _m_sequence_image(space, n):
    """The expansion rows of the degree-n M sequence and its projection."""
    word_index = {w: i for i, w in enumerate(tensor.all_words(space.dim, n))}
    terms = mseq.all_bimod_terms(space.dim, n)
    return (mseq._expansion_rows(space.field, word_index, terms),
            tensor.symmetrize_matrix(space, n))


_ROW_RINGS = (_ZZ, QQ, GF(2), GF(3))


@pytest.mark.parametrize("field", _ROW_RINGS, ids=str)
@settings(max_examples=50, deadline=None)
@given(st.data())
def test_edge_rows_are_the_differences_the_check_reads(field, data):
    """`bases.edge_rows` writes e_u - e_v sorted by column, a row that
    `_is_difference` accepts; the reversed edge gives the negated row."""
    nv = data.draw(st.integers(2, 12))
    ends = st.integers(0, nv - 1)
    edges = data.draw(st.lists(st.tuples(ends, ends).filter(lambda e: e[0] != e[1]),
                               max_size=10))
    one, neg_one = field.one, field.neg(field.one)
    rows = bases.edge_rows(field, edges)
    assert rows == [((u, one), (v, neg_one)) if u < v else ((v, neg_one), (u, one))
                    for u, v in edges]
    assert all(_is_difference(field, nv, row) for row in rows)
    assert bases.edge_rows(field, [(v, u) for u, v in edges]) == \
        [tuple((j, field.neg(x)) for j, x in row) for row in rows]


@pytest.mark.parametrize("field", _ROW_RINGS, ids=str)
@settings(max_examples=50, deadline=None)
@given(st.data())
def test_fibre_matrix_rows_hold_one_one(field, data):
    ncols = data.draw(st.integers(1, 8))
    fibres = data.draw(st.lists(st.integers(0, ncols - 1), max_size=12))
    projection = bases.fibre_matrix(field, fibres, ncols)
    assert (projection.field, projection.ncols) == (field, ncols)
    assert projection.rows == tuple(((j, field.one),) for j in fibres)


# e_0 + e_1 in characteristic 2 is a difference, so F2 is left out
@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=str)
@pytest.mark.parametrize("bad", [
    ((0, 1),),
    ((0, 1), (1, -1), (2, 1)),
    ((0, 1), (1, 1)),
    ((0, 1), (27, -1)),
], ids=["one entry", "three entries", "equal values", "column out of range"])
@pytest.mark.parametrize("at", [0, 17])
def test_non_difference_rows_fail_closed(field, bad, at):
    """A row that is not a * (e_u - e_v) on the source basis fails the
    check and is named; it is neither re-signed nor dropped, either of
    which would let this otherwise exact image pass."""
    space = tensor.Space(3, field)
    image, projection = _m_sequence_image(space, 3)
    assert image_equals_kernel(field, image, projection)[0].passed
    row = tuple((c, field.normalize(x)) for c, x in bad)
    check, image_rank, projection_rank = image_equals_kernel(
        field, image[:at] + [row] + image[at:], projection)
    assert check.name == "image_equals_kernel"
    assert not check.passed
    assert check.detail == f"image row {at} is not a difference of two basis vectors"
    assert image_rank is None
    assert projection_rank == tensor.dim_sym(3, 3)


@pytest.mark.parametrize("field,a,passed", [
    (_ZZ, 1, True), (_ZZ, -1, True), (_ZZ, 2, False), (_ZZ, -2, False),
    (QQ, 2, True), (GF(3), 2, True)], ids=str)
def test_integer_image_rows_must_be_unit_differences(field, a, passed):
    """Over the integers an image row must be +-(e_u - e_v): 2(e_u - e_v)
    is an edge over Q and F3 but zero over F2, so the integer check,
    which stands for every field, must not count it.  Q and F_p accept
    any nonzero multiple."""
    projection = linalg.Matrix(field, 1, (((0, field.one),),) * 2)
    row = ((0, field.normalize(a)), (1, field.normalize(-a)))
    check, image_rank, _ = image_equals_kernel(field, [row], projection)
    assert check.passed == passed
    if passed:
        assert image_rank == 1
    else:
        assert check.detail == "image row 0 is not a difference of two basis vectors"
        assert image_rank is None


def _is_difference_by_characteristic(p, nv, row, integral):
    """The difference test as it branched on the characteristic `p` and
    on `integral` (the integers) before it asked the ring for its units:
    the oracle for `_is_difference`."""
    if len(row) != 2:
        return False
    (u, a), (v, b) = row
    if not (u != v and 0 <= u < nv and 0 <= v < nv):
        return False
    if p:
        return a % p != 0 and (a + b) % p == 0
    if integral:
        return a in (1, -1) and a + b == 0
    return a.numerator != 0 and a.numerator == -b.numerator and a.denominator == b.denominator


_RINGS = [_ZZ, QQ, GF(2), GF(3)]


def _scalars(field):
    values = [field.normalize(x) for x in range(-4, 5)]
    if field is QQ:
        values += [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 4)]
    return values


@pytest.mark.parametrize("field", _RINGS, ids=str)
def test_is_difference_asks_the_ring_as_the_characteristic_branches_did(field):
    """On every a(e_u - e_v), 2(e_u - e_v) included, and every row of two
    equal values, over small columns and scalars, the ring's unit test
    decides exactly as the branches on characteristic and integrality
    did."""
    nv, integral = 4, field is _ZZ
    for u, v, a in product(range(-1, nv + 1), range(-1, nv + 1), _scalars(field)):
        for row in (((u, a), (v, field.neg(a))), ((u, a), (v, a))):
            assert _is_difference(field, nv, row) == _is_difference_by_characteristic(
                field.char, nv, row, integral), row


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_is_difference_agrees_with_the_characteristic_branches_on_random_rows(data):
    field = data.draw(st.sampled_from(_RINGS), label="field")
    entry = st.tuples(st.integers(-1, 4), st.sampled_from(_scalars(field)))
    row = tuple(data.draw(st.lists(entry, max_size=3), label="row"))
    assert _is_difference(field, 4, row) == _is_difference_by_characteristic(
        field.char, 4, row, field is _ZZ)


def test_echelon_rows_calls_per_cell(monkeypatch):
    """Regression guard: no image and no relation span is eliminated.
    Every cell, M (whose relation rank comes from the leading-term
    witness) and S' alike, eliminates only the projection's transpose,
    and an M cell is computed once for both fields.  `echelon_rows` is
    counted at every module that binds it."""
    for info in pkgutil.iter_modules(tensorseq.__path__):
        importlib.import_module(f"tensorseq.{info.name}")
    real = linalg.echelon_rows
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    bound = [mod for name, mod in sys.modules.items()
             if name.startswith("tensorseq") and getattr(mod, "echelon_rows", None) is real]
    assert linalg in bound
    for mod in bound:
        monkeypatch.setattr(mod, "echelon_rows", counted)
    per_cell = []
    for mod in (mseq, sprimeseq):
        def recorded(space, n, size_cap=None, verify=mod.verify_sequence):
            before = len(calls)
            cert = verify(space, n, size_cap)
            per_cell.append((cert.sequence, len(calls) - before))
            return cert
        monkeypatch.setattr(mod, "verify_sequence", recorded)
    certs = certify.run_grid(certify.CheckGrid((2, 3), (2, 3, 4), (QQ, GF(3))), "both")
    assert len(certs) == 24 and all(c.passed for c in certs)
    assert sorted(per_cell) == [("Lambda->S'->S", 1)] * 12 + [("M->T->S", 1)] * 6
    assert len(calls) == 18


def test_kernel_basis_eliminates_only_rows_with_two_entries(monkeypatch):
    """Work guard for the peel in `kernel_basis`.  At (8, 6) the
    projection's transpose has one row per monomial, 1,716 in all; only
    the C(8, 6) = 28 with six distinct letters hold two entries (the
    plain and the twisted class), so the one `echelon_rows` call of the
    cell receives 28 rows with 56 entries.  `echelon_rows` is recorded at
    every module that binds it."""
    for info in pkgutil.iter_modules(tensorseq.__path__):
        importlib.import_module(f"tensorseq.{info.name}")
    real = linalg.echelon_rows
    received = []

    def recorded(field, rows):
        rows = list(rows)
        received.append((len(rows), sum(map(len, rows))))
        return real(field, rows)

    for name, mod in list(sys.modules.items()):
        if name.startswith("tensorseq") and getattr(mod, "echelon_rows", None) is real:
            monkeypatch.setattr(mod, "echelon_rows", recorded)
    for field in (QQ, GF(3)):
        received.clear()
        cert = evensym.verify_sequence(tensor.Space(8, field), 6)
        assert cert.passed and cert.dims["s_dim"] == 1716
        assert received == [(28, 56)]


@pytest.mark.parametrize("workload,which,ms,ns", [
    ("mseq-grid", "m", (2, 3), (2, 3, 4, 5, 6)),
    ("sprime-grid", "sprime", (6, 7, 8), (4, 5, 6))])
def test_benchmark_grids_reproduce_reference_bytes(workload, which, ms, ns):
    grid = certify.CheckGrid(ms, ns, (QQ, GF(3)))
    doc = certificates_to_json(certify.run_grid(grid, which), include_timing=False)
    assert doc.encode("utf-8") == (REFERENCE / f"{workload}.json").read_bytes()


def _counting_verify_sequence(monkeypatch):
    calls = []
    real = mseq.verify_sequence

    def counted(space, n, size_cap=None):
        calls.append((space.dim, n))
        return real(space, n, size_cap)

    monkeypatch.setattr(mseq, "verify_sequence", counted)
    return calls


def test_m_cells_are_computed_once_and_stamped_per_field(monkeypatch):
    """A q,f2,f3 grid runs one M computation per (m, n); the three
    certificates of a cell differ only in their field name, and share
    the `elapsed_ms` of that computation."""
    calls = _counting_verify_sequence(monkeypatch)
    fields = (QQ, GF(2), GF(3))
    certs = certify.run_grid(certify.CheckGrid((2, 3), (2, 3, 4), fields), "m")
    cells = [(m, n) for m in (2, 3) for n in (2, 3, 4)]
    assert sorted(calls) == cells
    assert len(certs) == 18 and all(c.passed for c in certs)
    by_cell = {}
    for c in certs:
        by_cell.setdefault((c.m, c.n), []).append(c)
    for copies in by_cell.values():
        assert sorted(c.field_name for c in copies) == ["F2", "F3", "Q"]
        first = copies[0]
        assert all(c.stamped(first.field_name) == first for c in copies)
        assert first.elapsed_ms is not None


def test_m_cap_refusal_is_stamped_per_field(monkeypatch):
    calls = _counting_verify_sequence(monkeypatch)
    grid = certify.CheckGrid((3,), (5,), (QQ, GF(2)), size_cap=20)
    certs = certify.run_grid(grid, "m")
    assert calls == [(3, 5)]
    assert [c.field_name for c in certs] == ["F2", "Q"]
    assert all(c.capped and c.error == certs[0].error for c in certs)


_ACCEPTANCE_CELLS = [(m, n) for m in (2, 3) for n in (2, 3, 4, 5)] + [(4, 2), (4, 3), (4, 4)]


@pytest.mark.parametrize("m,n", _ACCEPTANCE_CELLS)
def test_stamped_relation_rank_matches_elimination_over_each_field(m, n):
    """Field-agreement oracle: the one integer M computation, stamped
    with each field's name, gives the relation rank that `build_context`
    finds by eliminating the relation span over that field."""
    fields = (QQ, GF(2), GF(3), GF(5))
    certs = certify.run_grid(certify.CheckGrid((m,), (n,), fields), "m")
    by_name = {c.field_name: c for c in certs}
    assert sorted(by_name) == sorted(f.name for f in fields)
    for field in fields:
        cert = by_name[field.name]
        ctx = bimodule.build_context(tensor.Space(m, field), n)
        assert cert.passed
        assert cert.dims["wm_rank"] == ctx.rel_rank
        assert cert.dims["m_dim"] == ctx.quotient_dim


def test_run_grid_cap_isolated_per_cell():
    grid = certify.CheckGrid((3,), (2, 5), (QQ,), size_cap=20)
    certs = certify.run_grid(grid, "m")
    by_n = {c.n: c for c in certs}
    assert by_n[2].passed
    assert by_n[5].capped and not by_n[5].passed
    assert "size_cap" in by_n[5].error


def test_degree2_cells_reproduce_classical_sequence():
    for m in (2, 3, 4):
        mc = bimodule.verify_sequence(tensor.Space(m, QQ), 2)
        sc = evensym.verify_sequence(tensor.Space(m, QQ), 2)
        assert mc.passed and sc.passed
        assert mc.dims["wm_rank"] == 0
        assert mc.dims["m_dim"] == sc.dims["lambda_dim"]
        assert sc.dims["sprime_dim"] == m * m == mc.dims["t_dim"]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_degree2_agreement(m):
    for field in (QQ, GF(2), GF(3), GF(5)):
        cert = degree2.verify_degree2_agreement(tensor.Space(m, field))
        assert cert.passed, cert.to_json_dict()


@pytest.mark.parametrize("n", [0, 1])
def test_low_degree_is_refused(n):
    space = tensor.Space(2, QQ)
    with pytest.raises(ValueError, match=f"^degree must be >= 2, got {n}$"):
        mseq.verify_sequence(space, n)
    with pytest.raises(ValueError, match="^need degree >= 2$"):
        sprimeseq.wedge_embed_matrix(space, n)


@pytest.mark.parametrize("name,wrong", [
    ("to_sym", lambda e: tensor.SymElement(e.space, e.degree, {})),
    ("wedge_embed", lambda e: evensym.EvenSymElement(e.space, e.degree, {})),
], ids=["projection", "embedding"])
def test_degree2_agreement_fails_on_a_map_that_disagrees(monkeypatch, name, wrong):
    """A word whose projection, or a wedge pair whose embedding, disagrees
    under the word/class identification fails `orbit_maps_match_degree2`
    alone, and the first disagreement ends the comparison."""
    calls = []

    def counted(e):
        calls.append(e)
        return wrong(e)

    monkeypatch.setattr(evensym, name, counted)
    cert = degree2.verify_degree2_agreement(tensor.Space(3, QQ))
    assert cert.summary() == "[FAIL] degree2 m=3 n=2 field=Q"
    assert [c.name for c in cert.checks if not c.passed] == ["orbit_maps_match_degree2"]
    assert len(calls) == 1


def test_fail_closed_aggregation():
    good = CheckResult("a", True, "")
    bad = CheckResult("b", False, "broken")
    base = dict(sequence="x", m=1, n=2, field_name="Q", dims={})
    assert Certificate(checks=(good,), **base).passed
    assert not Certificate(checks=(good, bad), **base).passed
    assert not Certificate(checks=(), **base).passed
    assert not Certificate(checks=(good,), error="size_cap: too big", **base).passed
    assert Certificate(checks=(), error="size_cap: too big", **base).capped


def test_json_canonical_and_roundtrips():
    certs = certify.run_grid(certify.CheckGrid((2,), (2,), (QQ,)), "both")
    with_timing = certificates_to_json(certs, include_timing=True)
    docs = json.loads(with_timing)
    assert all("elapsed_ms" in d for d in docs)
    without = json.loads(certificates_to_json(certs, include_timing=False))
    assert all("elapsed_ms" not in d for d in without)
    pretty = certificates_to_json(certs, include_timing=False, pretty=True)
    assert json.loads(pretty) == without


def test_q_and_large_prime_certificates_agree():
    """Every matrix certified here has entries 0 and +-1 and small minors,
    so its ranks over Q and modulo 2^31 - 1 coincide: both fields must give
    the same dimensions and the same check outcomes."""
    big = GF(2_147_483_647)
    grid = certify.CheckGrid((2, 3), (2, 3, 4, 5), (QQ, big))
    certs = certify.run_grid(grid, "both")
    by_field = {}
    for c in certs:
        by_field.setdefault((c.sequence, c.m, c.n), {})[c.field_name] = c
    assert len(by_field) == 16
    for key, pair in by_field.items():
        q, p = pair["Q"], pair[big.name]
        assert q.dims == p.dims, key
        assert [(ch.name, ch.passed, ch.detail) for ch in q.checks] == \
            [(ch.name, ch.passed, ch.detail) for ch in p.checks], key
        assert q.passed and p.passed, key
