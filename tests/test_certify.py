import json

import pytest

from tensorseq import bimodule, certify, evensym, linalg, tensor
from tensorseq.certificates import (Certificate, CheckResult, certificates_to_json,
                                    image_equals_kernel)
from tensorseq.fields import GF, QQ


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
        expanded = bimodule.expand_wedge(bimodule.bimod_element(space, 3, {term: 1}))
        image.append(tuple(sorted((word_index[w], c) for w, c in expanded.terms.items())))
    projection = _symmetrize_variant(space, 3, change)
    assert all(_maps_to_zero(field, row, projection) for row in image) == img_in_ker
    check = image_equals_kernel(field, image, projection)
    assert check.name == "image_equals_kernel"
    assert check.passed == (img_in_ker and ker_in_img)
    assert check.detail.endswith(
        f"image<=kernel {img_in_ker}, kernel<=image {ker_in_img}")


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
        cert = certify.verify_degree2_agreement(tensor.Space(m, field))
        assert cert.passed, cert.to_json_dict()


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
