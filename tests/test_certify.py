import json

import pytest

from tensorseq import bimodule, certify, evensym, tensor
from tensorseq.certificates import Certificate, CheckResult, certificates_to_json
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


def test_run_grid_deterministic_and_worker_independent():
    grid = certify.CheckGrid((2, 3), (2, 3), (QQ, GF(2)))
    one = certify.run_grid(grid, "both", workers=1)
    two = certify.run_grid(grid, "both", workers=4)
    assert certificates_to_json(one, include_timing=False) == \
        certificates_to_json(two, include_timing=False)


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
