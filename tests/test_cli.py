import json

from click.testing import CliRunner

from tensorseq import certify, cli
from tensorseq.certificates import Certificate, CheckResult


def run(*args, env=None):
    return CliRunner().invoke(cli.main, list(args), env=env)


def test_dims_table():
    res = run("dims", "--m", "3", "--n-max", "3")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0].split() == ["n", "T", "S", "Lambda", "ambient", "M", "S'"]
    assert lines[2].split() == ["3", "27", "10", "1", "18", "17", "11"]


def test_dims_json_and_degenerate_m():
    res = run("dims", "--m", "0", "--n-max", "3", "--json")
    assert res.exit_code == 0
    rows = json.loads(res.output)
    assert all(r["t"] == r["s"] == r["m"] == r["sprime"] == 0 for r in rows)
    res2 = run("dims", "--m", "2", "--n-max", "2", "--json", "--field", "f2")
    row = json.loads(res2.output)[0]
    assert row == {"n": 2, "t": 4, "s": 3, "lambda": 1, "ambient": 1, "m": 1, "sprime": 4}


def test_dims_cap_exit():
    res = run("dims", "--m", "3", "--n-max", "5", "--size-cap", "10")
    assert res.exit_code == 3


def test_dims_cap_refuses_before_building(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("build_context called")

    monkeypatch.setattr(cli.bimodule, "build_context", no_build)
    res = run("dims", "--m", "3", "--n-max", "9")
    assert res.exit_code == 3
    assert "ambient dimension 52488 exceeds size cap 20000" in res.output


def test_dims_cap_env_var():
    res = run("dims", "--m", "3", "--n-max", "5", env={"TENSORSEQ_SIZE_CAP": "10"})
    assert res.exit_code == 3


def test_nf_sprime_word():
    res = run("nf", "sprime", "--word", "2,1,3", "--m", "3")
    assert res.exit_code == 0
    assert res.output.strip() == "(1,2,3) twisted"
    res = run("nf", "sprime", "--word", "1,1,2", "--m", "2")
    assert res.output.strip() == "(1,1,2) plain"


def test_nf_sprime_element():
    res = run("nf", "sprime", "--element", "2*1,2 + -1*2,1 + 1,1", "--m", "2")
    assert res.exit_code == 0
    assert res.output.strip() == "(1,1) plain + 2*(1,2) plain + -1*(1,2) twisted"


def test_nf_m_relation_is_zero():
    jacobi = "[1|2,3|] + -1*[|2,3|1] + -1*[2|1,3|] + [|1,3|2] + [3|1,2|] + -1*[|1,2|3]"
    res = run("nf", "m", "--element", jacobi, "--m", "3")
    assert res.exit_code == 0
    assert res.output.strip() == "0"


def test_nf_m_idempotent():
    res = run("nf", "m", "--element", "[|1,2|3] + -1*[3|1,2|]", "--m", "3")
    assert res.exit_code == 0
    printed = res.output.strip()
    again = run("nf", "m", "--element", printed, "--m", "3")
    assert again.output.strip() == printed


def test_nf_usage_errors():
    assert run("nf", "sprime", "--m", "3").exit_code == 2
    assert run("nf", "sprime", "--word", "1,2", "--element", "1,2", "--m", "3").exit_code == 2
    assert run("nf", "m", "--word", "1,2", "--m", "3").exit_code == 2
    res = run("nf", "sprime", "--word", "2,x", "--m", "3")
    assert res.exit_code == 2 and "position" in res.output
    assert run("nf", "sprime", "--word", "4,1", "--m", "3").exit_code == 2
    assert run("nf", "m", "--element", "[1|2|3]", "--m", "3").exit_code == 2
    assert run("nf", "m", "--element", "[|1,2|] + [1|1,2|]", "--m", "2").exit_code == 2


def test_check_json_and_exit_zero(tmp_path):
    out = tmp_path / "certs.json"
    res = run("check", "both", "--m", "2", "--n", "2..3", "--field", "q,f2",
              "--out", str(out), "--no-timing")
    assert res.exit_code == 0
    docs = json.loads(out.read_text())
    assert len(docs) == 8
    assert all(d["pass"] for d in docs)
    assert {d["sequence"] for d in docs} == {"M->T->S", "Lambda->S'->S"}


def test_check_stdout_deterministic():
    args = ("check", "m", "--m", "2", "--n", "2,3", "--no-timing")
    a, b = run(*args), run(*args)
    assert a.exit_code == b.exit_code == 0
    assert a.stdout_bytes == b.stdout_bytes


def test_check_cap_exit_code():
    res = run("check", "m", "--m", "3", "--n", "5", "--size-cap", "10")
    assert res.exit_code == 3


def test_check_usage_errors():
    assert run("check", "m", "--field", "bogus").exit_code == 2
    assert run("check", "m", "--n", "1..2").exit_code == 2
    assert run("check", "m", "--m", "two").exit_code == 2
    assert run("check", "nonsense").exit_code == 2


def test_check_failure_exit_code(monkeypatch):
    bad = Certificate(sequence="M->T->S", m=2, n=2, field_name="Q", dims={},
                      checks=(CheckResult("injective_rank", False, "forced"),))

    monkeypatch.setattr(certify, "run_grid", lambda *a, **k: [bad])
    res = run("check", "m", "--m", "2", "--n", "2")
    assert res.exit_code == 1


def test_cocycle_command():
    res = run("cocycle", "--m", "2", "--n", "3", "--samples", "15", "--seed", "9")
    assert res.exit_code == 0
    assert "cocycle_identity: 15/15 pass" in res.output
    assert "expansion_recovers_difference: 15/15 pass" in res.output
    assert "factorization_independence: 15/15 pass" in res.output


def test_cocycle_seed_reproducible():
    a = run("cocycle", "--m", "3", "--n", "4", "--samples", "10", "--seed", "5")
    b = run("cocycle", "--m", "3", "--n", "4", "--samples", "10", "--seed", "5")
    assert a.output == b.output and a.exit_code == 0


def test_cocycle_usage():
    assert run("cocycle", "--m", "0", "--n", "3").exit_code == 2
    assert run("cocycle", "--m", "2", "--n", "1").exit_code == 2
