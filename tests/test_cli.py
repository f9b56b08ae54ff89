import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensorseq import bimodule, certify, cli, linalg, mseq, sprimeseq, tensor
from tensorseq.certificates import Certificate, CheckResult


@dataclass
class Result:
    exit_code: int
    output: str  # stdout and stderr, interleaved as written
    stdout_bytes: bytes


class _Tee(io.StringIO):
    """One stream's own buffer that also copies every write into `mixed`."""

    def __init__(self, mixed: io.StringIO):
        super().__init__()
        self.mixed = mixed

    def write(self, s):
        self.mixed.write(s)
        return super().write(s)


def run(*args):
    """Run the CLI in process, as a launch would, and capture what it writes."""
    mixed = io.StringIO()
    out, err = _Tee(mixed), _Tee(mixed)
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main(list(args), standalone_mode=False)
            code = 0
        except SystemExit as e:
            code = e.code
    return Result(code, mixed.getvalue(), out.getvalue().encode())


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

    monkeypatch.setattr(bimodule, "build_context", no_build)
    res = run("dims", "--m", "3", "--n-max", "9")
    assert res.exit_code == 3
    assert "ambient dimension 52488 exceeds size cap 20000" in res.output


_DIMS_3_8 = """\
n     T   S  Lambda  ambient     M  S'
2     9   6       3        3     3   9
3    27  10       1       18    17  11
4    81  15       0       81    66  15
5   243  21       0      324   222  21
6   729  28       0     1215   701  28
7  2187  36       0     4374  2151  36
8  6561  45       0    15309  6516  45
"""


def test_dims_reads_m_from_the_certificate(monkeypatch):
    """The table's ambient and M columns come from the M->T->S
    certificate of each degree: no relation span is row-reduced."""
    def no_build(*args, **kwargs):
        raise AssertionError("build_context called")

    monkeypatch.setattr(bimodule, "build_context", no_build)
    res = run("dims", "--m", "3", "--n-max", "8")
    assert res.exit_code == 0
    assert res.output == _DIMS_3_8


def test_dims_exits_1_on_a_failed_certificate(break_sign):
    """With the Jacobi cycle's first sign flipped its expansion no longer
    vanishes: degree 3 fails, its summary goes to stderr and no table
    row is printed."""
    break_sign("jacobi_cycle")
    res = run("dims", "--m", "3", "--n-max", "4")
    assert res.exit_code == 1
    assert res.stdout_bytes == b""
    assert res.output == "[FAIL] M->T->S m=3 n=3 field=Q\n"


@pytest.mark.parametrize("args", [
    ("nf", "m", "--element", "[|1,2|3]", "--m", "3"),
    ("cocycle", "--m", "3", "--n", "3", "--samples", "0"),
], ids=["nf-m", "cocycle"])
def test_answers_need_a_certified_cell(break_sign, monkeypatch, args):
    """`nf m` and `cocycle` certify their cell before building its
    quotient: with the Jacobi cycle's first sign flipped they print the
    failed summary to stderr, build nothing and exit 1."""
    def no_build(*args, **kwargs):
        raise AssertionError("build_context called")

    break_sign("jacobi_cycle")
    monkeypatch.setattr(bimodule, "build_context", no_build)
    res = run(*args)
    assert res.exit_code == 1
    assert res.stdout_bytes == b""
    assert res.output == "[FAIL] M->T->S m=3 n=3 field=Q\n"


def test_cocycle_over_the_cap_exits_3():
    res = run("cocycle", "--m", "3", "--n", "3", "--samples", "0", "--size-cap", "10")
    assert res.exit_code == 3
    assert res.stdout_bytes == b""
    assert res.output == "size cap exceeded: ambient dimension 18 exceeds size cap 10\n"


def test_dims_cap_env_var(monkeypatch):
    monkeypatch.setenv("TENSORSEQ_SIZE_CAP", "10")
    res = run("dims", "--m", "3", "--n-max", "5")
    assert res.exit_code == 3


def test_non_integer_size_cap_is_a_usage_error(monkeypatch):
    assert run("dims", "--m", "2", "--n-max", "3", "--size-cap", "x").exit_code == 2
    monkeypatch.setenv("TENSORSEQ_SIZE_CAP", "x")
    res = run("dims", "--m", "2", "--n-max", "3")
    assert res.exit_code == 2 and "Error:" in res.output


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


def _no_certificate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a certificate was computed")

    monkeypatch.setattr(mseq, "verify_sequence", refuse)


def test_check_caps_the_tensor_dimension():
    """(200, 2) has ambient dimension 19,900, under the default cap, but
    a projection of 40,000 rows: the cell is refused and the run exits 3."""
    res = run("check", "m", "--m", "200", "--n", "2", "--no-timing")
    assert res.exit_code == 3
    assert "tensor dimension 40000 exceeds size cap 20000" in res.output


def test_dims_caps_the_tensor_dimension_before_certifying(monkeypatch):
    _no_certificate(monkeypatch)
    res = run("dims", "--m", "150", "--n-max", "2")
    assert res.exit_code == 3
    assert res.output == "size cap exceeded: tensor dimension 22500 exceeds size cap 20000\n"
    # the ambient dimension is checked first, for every degree, so a
    # table refused before keeps its message
    res = run("dims", "--m", "150", "--n-max", "3")
    assert res.exit_code == 3
    assert res.output == "size cap exceeded: ambient dimension 3352500 exceeds size cap 20000\n"


def test_dims_caps_the_number_of_degrees_before_certifying(monkeypatch):
    """With m <= 1 no dimension exceeds 1 in any degree, so the table is
    bounded by its count of degrees, as `check` counts its grid cells: a
    billion degrees is refused with exit 3 at once."""
    _no_certificate(monkeypatch)
    res = run("dims", "--m", "1", "--n-max", "50", "--size-cap", "10")
    assert res.exit_code == 3
    assert res.output == "size cap exceeded: degrees 49 exceeds size cap 10\n"
    res = run("dims", "--m", "0", "--n-max", "1000000000")
    assert res.exit_code == 3
    assert res.output == "size cap exceeded: degrees 999999999 exceeds size cap 20000\n"


def _refusal_checking_every_degree(m, n_max, cap):
    """The refusal of a pre-check that tries the ambient dimension of
    every degree 2..n_max, then the tensor dimension of every degree,
    then the count of degrees; None when the table passes."""
    for what, dim in (("ambient dimension", bimodule.ambient_dim),
                      ("tensor dimension", tensor.dim_tensor)):
        for n in range(2, n_max + 1):
            if dim(m, n) > cap:
                return f"size cap exceeded: {what} {dim(m, n)} exceeds size cap {cap}\n"
    if n_max - 1 > cap:
        return f"size cap exceeded: degrees {n_max - 1} exceeds size cap {cap}\n"
    return None


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_dims_pre_check_stops_at_degree_cap_plus_two(m):
    """The pre-check tries degrees only up to cap + 2, by which any
    m >= 2 exceeds the cap, so every table refused for a dimension keeps
    its message, and the count of degrees is refused only after them."""
    for cap in (-1, 0, 1, 4, 12):
        for n_max in (2, 3, 5, 9, 16):
            expected = _refusal_checking_every_degree(m, n_max, cap)
            res = run("dims", "--m", str(m), "--n-max", str(n_max), "--size-cap", str(cap))
            if expected is None:
                assert res.exit_code == 0
            else:
                assert (res.exit_code, res.output) == (3, expected)


def test_check_refuses_an_oversized_grid_before_building_it(monkeypatch):
    """The grid is counted from its range endpoints: a billion degrees is
    refused with exit 3 at once, and no certificate is computed."""
    def no_grid(*args, **kwargs):
        raise AssertionError("grid built")

    monkeypatch.setattr(certify, "CheckGrid", no_grid)
    res = run("check", "m", "--m", "2", "--n", "2..1000000000", "--no-timing")
    assert res.exit_code == 3
    assert res.stdout_bytes == b""
    assert res.output == "size cap exceeded: grid cells 999999999 exceeds size cap 20000\n"
    res = run("check", "both", "--m", "2..3,3", "--n", "2..4,3", "--field", "q,f3,q",
              "--size-cap", "11")
    assert res.exit_code == 3
    assert res.output == "size cap exceeded: grid cells 12 exceeds size cap 11\n"


@given(st.lists(st.tuples(st.integers(-5, 12), st.integers(-5, 12)), min_size=1, max_size=5))
def test_range_count_matches_the_values(pieces):
    spec = ",".join(f"{lo}..{hi}" if lo != hi else str(lo) for lo, hi in pieces)
    values = {v for lo, hi in pieces for v in range(lo, hi + 1)}
    if not values:
        with pytest.raises(cli.UsageError):
            cli._int_ranges(spec)
        return
    count, ranges = cli._int_ranges(spec)
    assert count == len(values)
    assert cli._values(ranges) == tuple(sorted(values))


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


def test_cocycle_negative_samples_is_a_usage_error(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("build_context called")

    monkeypatch.setattr(bimodule, "build_context", no_build)
    res = run("cocycle", "--m", "2", "--n", "3", "--samples", "-2")
    assert res.exit_code == 2
    assert res.stdout_bytes == b""
    assert res.output.splitlines()[-1] == "Error: --samples must be >= 0"


def test_cocycle_reports_each_counterexample_and_exits_1(monkeypatch):
    """An expansion that does not recover a - t.a fails that count on
    every sample, and each failure is printed as a COUNTEREXAMPLE line
    after the counts."""
    monkeypatch.setattr(bimodule, "expand_wedge", lambda h: None)
    res = run("cocycle", "--m", "2", "--n", "3", "--samples", "2", "--seed", "7")
    assert res.exit_code == 1
    assert res.output == res.stdout_bytes.decode() == (
        "cocycle_identity: 2/2 pass\n"
        "expansion_recovers_difference: 0/2 pass\n"
        "factorization_independence: 2/2 pass\n"
        "COUNTEREXAMPLE expansion: tau=(3, 1, 2) word=(1, 2, 1)\n"
        "COUNTEREXAMPLE expansion: tau=(1, 2, 3) word=(1, 1, 1)\n")


def test_cocycle_zero_samples():
    res = run("cocycle", "--m", "2", "--n", "3", "--samples", "0")
    assert res.exit_code == 0
    assert res.output == ("cocycle_identity: 0/0 pass\n"
                          "expansion_recovers_difference: 0/0 pass\n"
                          "factorization_independence: 0/0 pass\n")


def test_plain_plus_twisted_embedding_fails_image_equals_kernel(monkeypatch):
    """A wedge embedding onto plain + twisted is not a difference of two
    classes: outside characteristic 2 every S' cell must fail the check,
    naming the row, while the grid runs to the end and the M cells pass."""
    real = sprimeseq.wedge_embed_matrix

    def plain_plus_twisted(space, n):
        emb = real(space, n)
        return linalg.Matrix(emb.field, emb.ncols,
                             tuple(((u, a), (v, a)) for (u, a), (v, _) in emb.rows))

    monkeypatch.setattr(sprimeseq, "wedge_embed_matrix", plain_plus_twisted)
    res = run("check", "both", "--m", "2..3", "--n", "2..4", "--field", "q,f3", "--no-timing")
    assert res.exit_code == 1
    docs = json.loads(res.stdout_bytes)
    assert len(docs) == 24
    for d in docs:
        if d["sequence"] == "M->T->S":
            assert d["pass"], d
            continue
        check = {c["name"]: c for c in d["checks"]}["image_equals_kernel"]
        if d["dims"]["lambda_dim"]:
            assert not d["pass"] and not check["pass"]
            assert check["detail"] == "image row 0 is not a difference of two basis vectors"
        else:  # no wedge words, so no rows to get wrong
            assert d["pass"]


@pytest.mark.parametrize("command", [(), ("dims",), ("check",), ("nf",), ("cocycle",)])
def test_help_exits_zero(command):
    res = run(*command, "--help")
    assert res.exit_code == 0
    assert "usage:" in res.output


def test_no_arguments_is_a_usage_error():
    res = run()
    assert res.exit_code == 2
    assert res.stdout_bytes == b""


@pytest.mark.parametrize("bad", ["missing/dir/certs.json", "."])
def test_check_out_validated_before_any_work(monkeypatch, tmp_path, bad):
    def no_grid(*args, **kwargs):
        raise AssertionError("run_grid called")

    monkeypatch.setattr(certify, "run_grid", no_grid)
    res = run("check", "m", "--m", "3", "--n", "6", "--out", str(tmp_path / bad))
    assert res.exit_code == 2
    errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and "--out" in errors[0]


def test_option_values_may_start_with_a_minus_digit():
    res = run("nf", "sprime", "--element", "-1*2,1", "--m", "2")
    assert res.exit_code == 0
    assert res.output.strip() == "-1*(1,2) twisted"
    res = run("check", "m", "--m", "-1..2")
    assert res.exit_code == 2 and "Error: m values must be >= 0" in res.output


def test_nf_negative_dimension_is_a_usage_error():
    res = run("nf", "sprime", "--word", "1,2", "--m", "-1")
    assert res.exit_code == 2 and "Error: dimension must be >= 0" in res.output


@pytest.mark.parametrize("args,message", [
    (("m", "--element", "1/0*[|1,2|]", "--m", "2"),
     "coefficient '1/0' has a zero denominator"),
    (("sprime", "--element", "1/0*1,2", "--m", "2"),
     "coefficient '1/0' has a zero denominator"),
    (("sprime", "--element", "1/3*1,2", "--m", "2", "--field", "f3"),
     "coefficient '1/3' has a denominator divisible by 3"),
    (("m", "--element", "1/6*[|1,2|]", "--m", "2", "--field", "f3"),
     "coefficient '1/6' has a denominator divisible by 3"),
], ids=["m-q", "sprime-q", "sprime-f3", "m-f3"])
def test_nf_coefficient_with_zero_denominator_is_a_usage_error(args, message):
    res = run("nf", *args)
    assert res.exit_code == 2
    assert [line for line in res.output.splitlines() if line.startswith("Error:")] == \
        [f"Error: {message}"]
    assert "Traceback" not in res.output


@pytest.mark.parametrize("args,message", [
    (("dims", "--m", "2", "--n-max", "1"), "--n-max must be >= 2"),
    (("nf", "m", "--element", "[|1,2|]", "--word", "1,2", "--m", "2"),
     "target 'm' takes --element, not --word"),
    (("nf", "sprime", "--element", "[1,2", "--m", "2"), "unmatched '[' (at position 3)"),
    (("nf", "sprime", "--element", "1,2]", "--m", "2"), "unmatched ']' (at position 3)"),
    (("check", "m", "--m", "a..3"), "bad range 'a..3'"),
], ids=["dims-degree", "nf-m-word", "open-bracket", "close-bracket", "check-range"])
def test_usage_errors_name_their_fault(args, message):
    res = run(*args)
    assert res.exit_code == 2
    assert res.stdout_bytes == b""
    assert res.output.splitlines()[-1] == f"Error: {message}"


def test_nf_over_the_cap_is_a_usage_error():
    res = run("nf", "m", "--element", "[|1,2|3]", "--m", "3", "--size-cap", "10")
    assert res.exit_code == 2
    assert "Error: ambient dimension 18 exceeds size cap 10" in res.output


def test_main_without_standalone_mode_returns_or_raises(capsys):
    args = ["check", "m", "--m", "2", "--n", "2", "--no-timing"]
    assert cli.main(args, standalone_mode=False) is None
    for extra, code in ((["--size-cap", "0"], 3), (["--field", "bogus"], 2)):
        with pytest.raises(SystemExit) as exc:
            cli.main(args + extra, standalone_mode=False)
        assert exc.value.code == code
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 0
    assert cli.main.main is cli.main
