"""Start-up: what importing the package and launching the command line
load, checked in fresh interpreters, and the benchmark grids' bytes as a
launched command line writes them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tensorseq

SRC = Path(tensorseq.__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"

# Runs the CLI on argv[2:] and writes its exit code and the names in
# sys.modules at exit to argv[1].
_PROBE = """
import json, sys
from tensorseq import cli
try:
    cli.main(sys.argv[2:])
except SystemExit as e:
    code = e.code
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""


# Standard-library modules no launch may load: click is no dependency, and
# `dataclasses` brings in `inspect` (with `ast`, `dis` and `tokenize`),
# several milliseconds of every launch.
_NEVER_LOADED = ("click", "dataclasses", "inspect")


def _env():
    env = {k: v for k, v in os.environ.items() if k != "TENSORSEQ_SIZE_CAP"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _loaded(tmp_path, *args):
    out = tmp_path / "modules.json"
    subprocess.run([sys.executable, "-c", _PROBE, str(out), *args], env=_env(),
                   capture_output=True, check=True, timeout=120)
    probe = json.loads(out.read_text())
    assert probe["code"] == 0
    names = probe["modules"]
    assert not [n for n in names if n.partition(".")[0] in _NEVER_LOADED]
    return {n for n in names if n == "tensorseq" or n.startswith("tensorseq.")}


def test_package_root_resolves_its_names_lazily():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tensorseq; "
         "print(sorted(m for m in sys.modules if m.startswith('tensorseq')))"],
        env=_env(), capture_output=True, text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "['tensorseq']"
    assert tensorseq.__all__ == sorted(tensorseq.__all__)
    namespace = {}
    exec("from tensorseq import *", namespace)
    for name in tensorseq.__all__:
        assert namespace[name] is getattr(tensorseq, name)
    assert tensorseq.QQ.name == "Q" and tensorseq.Space(2, tensorseq.GF(3)).dim == 2
    with pytest.raises(AttributeError):
        tensorseq.no_such_name


def test_help_imports_only_the_command_line(tmp_path):
    assert _loaded(tmp_path, "--help") == {"tensorseq", "tensorseq.cli", "tensorseq.errors"}


@pytest.mark.parametrize("args,absent", [
    (("check", "m", "--m", "2", "--n", "2..3", "--no-timing"),
     {"tensorseq.evensym", "tensorseq.parsing"}),
    (("check", "sprime", "--m", "2", "--n", "2..3", "--no-timing"), {"tensorseq.bimodule"}),
    (("dims", "--m", "2", "--n-max", "3"), {"tensorseq.parsing", "tensorseq.certify"}),
    (("nf", "m", "--element", "[|1,2|3]", "--m", "3"), {"tensorseq.evensym"}),
    (("nf", "sprime", "--word", "2,1", "--m", "2"), {"tensorseq.bimodule"}),
    (("cocycle", "--m", "2", "--n", "3", "--samples", "2"), {"tensorseq.evensym"}),
])
def test_each_command_imports_only_what_it_runs(tmp_path, args, absent):
    loaded = _loaded(tmp_path, *args)
    assert "tensorseq.cli" in loaded
    assert not loaded & absent


@pytest.mark.parametrize("workload,args", [
    ("mseq-grid", ["check", "m", "--m", "2..3", "--n", "2..6", "--field", "q,f3",
                   "--no-timing"]),
    ("sprime-grid", ["check", "sprime", "--m", "6..8", "--n", "4..6", "--field", "q,f3",
                     "--no-timing"]),
])
def test_cli_reproduces_the_benchmark_reference_bytes(workload, args):
    proc = subprocess.run([sys.executable, "-m", "tensorseq.cli", *args], env=_env(),
                          capture_output=True, timeout=300)
    assert proc.returncode == 0
    assert proc.stdout == (REFERENCE / f"{workload}.json").read_bytes()
