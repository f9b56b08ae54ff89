"""Start-up: what importing the package and launching the command line
load, checked in fresh interpreters, the benchmark grids' bytes as a
launched command line writes them, and the process entry `cli.run`
that every launch goes through."""

import gc
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import tensorseq
from tensorseq import cli

SRC = Path(tensorseq.__file__).resolve().parent.parent
ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference"

# The two ways a launch enters: `python -m tensorseq.cli`, and the
# `tensorseq` console script, which calls its entry point the way the
# script that pip generates does.
_ENTRIES = {
    "module": ["-m", "tensorseq.cli"],
    "script": ["-c", "import sys; from tensorseq.cli import run; sys.exit(run())"],
}

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


# What a grid launch loads: the command line, the grid, the bases and
# matrices, and the certifier of the sequence it runs; no element module
_GRID = {"tensorseq", "tensorseq.cli", "tensorseq.errors", "tensorseq.certify",
         "tensorseq.certificates", "tensorseq.bases", "tensorseq.fields", "tensorseq.linalg"}
_PACKAGE = {f"tensorseq.{info.name}" for info in pkgutil.iter_modules(tensorseq.__path__)}


@pytest.mark.parametrize("args,certifier", [
    (("check", "m", "--m", "2", "--n", "2..3", "--no-timing"), "tensorseq.mseq"),
    (("check", "sprime", "--m", "2", "--n", "2..3", "--no-timing"), "tensorseq.sprimeseq"),
])
def test_a_grid_loads_only_its_certifier(tmp_path, args, certifier):
    assert _loaded(tmp_path, *args) == _GRID | {certifier}


@pytest.mark.parametrize("args,absent", [
    (("check", "m", "--m", "2", "--n", "2..3", "--no-timing"),
     _PACKAGE - _GRID - {"tensorseq.mseq"}),
    (("check", "sprime", "--m", "2", "--n", "2..3", "--no-timing"),
     _PACKAGE - _GRID - {"tensorseq.sprimeseq"}),
    (("dims", "--m", "2", "--n-max", "3"),
     {"tensorseq.parsing", "tensorseq.certify", "tensorseq.tensor", "tensorseq.perms",
      "tensorseq.exterior", "tensorseq.bimodule", "tensorseq.evensym"}),
    (("nf", "m", "--element", "[|1,2|3]", "--m", "3"), {"tensorseq.evensym"}),
    (("nf", "sprime", "--word", "2,1", "--m", "2"), {"tensorseq.bimodule"}),
    (("cocycle", "--m", "2", "--n", "3", "--samples", "2"), {"tensorseq.evensym"}),
])
def test_each_command_imports_only_what_it_runs(tmp_path, args, absent):
    loaded = _loaded(tmp_path, *args)
    assert "tensorseq.cli" in loaded
    assert not loaded & absent


@pytest.mark.parametrize("args", [
    ("dims", "--m", "2", "--n-max", "3"),
    ("nf", "m", "--element", "[|1,2|3]", "--m", "3"),
    ("cocycle", "--m", "2", "--n", "3", "--samples", "2"),
], ids=["dims", "nf-m", "cocycle"])
def test_a_module_launch_loads_cli_once(args):
    """A launch as `python -m tensorseq.cli` runs `cli` as `__main__`,
    which runpy executes without importing it; a command that imported
    `tensorseq.cli` as well would compile and run the module a second
    time.  The `-X importtime` report on stderr names every import."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *_ENTRIES["module"], *args],
                          env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "tensorseq.commands" in imported
    assert "tensorseq.cli" not in imported


# old home -> new home of every name the certifiers took from the element
# modules.  The benchmark's tracer finds a function's binding sites by
# identity, so each must be the very object of its new home.
_MOVED = {
    ("tensor", "bases"): ("Space", "Word", "check_word", "all_words", "all_monomials",
                          "collect", "dim_tensor", "dim_sym", "symmetrize_matrix"),
    ("exterior", "bases"): ("all_wedge_words", "dim_wedge"),
    ("bimodule", "mseq"): ("BimodTerm", "ambient_dim", "all_bimod_terms", "verify_sequence"),
    ("evensym", "sprimeseq"): ("dim_evensym", "to_sym_matrix", "wedge_embed_matrix",
                               "verify_sequence"),
}


@pytest.mark.parametrize("old,new", sorted(_MOVED), ids="->".join)
def test_moved_names_are_the_same_objects_in_their_old_home(old, new):
    old_mod = importlib.import_module(f"tensorseq.{old}")
    new_mod = importlib.import_module(f"tensorseq.{new}")
    for name in _MOVED[old, new]:
        assert getattr(old_mod, name) is getattr(new_mod, name), name


@pytest.mark.parametrize("workload,args", [
    ("mseq-grid", ["check", "m", "--m", "2..3", "--n", "2..6", "--field", "q,f3",
                   "--no-timing"]),
    ("sprime-grid", ["check", "sprime", "--m", "6..8", "--n", "4..6", "--field", "q,f3",
                     "--no-timing"]),
])
def test_cli_reproduces_the_benchmark_reference_bytes(workload, args):
    for entry in _ENTRIES.values():
        proc = subprocess.run([sys.executable, *entry, *args], env=_env(),
                              capture_output=True, timeout=300)
        assert proc.returncode == 0
        assert proc.stdout == (REFERENCE / f"{workload}.json").read_bytes()


def test_console_script_enters_through_run():
    assert 'tensorseq = "tensorseq.cli:run"' in (ROOT / "pyproject.toml").read_text()


def _in_process(args):
    """Exit code, stdout and stderr of `cli.main(args)` run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main(args, standalone_mode=False)
            code = 0
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


_OUTCOMES = [
    (["dims", "--m", "2", "--n-max", "3"], 0),
    (["check", "m", "--m", "200", "--n", "2", "--no-timing"], 3),
    (["check", "m", "--field", "bogus"], 2),
    (["check"], 2),
    # a usage error raised in `commands`, which a launch loads beside `cli`
    (["dims", "--m", "-1", "--n-max", "3"], 2),
]


@pytest.mark.parametrize("enabled", [True, False])
def test_main_in_process_leaves_the_collector_as_it_finds_it(enabled):
    """Only the process entry pauses the collector: tests, the benchmark's
    tracer and library callers run `main` in-process."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        for args, code in _OUTCOMES:
            assert _in_process(args)[0] == code
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
@pytest.mark.parametrize("args,code", _OUTCOMES)
def test_a_launch_keeps_the_exit_code_and_bytes_of_main(entry, args, code):
    proc = subprocess.run([sys.executable, *_ENTRIES[entry], *args], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == _in_process(args)
    assert proc.returncode == code


# Records, at interpreter exit, whether the collector is enabled and how
# many objects are frozen, in the file named by argv[1], then launches
# through the entry given as the rest of the program.
_AT_EXIT = """
import atexit, gc, json, sys
out = sys.argv.pop(1)

def record():
    with open(out, "w") as fh:
        json.dump([gc.isenabled(), gc.get_freeze_count()], fh)

atexit.register(record)
"""
_LAUNCH_FROM_PROBE = {
    "module": "import runpy; runpy.run_module('tensorseq.cli', run_name='__main__')",
    "script": _ENTRIES["script"][1],
}


@pytest.mark.parametrize("entry", sorted(_LAUNCH_FROM_PROBE))
@pytest.mark.parametrize("args,code", _OUTCOMES)
def test_every_launch_ends_with_the_collector_paused_and_the_heap_frozen(
        tmp_path, entry, args, code):
    out = tmp_path / "gc.json"
    proc = subprocess.run(
        [sys.executable, "-c", _AT_EXIT + _LAUNCH_FROM_PROBE[entry], str(out), *args],
        env=_env(), capture_output=True, timeout=120)
    assert proc.returncode == code
    enabled, frozen = json.loads(out.read_text())
    assert not enabled
    assert frozen > 0


# Runs `cli.main` on argv[2:] with the collector on, and writes to argv[1]
# how many objects the collector freed from the first command on: its
# own collections during the run and one full collection after it.
_GARBAGE = """
import gc, sys
from tensorseq import cli
freed = []
gc.collect()
gc.callbacks.append(
    lambda phase, info: freed.append(info["collected"]) if phase == "stop" else None)
try:
    cli.main(sys.argv[2:])
except SystemExit:
    pass
gc.collect()
with open(sys.argv[1], "w") as fh:
    fh.write(str(sum(freed)))
"""


def _garbage(tmp_path, *args):
    out = tmp_path / "freed.txt"
    subprocess.run([sys.executable, "-c", _GARBAGE, str(out), *args], env=_env(),
                   capture_output=True, timeout=300)
    return int(out.read_text())


@pytest.mark.parametrize("small,large", [
    (("check", "m", "--m", "2", "--n", "2", "--field", "q,f3", "--no-timing"),
     ("check", "m", "--m", "2..3", "--n", "2..6", "--field", "q,f3", "--no-timing")),
    (("check", "sprime", "--m", "6", "--n", "4", "--field", "q,f3", "--no-timing"),
     ("check", "sprime", "--m", "6..8", "--n", "4..6", "--field", "q,f3", "--no-timing")),
    (("cocycle", "--m", "2", "--n", "4", "--samples", "10"),
     ("cocycle", "--m", "2", "--n", "4", "--samples", "300")),
], ids=["check-m", "check-sprime", "cocycle"])
def test_cyclic_garbage_does_not_grow_with_the_input(tmp_path, small, large):
    """Why the process entry may pause the collector: a command leaves
    the same cyclic garbage over 2 cells as over 20, and over 10 samples
    as over 300, so a launch without collections holds no memory that
    grows with its input."""
    assert _garbage(tmp_path, *small) == _garbage(tmp_path, *large)
