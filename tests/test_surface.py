"""The package's public surface: every public top-level function or class
in `src/tensorseq` is reachable from code that runs outside the tests.

A definition is reachable when its name is used by a root, or by the
code of a reachable definition.  The roots are the module-level code of
every package module (statements outside its top-level `def`s and
`class`es), every file under `perfbench/` (the benchmark, its tracer and
its own tests), and every name in a backticked span or fenced block of
README.md.  A name is used when code spells it as an identifier, an
attribute, an imported name, or a string literal that is a dotted name
(the tracer names its targets and `tensorseq.__init__` its lazy exports
as strings); docstrings do not count.  Names are matched without their
module, so a name defined in two modules is reachable in both once one
is used.

Code that only tests call belongs in `tests/`, beside the tests that use
it as a reference implementation.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tensorseq"

# Only tests call `evensym.verify_relation_span` until a command
# certifies the S' relation span (ROADMAP items 6 and 12).
UNREACHED_BY_DESIGN = {"verify_relation_span"}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _used_names(nodes) -> set:
    """Names the code of `nodes` uses (module docstring)."""
    docstrings = {id(node.value) for root in nodes for node in ast.walk(root)
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
    used = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(node.name.split("."))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings and _DOTTED.fullmatch(node.value)):
                used.update(node.value.split("."))
    return used


def _readme_names() -> set:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    fenced = re.findall(r"```.*?```", text, re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return {name for chunk in fenced + spans for name in _IDENTIFIER.findall(chunk)}


def _unreached_public_definitions() -> set:
    roots = set(_readme_names())
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        roots |= _used_names([ast.parse(path.read_text(encoding="utf-8"))])
    definitions = {}  # name -> the top-level definitions of that name
    for path in sorted(PACKAGE.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        top = [node for node in module.body
               if not isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        roots |= _used_names(top)
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append(node)
    reached, frontier = set(), roots & set(definitions)
    while frontier:
        reached |= frontier
        frontier = _used_names([d for name in frontier for d in definitions[name]])
        frontier = (frontier & set(definitions)) - reached
    return {name for name in definitions if not name.startswith("_")} - reached


def test_every_public_definition_is_reached_outside_the_tests():
    assert _unreached_public_definitions() == UNREACHED_BY_DESIGN
