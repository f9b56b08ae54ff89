"""README's "Library use" block, run one statement at a time.

Each expression statement ends in a comment giving its result: the
repr, or, for a comment ``ValueError: ... <text>``, a `ValueError` whose
message ends in <text>.  The test fails on any other result, on any
exception, or when the count of checked results is not seven.  It imports
`tensorseq` as the test run finds it, so run without `src` on the path
it checks the installed package.
"""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
_RAISES = "ValueError: ... "


def test_library_use_prints_its_commented_results():
    src = re.search(r"## Library use\n\n```python\n(.*?)```",
                    README.read_text(encoding="utf-8"), re.S).group(1)
    lines = src.splitlines()
    env, checked = {}, 0
    for stmt in ast.parse(src).body:
        code = ast.get_source_segment(src, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, env)
            continue
        comment = lines[stmt.end_lineno - 1].partition("  # ")[2].strip()
        checked += 1
        if comment.startswith(_RAISES):
            with pytest.raises(ValueError) as raised:
                eval(code, env)
            assert str(raised.value).endswith(comment.removeprefix(_RAISES)), code
        else:
            assert repr(eval(code, env)) == comment, code
    assert checked == 7
