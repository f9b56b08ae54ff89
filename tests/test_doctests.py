import doctest

import pytest

from tensorseq import (bases, bimodule, evensym, exterior, fields, linalg, mseq, parsing,
                       perms, sprimeseq, tensor)


@pytest.mark.parametrize("module", [fields, linalg, perms, tensor, exterior,
                                    bimodule, evensym, parsing, bases, mseq, sprimeseq],
                         ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_module_doctests(module):
    failed, _ = doctest.testmod(module)
    assert failed == 0
