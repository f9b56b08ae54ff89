"""Exact-arithmetic graded tensor-algebra quotients with machine-checked
exact sequences over the rationals and prime fields.

Submodules:

* `fields`, `linalg`: exact scalars and sparse row reduction.
* `perms`: symmetric-group helpers and transposition factorizations.
* `tensor`: the graded tensor algebra and its symmetric projection.
* `exterior`: exterior powers with canonical signs.
* `bimodule`: the wedge-carrying bimodule, its relation quotient, the
  wedge-insertion maps and the telescoping cocycle.
* `evensym`: the quotient algebra identifying words up to even
  permutations, with its twisted-word basis.
* `certify`, `certificates`: grid verification and certificate JSON.
* `cli`: the `tensorseq` command.
"""

from .certificates import Certificate, CheckResult, certificates_to_json
from .certify import CheckGrid, run_grid, verify_degree2_agreement
from .errors import ElementParseError, SizeCapError
from .fields import GF, QQ, Field, PrimeField, RationalField, parse_field
from .tensor import Space

__all__ = [
    "Certificate",
    "CheckGrid",
    "CheckResult",
    "ElementParseError",
    "Field",
    "GF",
    "PrimeField",
    "QQ",
    "RationalField",
    "SizeCapError",
    "Space",
    "certificates_to_json",
    "parse_field",
    "run_grid",
    "verify_degree2_agreement",
]

__version__ = "0.1.0"
