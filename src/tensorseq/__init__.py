"""Exact-arithmetic graded tensor-algebra quotients with machine-checked
exact sequences over the rationals and prime fields.

Submodules:

* `fields`, `linalg`: exact scalars and sparse row reduction.
* `bases`: the base space, the word bases of the graded components and
  their dimensions.
* `mseq`, `sprimeseq`: the certifiers of M -> T -> S and
  Lambda -> S' -> S, which build no element.
* `certify`, `certificates`: grid verification and certificate JSON.
* `perms`: symmetric-group helpers and transposition factorizations.
* `tensor`: the graded tensor algebra and its symmetric projection.
* `exterior`: exterior powers with canonical signs.
* `bimodule`: the wedge-carrying bimodule, its relation quotient, the
  wedge-insertion maps and the telescoping cocycle.
* `evensym`: the quotient algebra identifying words up to even
  permutations, with its twisted-word basis.
* `degree2`: the degree-2 agreement of both quotients with the
  classical sequence.
* `parsing`: the element syntax of the command line.
* `cli`, `commands`: the `tensorseq` command; `commands` holds the
  query commands `dims`, `nf` and `cocycle`.
"""

from importlib import import_module

# public name -> defining submodule.  Names resolve on first access
# (PEP 562), so `import tensorseq` loads no submodule and a command line
# run loads only what its command uses.
_EXPORTS = {
    "Space": "bases",
    "Certificate": "certificates",
    "CheckResult": "certificates",
    "certificates_to_json": "certificates",
    "CheckGrid": "certify",
    "run_grid": "certify",
    "verify_degree2_agreement": "degree2",
    "ElementParseError": "errors",
    "SizeCapError": "errors",
    "Field": "fields",
    "GF": "fields",
    "PrimeField": "fields",
    "QQ": "fields",
    "RationalField": "fields",
    "parse_field": "fields",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
