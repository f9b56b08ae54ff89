"""Grid orchestration for exactness certificates.

Runs the two sequence verifications over a grid of (m, n, field) cells,
one cell after another, isolating failures and size-cap refusals per
cell (an M->T->S cell is computed once for all its fields).  Results
are reported in canonical (m, n, field name, sequence) order.  A grid
loads the certifier of each sequence it runs, `mseq` or `sprimeseq`,
and none of the element-algebra modules.
"""

from __future__ import annotations

from .bases import Space
from .certificates import Certificate
from .errors import DEFAULT_SIZE_CAP, Record, SizeCapError
from .fields import Field

SEQUENCES = {
    "m": ("M->T->S",),
    "sprime": ("Lambda->S'->S",),
    "both": ("M->T->S", "Lambda->S'->S"),
}


class CheckGrid(Record):
    """A rectangular grid of verification cells."""

    __slots__ = ("m_values", "n_values", "fields", "size_cap")

    def __init__(self, m_values: tuple[int, ...], n_values: tuple[int, ...],
                 fields: tuple[Field, ...], size_cap: int = DEFAULT_SIZE_CAP):
        if not m_values or not n_values or not fields:
            raise ValueError("grid axes must be nonempty")
        if any(m < 0 for m in m_values):
            raise ValueError("m values must be >= 0")
        if any(n < 2 for n in n_values):
            raise ValueError("sequence checks need degree >= 2")
        object.__setattr__(self, "m_values", m_values)
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "size_cap", size_cap)


def _verify_cell(m: int, n: int, field: Field, sequence: str, size_cap: int) -> Certificate:
    space = Space(m, field)
    try:
        # each sequence loads only its own certifier
        if sequence == "M->T->S":
            from . import mseq
            return mseq.verify_sequence(space, n, size_cap)
        from . import sprimeseq
        return sprimeseq.verify_sequence(space, n, size_cap)
    except SizeCapError as e:
        return Certificate(
            sequence=sequence, m=m, n=n, field_name=field.name,
            dims={}, checks=(), error=f"size_cap: {e}")


def run_grid(grid: CheckGrid, which: str = "both") -> list[Certificate]:
    """One certificate per (m, n, field, sequence), canonically ordered.

    M->T->S is computed once per (m, n), over the integers, and its
    certificate, a size-cap refusal included, is stamped with each
    field's name: one integer computation proves the cell over every
    field (`mseq` docstring), and every copy carries the
    `elapsed_ms` of that one computation.  Lambda->S'->S is computed
    per field.

    A size-cap refusal in one cell is reported in that cell's
    certificate and never aborts the rest of the grid.
    """
    if which not in SEQUENCES:
        raise ValueError(f"unknown selection {which!r}; expected m, sprime, or both")
    fields = tuple(dict.fromkeys(grid.fields))
    certs = []
    for m in dict.fromkeys(grid.m_values):
        for n in dict.fromkeys(grid.n_values):
            for seq in SEQUENCES[which]:
                if seq == "M->T->S":
                    cert = _verify_cell(m, n, fields[0], seq, grid.size_cap)
                    certs.extend(cert.stamped(field.name) for field in fields)
                else:
                    certs.extend(_verify_cell(m, n, field, seq, grid.size_cap)
                                 for field in fields)
    certs.sort(key=lambda c: (c.m, c.n, c.field_name, c.sequence))
    return certs
