"""Grid orchestration for exactness certificates.

Runs the two sequence verifications over a grid of (m, n, field) cells,
one cell after another, isolating failures and size-cap refusals per
cell (an M->T->S cell is computed once for all its fields), and
performs the degree-2 agreement checks tying the two quotient
constructions to the classical wedge -> tensor -> symmetric sequence.
Results are reported in canonical (m, n, field name, sequence) order.
"""

from __future__ import annotations

import time
from math import comb

from . import tensor
from .certificates import Certificate, CheckResult, certificate
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
    space = tensor.Space(m, field)
    try:
        # each sequence loads only its own module
        if sequence == "M->T->S":
            from . import bimodule
            return bimodule.verify_sequence(space, n, size_cap)
        from . import evensym
        return evensym.verify_sequence(space, n, size_cap)
    except SizeCapError as e:
        return Certificate(
            sequence=sequence, m=m, n=n, field_name=field.name,
            dims={}, checks=(), error=f"size_cap: {e}")


def run_grid(grid: CheckGrid, which: str = "both") -> list[Certificate]:
    """One certificate per (m, n, field, sequence), canonically ordered.

    M->T->S is computed once per (m, n), over the integers, and its
    certificate, a size-cap refusal included, is stamped with each
    field's name: one integer computation proves the cell over every
    field (`bimodule` docstring), and every copy carries the
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


def verify_degree2_agreement(space: tensor.Space) -> Certificate:
    """Certify that in degree 2 both quotients collapse onto the
    classical sequence: the relation span is zero, the quotient is the
    wedge square, the expansion matrix literally equals the degree-2
    wedge embedding, and the orbit algebra is the full tensor square
    with matching maps."""
    from . import bimodule, evensym, exterior
    start = time.perf_counter()
    m = space.dim
    field = space.field
    checks = []

    # the witness: every nonzero relation has a leading term, so none means R = 0
    rel_rank = len(bimodule._leading_terms(space, 2)[0])
    terms = bimodule.all_bimod_terms(m, 2)
    lam2 = comb(m, 2)
    checks.append(CheckResult(
        "relation_rank_zero", rel_rank == 0,
        f"degree-2 relation rank {rel_rank}"))
    checks.append(CheckResult(
        "quotient_is_wedge_square", len(terms) - rel_rank == lam2,
        f"quotient dim {len(terms) - rel_rank}, wedge dim {lam2}"))

    word_index = {w: i for i, w in enumerate(tensor.all_words(m, 2))}
    expansion_rows = tuple(bimodule._expansion_rows(field, word_index, terms))
    wedge_rows = exterior.wedge_to_tensor_matrix(space).rows
    checks.append(CheckResult(
        "expansion_matrix_matches_wedge", expansion_rows == wedge_rows,
        f"{len(expansion_rows)} rows compared entrywise"))

    t2 = m * m
    checks.append(CheckResult(
        "orbit_degree2_is_tensor_square", evensym.dim_evensym(m, 2) == t2,
        f"orbit basis size {evensym.dim_evensym(m, 2)}, tensor dim {t2}"))

    # Identify each length-2 word with its orbit class and compare maps.
    maps_ok = True
    for w in tensor.all_words(m, 2):
        word_sym = tensor.symmetrize(tensor.word_element(space, w))
        orbit_sym = evensym.to_sym(evensym.from_word(space, w))
        if word_sym != orbit_sym:
            maps_ok = False
            break
    if maps_ok:
        for pair in exterior.all_wedge_words(m, 2):
            ext = exterior.ExtElement(space, 2, {pair: 1})
            via_tensor = exterior.wedge_to_tensor(ext)
            transported = evensym.EvenSymElement(space, 2, {})
            for w, c in via_tensor.terms.items():
                transported = transported + evensym.from_word(space, w, c)
            if transported != evensym.wedge_embed(ext):
                maps_ok = False
                break
    checks.append(CheckResult(
        "orbit_maps_match_degree2", maps_ok,
        "projection and embedding agree under the word/class identification"))

    return certificate(
        "degree2", space, 2,
        {"lambda_dim": lam2, "t_dim": t2, "s_dim": tensor.dim_sym(m, 2)},
        checks, start)
