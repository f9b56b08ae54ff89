"""Grid orchestration for exactness certificates.

Runs the two sequence verifications over a grid of (m, n, field) cells,
one cell after another, isolating failures and size-cap refusals per
cell, and performs the degree-2 agreement checks tying the two quotient
constructions to the classical wedge -> tensor -> symmetric sequence.
Results are reported in canonical (m, n, field name, sequence) order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb

from . import bimodule, evensym, exterior, tensor
from .certificates import Certificate, CheckResult, certificate
from .errors import DEFAULT_SIZE_CAP, SizeCapError
from .fields import Field

SEQUENCES = {
    "m": ("M->T->S",),
    "sprime": ("Lambda->S'->S",),
    "both": ("M->T->S", "Lambda->S'->S"),
}


@dataclass(frozen=True)
class CheckGrid:
    """A rectangular grid of verification cells."""

    m_values: tuple[int, ...]
    n_values: tuple[int, ...]
    fields: tuple[Field, ...]
    size_cap: int = DEFAULT_SIZE_CAP

    def __post_init__(self):
        if not self.m_values or not self.n_values or not self.fields:
            raise ValueError("grid axes must be nonempty")
        if any(m < 0 for m in self.m_values):
            raise ValueError("m values must be >= 0")
        if any(n < 2 for n in self.n_values):
            raise ValueError("sequence checks need degree >= 2")


def _verify_cell(m: int, n: int, field: Field, sequence: str, size_cap: int) -> Certificate:
    space = tensor.Space(m, field)
    try:
        if sequence == "M->T->S":
            return bimodule.verify_sequence(space, n, size_cap)
        return evensym.verify_sequence(space, n, size_cap)
    except SizeCapError as e:
        return Certificate(
            sequence=sequence, m=m, n=n, field_name=field.name,
            dims={}, checks=(), error=f"size_cap: {e}")


def run_grid(grid: CheckGrid, which: str = "both") -> list[Certificate]:
    """One certificate per (m, n, field, sequence), canonically ordered.

    A size-cap refusal in one cell is reported in that cell's
    certificate and never aborts the rest of the grid.
    """
    if which not in SEQUENCES:
        raise ValueError(f"unknown selection {which!r}; expected m, sprime, or both")
    certs = [_verify_cell(m, n, field, seq, grid.size_cap)
             for m in dict.fromkeys(grid.m_values)
             for n in dict.fromkeys(grid.n_values)
             for field in dict.fromkeys(grid.fields)
             for seq in SEQUENCES[which]]
    certs.sort(key=lambda c: (c.m, c.n, c.field_name, c.sequence))
    return certs


def verify_degree2_agreement(space: tensor.Space) -> Certificate:
    """Certify that in degree 2 both quotients collapse onto the
    classical sequence: the relation span is zero, the quotient is the
    wedge square, the expansion matrix literally equals the degree-2
    wedge embedding, and the orbit algebra is the full tensor square
    with matching maps."""
    start = time.perf_counter()
    m = space.dim
    field = space.field
    checks = []

    ctx = bimodule.build_context(space, 2)
    lam2 = comb(m, 2)
    checks.append(CheckResult(
        "relation_rank_zero", ctx.rel_rank == 0,
        f"degree-2 relation rank {ctx.rel_rank}"))
    checks.append(CheckResult(
        "quotient_is_wedge_square", ctx.quotient_dim == lam2,
        f"quotient dim {ctx.quotient_dim}, wedge dim {lam2}"))

    word_index = {w: i for i, w in enumerate(tensor.all_words(m, 2))}
    expansion_rows = tuple(bimodule._expansion_rows(field, word_index, ctx.terms))
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
            ext = exterior.ext_element(space, 2, {pair: 1})
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
