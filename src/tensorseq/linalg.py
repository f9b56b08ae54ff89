"""Exact sparse row reduction over Q and F_p.

A row is a tuple of (column, value) pairs sorted by column that holds
only nonzero field scalars; a `Matrix` pairs such rows with a field and
a width.  The relation, expansion and symmetrization matrices of this
package have one to six entries per row, and their reduced row-echelon
forms stay well under one percent dense, so nothing here ever builds a
dense row.

`echelon_rows` builds the fully reduced row-echelon form (RREF: unit
pivots, zeros in every other pivot column) one row at a time, in the
manner of the sparse eliminations of Faugere-Lachartre (PASCO 2010) and
Bouillaguet-Delaplace (CASC 2016):

* an incoming row is reduced in one pass over those of its entries that
  sit in pivot columns, because subtracting a fully reduced basis row
  changes no other pivot column;
* its first remaining column becomes its pivot, and a column -> rows
  index finds the basis rows holding that column, so only they are
  cleared.

Every pivot chosen this way is the leading column of a vector in the row
space, so the result is the unique RREF of the span, whatever the order
of the input rows.  Arithmetic is exact and branches once on the
characteristic, so the inner loops carry no per-entry dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .fields import Field

Row = tuple  # ((col, value), ...), sorted by col, values nonzero


@dataclass(frozen=True)
class Matrix:
    """A sparse matrix over one field: `rows` of (col, value) pairs with
    every col in range(ncols)."""

    field: Field
    ncols: int
    rows: tuple[Row, ...]

    @property
    def nrows(self) -> int:
        return len(self.rows)


def matrix(field: Field, rows: Iterable[Sequence], ncols: int | None = None) -> Matrix:
    """Build a Matrix from dense rows, normalizing every entry into the field."""
    norm = field.normalize
    out = []
    width = ncols
    for row in rows:
        vals = [norm(x) for x in row]
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise ValueError(f"row has {len(vals)} entries, expected {width}")
        out.append(tuple((c, x) for c, x in enumerate(vals) if x))
    return Matrix(field, width or 0, tuple(out))


def transpose(m: Matrix) -> Matrix:
    cols: list[list] = [[] for _ in range(m.ncols)]
    for r, row in enumerate(m.rows):
        for c, x in row:
            cols[c].append((r, x))
    return Matrix(m.field, m.nrows, tuple(tuple(col) for col in cols))


def _subtract(p: int, v: dict, f, row: Iterable[tuple]) -> None:
    """v -= f * row in place over F_p (p > 0) or Q (p == 0); zeros are dropped."""
    get = v.get
    if p:
        for j, x in row:
            s = (get(j, 0) - f * x) % p
            if s:
                v[j] = s
            else:
                del v[j]
    else:
        for j, x in row:
            y = get(j)
            s = -f * x if y is None else y - f * x
            if s:
                v[j] = s
            else:
                del v[j]


def echelon_rows(field: Field, rows: Iterable[Sequence[tuple]]) -> tuple[list[Row], list[int]]:
    """RREF of the span of sparse `rows`: (nonzero rows, pivot columns),
    both in increasing pivot order.

    Each returned row starts with (pivot, 1) and has no entry in any
    other pivot column.

    >>> from tensorseq.fields import GF
    >>> echelon_rows(GF(5), [((0, 2), (2, 4)), ((0, 1), (1, 1))])
    ([((0, 1), (2, 2)), ((1, 1), (2, 3))], [0, 1])
    """
    p = field.char
    basis: dict[int, dict] = {}     # pivot column -> row
    holders: dict[int, set] = {}    # non-pivot column -> pivots of the rows holding it
    for row in rows:
        v = dict(row)
        for c in [c for c in v if c in basis]:
            _subtract(p, v, v[c], basis[c].items())
        if not v:
            continue
        c = min(v)
        pv = v.pop(c)
        if pv != 1:
            inv = field.inv(pv)
            v = {j: x * inv % p for j, x in v.items()} if p else \
                {j: x * inv for j, x in v.items()}
        for j in v:
            holders.setdefault(j, set()).add(c)
        # r -= r[c] * (new row), inlined so that `holders` is touched
        # only where an entry of r appears or cancels
        for q in holders.pop(c, ()):
            r = basis[q]
            f = r.pop(c)
            for j, x in v.items():
                y = r.get(j)
                if y is None:
                    r[j] = (-f * x) % p if p else -f * x
                    holders[j].add(q)
                else:
                    s = (y - f * x) % p if p else y - f * x
                    if s:
                        r[j] = s
                    else:
                        del r[j]
                        holders[j].discard(q)
        basis[c] = {c: field.one, **v}
    pivots = sorted(basis)
    return [tuple(sorted(basis[c].items())) for c in pivots], pivots


def rank(m: Matrix) -> int:
    return len(echelon_rows(m.field, m.rows)[1])


def residue_list(field: Field, vec: Iterable[tuple], basis: Mapping[int, Row]) -> list:
    """Residue of the sparse `vec` modulo the row space of an RREF, given
    as its pivot column -> row index: sorted (col, value) pairs, empty
    iff `vec` lies in the span.  Equal residues mean equal classes.

    One pass over the pivot entries of `vec` suffices, because each
    subtracted row is zero in every other pivot column.
    """
    v = dict(vec)
    p = field.char
    for c in [c for c in v if c in basis]:
        _subtract(p, v, v[c], basis[c])
    return sorted(v.items())


def contained(field: Field, rows: Sequence[Row], pivots: Sequence[int],
              vectors: Iterable[Iterable[tuple]]) -> bool:
    """True iff every sparse vector lies in the span of the RREF (rows, pivots)."""
    basis = dict(zip(pivots, rows))
    return not any(residue_list(field, v, basis) for v in vectors)


def kernel_basis(m: Matrix) -> list[Row]:
    """Basis of the right null space {v : m @ v = 0}, one sparse vector
    per free column in increasing order; ncols - rank vectors."""
    rows, pivots = echelon_rows(m.field, m.rows)
    neg = m.field.neg
    pivot_set = set(pivots)
    entries: dict[int, list] = {j: [] for j in range(m.ncols) if j not in pivot_set}
    for c, row in zip(pivots, rows):
        for j, x in row[1:]:
            entries[j].append((c, neg(x)))
    one = m.field.one
    # each pivot c feeding column j lies left of j, so the pairs stay sorted
    return [tuple(e) + ((j, one),) for j, e in entries.items()]
