"""Exact sparse row reduction over Q and F_p.

A row is a tuple of (column, value) pairs sorted by column that holds
only nonzero field scalars; a `Matrix` pairs such rows with a field and
a width.  The relation and symmetrization matrices of this package have
one to six entries per row, and their reduced row-echelon forms stay
well under one percent dense, so nothing here ever builds a dense row.

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
of the input rows.  Arithmetic is exact, and `_subtract` is the one
reduction step: it reduces an incoming row against the basis, clears a
new pivot's column from the basis rows and reduces a `residue_list`
vector, and it branches once on the characteristic rather than per
entry.

`kernel_basis` eliminates only part of its matrix.  A row holding one
entry forces its column to zero in every kernel vector, so, as in the
structured Gaussian elimination of LaMacchia-Odlyzko (CRYPTO '90), those
columns are peeled off before any arithmetic and one `echelon_rows` call
reduces the longer rows with them dropped.  The transpose of the
flag-forgetting projection S' -> S is almost all such rows: at m = 8,
n = 6, 1,688 of its 1,716 rows.

Q values.  Over F_p a value is an int in [0, p).  Over Q, values inside
this module are Python ints while they are integral and `Fraction`s
otherwise, in the spirit of fraction-free elimination (Bareiss, Math.
Comp. 1968): every incoming row is converted once, a pivot of 1 needs no
scaling, a pivot of -1 negates its row, and only another pivot scales by
its inverse from `Field.inv`, an exact `Fraction` whose integral results
turn back into ints.  The integers (`fields._ZZ`) take the same path
and invert only +-1, so over them any other pivot raises `ValueError`
instead of leaving the ring.  The relation and symmetrization matrices
hold only 0 and +-1, and on the certification grids every value entering
or leaving their eliminations is +-1, so those eliminations build no
`Fraction`.  The rows and residues returned by `echelon_rows`,
`kernel_basis` and `residue_list` may therefore hold ints over Q; an int
compares and hashes equal to the `Fraction` of the same value, and
callers that hand values out of the package pass them through
`Field.normalize`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import Record
from .fields import Field

Row = tuple  # ((col, value), ...), sorted by col, values nonzero


class Matrix(Record):
    """A sparse matrix over one field: `rows` of (col, value) pairs with
    every col in range(ncols)."""

    __slots__ = ("field", "ncols", "rows")

    def __init__(self, field: Field, ncols: int, rows: tuple[Row, ...]):
        Record.__init__(self, field, ncols, rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)


def matrix(field: Field, rows: Iterable[Sequence], ncols: int | None = None) -> Matrix:
    """Build a Matrix from dense rows, coercing every entry (an int,
    `Fraction` or numeric string) into the field with `Field.coerce`."""
    norm = field.coerce
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


def _integral(row: Iterable[tuple]) -> dict:
    """A Q row as a dict, each integral value as an int."""
    return {j: x.numerator if x.denominator == 1 else x for j, x in row}


def _subtract(p: int, v: dict, f, row: Iterable[tuple]) -> None:
    """v -= f * row in place over F_p (p > 0) or Q (p == 0); zeros are dropped.

    Over Q an integral `Fraction` result is stored as an int, so ints
    stay ints and a `Fraction` appears only where a value is not integral.
    """
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
                v[j] = s if s.__class__ is int or s.denominator != 1 else s.numerator
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
        v = dict(row) if p else _integral(row)
        for c in [c for c in v if c in basis]:
            _subtract(p, v, v[c], basis[c].items())
        if not v:
            continue
        c = min(v)
        pv = v.pop(c)
        if pv != 1:
            if p:
                inv = field.inv(pv)
                v = {j: x * inv % p for j, x in v.items()}
            elif pv == -1:
                v = {j: -x for j, x in v.items()}
            else:
                inv = field.inv(pv)
                v = _integral((j, x * inv) for j, x in v.items())
        for j in v:
            holders.setdefault(j, set()).add(c)
        # clear column c from the basis rows holding it; only the columns
        # of v can gain or lose an entry of r there
        for q in holders.pop(c, ()):
            r = basis[q]
            _subtract(p, r, r.pop(c), v.items())
            for j in v:
                if j in r:
                    holders[j].add(q)
                else:
                    holders[j].discard(q)
        basis[c] = {c: 1, **v}
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
    p = field.char
    v = dict(vec) if p else _integral(vec)
    for c in [c for c in v if c in basis]:
        _subtract(p, v, v[c], basis[c])
    return sorted(v.items())


def kernel_basis(m: Matrix) -> list[Row]:
    """Basis of the right null space {v : m @ v = 0}, one sparse vector
    per free (non-pivot) column in increasing order; ncols - rank vectors.

    The vector of free column j holds 1 at j and 0 at every other free
    column, so the vectors are independent as returned: the span has
    dimension len(result) without another elimination.

    Rows holding one entry are peeled off first, as in structured
    Gaussian elimination (LaMacchia-Odlyzko, CRYPTO '90), and only the
    longer rows are eliminated.  A one-entry row (c, x) with x != 0
    forces v[c] = 0, so the unit row e_c lies in the row space, and
    subtracting multiples of these unit rows clears the peeled columns
    from the longer rows without changing the span.  By uniqueness, the
    RREF of `m` is the unit rows e_c together with the RREF of the
    longer rows with the peeled columns dropped: every peeled column is
    a pivot, and the kernel is {0 on the peeled columns} x the kernel of
    the rest.  The free columns are those neither peeled nor pivots of
    that one elimination, and a kernel vector is fixed by the kernel and
    its free column, so the result is the one a full elimination gives,
    value for value.

    >>> from tensorseq.fields import QQ
    >>> kernel_basis(matrix(QQ, [[0, 2, 0, 0], [1, 5, 0, 1]]))
    [((2, 1),), ((0, -1), (3, 1))]
    """
    peeled = {row[0][0] for row in m.rows if len(row) == 1}
    longer = []
    for row in m.rows:
        if len(row) > 1:
            if not peeled.isdisjoint(j for j, _ in row):
                row = tuple(e for e in row if e[0] not in peeled)
            if row:
                longer.append(row)
    rows, pivots = echelon_rows(m.field, longer)
    neg = m.field.neg
    pivot_set = set(pivots)
    entries: dict[int, list] = {j: [] for j in range(m.ncols)
                                if j not in pivot_set and j not in peeled}
    for c, row in zip(pivots, rows):
        for j, x in row[1:]:
            entries[j].append((c, neg(x)))
    # each pivot c feeding column j lies left of j, so the pairs stay sorted
    return [tuple(e) + ((j, 1),) for j, e in entries.items()]
