"""Machine-checkable exactness certificates and their JSON form.

A certificate records, for one (m, n, field) cell, the dimension data
and the named sub-checks of a sequence verification.  Aggregation is
fail-closed: a certificate passes only when it has at least one check,
no error, and every check passed.  JSON output is canonical (sorted
keys, fixed separators) so that identical runs are byte-identical once
timing fields are excluded.

Both certified sequences, M -> T -> S and Lambda -> S' -> S, end in an
injective map whose image must be the kernel of a projection P;
`image_equals_kernel` is that check for either one, and it eliminates
nothing but P's transpose.  Both images are spanned by differences of
two basis vectors: the expansion of a wedge term l.(a^b).r is the word
l.a.b.r minus the word one adjacent swap away, and the wedge embedding
sends a strictly increasing word to its plain minus its twisted class.
Both projections send each source basis vector to one target basis
vector, so each row of P holds one 1.  Those are the only two row shapes
the argument needs, and each has one writer: `bases.edge_rows` writes
every image row and `bases.fibre_matrix` every projection, while
`_is_difference` is the one reader, failing closed on any other row.
Reading each image row a * (e_u - e_v) as an edge (u, v) on the source
basis of P makes the image the column space of a graph's oriented
incidence matrix, whose rank over any field is the number of vertices
minus the number of connected components (Biggs, *Algebraic Graph
Theory*).  Three facts then certify image = kernel:

* the image rank is the number of vertices minus the number of
  connected components, which is the number of merges a union-find
  makes over the edges;
* the image lies in the kernel iff P's rows u and v are equal for every
  edge, because rows are canonical sparse rows, so that equality is
  exactly (e_u - e_v) P = 0;
* a vector lies in the image iff its entries sum to zero on every
  component, so the kernel lies in the image iff every vector of
  `kernel_basis(transpose(P))` does.  Those vectors are independent as
  returned (each has 1 in its own free column and 0 in the others), so
  their count is the kernel rank and P's rank is its row count minus it.

The M sequence takes the rank of its expansion E from the image rank
returned here: the graph's vertices minus components.  Once every
relation expands to zero, the relation span R lies in the kernel of E,
so rank R is at most the ambient dimension minus rank E.  The
leading-term count in `mseq` is a lower bound on rank R, and a
lemma in the `mseq` docstring shows that it always meets that upper
bound.  The cell still checks that it does: then R is the kernel of E,
and the quotient, of dimension rank E, maps injectively.  A count that
fell short would fail the cell; R is never eliminated.  A row that is
not a unit multiple of a difference is never re-signed or dropped: the
check fails and names it.

None of the three facts above depends on the field: they are statements
about a graph and about the fibres of P.  So the M sequence, whose image
rows are e_u - e_v and whose projection rows each hold one 1, calls
`image_equals_kernel` once, over the integers, and the outcome holds
over Q and every F_p.  The check accepts an image row a(e_u - e_v) only
when the ring calls a a unit (`Field.is_unit`): any nonzero a in a
field, but only +-1 in the integers, so never 2(e_u - e_v), an edge over
Q but zero over F2.  With the unit leading coefficients that `mseq`
asks the same ring for on its relation cores, that makes one integer
computation a certificate for every field, and `certify.run_grid` stamps
a copy of it with each field's name.  The S' sequence is still checked
once per field.
"""

from __future__ import annotations

import json
import time
from typing import Iterable, Sequence

from .errors import Record
from .fields import Field
from .linalg import Matrix, Row, kernel_basis, transpose
from .bases import Space, collect


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        Record.__init__(self, name, passed, detail)


class Certificate(Record):
    __slots__ = ("sequence", "m", "n", "field_name", "dims", "checks", "error", "elapsed_ms")

    def __init__(self, sequence: str, m: int, n: int, field_name: str, dims: dict,
                 checks: tuple[CheckResult, ...], error: str | None = None,
                 elapsed_ms: float | None = None):
        Record.__init__(self, sequence, m, n, field_name, dims, checks, error, elapsed_ms)

    @property
    def passed(self) -> bool:
        return self.error is None and bool(self.checks) and all(c.passed for c in self.checks)

    @property
    def capped(self) -> bool:
        return self.error is not None and self.error.startswith("size_cap")

    def to_json_dict(self, include_timing: bool = True) -> dict:
        doc = {
            "sequence": self.sequence,
            "m": self.m,
            "n": self.n,
            "field": self.field_name,
            "dims": dict(sorted(self.dims.items())),
            "checks": [
                {"name": c.name, "pass": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "pass": self.passed,
        }
        if self.error is not None:
            doc["error"] = self.error
        if include_timing and self.elapsed_ms is not None:
            doc["elapsed_ms"] = self.elapsed_ms
        return doc

    def stamped(self, field_name: str) -> "Certificate":
        """This certificate under the name of another field, for a
        result computed once for every field."""
        return Certificate(self.sequence, self.m, self.n, field_name, self.dims,
                           self.checks, self.error, self.elapsed_ms)

    def summary(self) -> str:
        status = "PASS" if self.passed else ("CAP" if self.capped else "FAIL")
        return f"[{status}] {self.sequence} m={self.m} n={self.n} field={self.field_name}"


def certificate(sequence: str, space: Space, n: int, dims: dict,
                checks: Iterable[CheckResult], start: float) -> Certificate:
    """The certificate of one verified cell, timed from `start`, a
    `time.perf_counter()` reading taken when its verification began."""
    elapsed = (time.perf_counter() - start) * 1000.0
    return Certificate(
        sequence=sequence, m=space.dim, n=n, field_name=space.field.name,
        dims=dims, checks=tuple(checks), elapsed_ms=round(elapsed, 3))


def _is_difference(field: Field, nv: int, row: Row) -> bool:
    """True iff the sparse `row` is a * (e_u - e_v) with u != v both in
    range(nv) and a a unit of `field`: over the integers only +-1, for a
    row 2(e_u - e_v) would be a difference over Q but vanish over F2."""
    if len(row) != 2:
        return False
    (u, a), (v, b) = row
    return (u != v and 0 <= u < nv and 0 <= v < nv
            and field.is_unit(a) and not field.add(a, b))


def _zero_on_components(field: Field, root: Sequence[int], vec: Row) -> bool:
    """True iff the entries of the sparse `vec` sum to zero on every
    component, `root[j]` naming the component of column j."""
    return not collect(field, ((root[j], x) for j, x in vec))


def image_equals_kernel(field: Field, image_rows: Sequence[Row],
                        projection: Matrix) -> tuple[CheckResult, int | None, int]:
    """Check that the span of the sparse `image_rows` is the kernel of
    `projection` (rows = source basis, columns = target basis).

    Each image row must be a unit multiple of e_u - e_v, an edge (u, v)
    on the source basis: `field.is_unit` decides, so that over the
    integers the edge stays an edge over every F_p; the module docstring
    gives the argument.
    Returns (check, image rank, projection rank).  A row that is not
    such a difference fails the check, named in its detail, and leaves
    the image rank undetermined: None.
    """
    kernel = kernel_basis(transpose(projection))
    nv = projection.nrows
    projection_rank = nv - len(kernel)
    parent = list(range(nv))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    rows = projection.rows
    img_in_ker = True
    merges = 0
    for i, row in enumerate(image_rows):
        if not _is_difference(field, nv, row):
            check = CheckResult("image_equals_kernel", False,
                                f"image row {i} is not a difference of two basis vectors")
            return check, None, projection_rank
        (u, _), (v, _) = row
        if rows[u] != rows[v]:
            img_in_ker = False
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            merges += 1
    root = [find(x) for x in range(nv)]
    ker_in_img = all(_zero_on_components(field, root, vec) for vec in kernel)
    check = CheckResult(
        "image_equals_kernel", img_in_ker and ker_in_img,
        f"image rank {merges}, kernel rank {len(kernel)}, "
        f"image<=kernel {img_in_ker}, kernel<=image {ker_in_img}")
    return check, merges, projection_rank


def certificates_to_json(certs: Iterable[Certificate], include_timing: bool = True,
                         pretty: bool = False) -> str:
    docs = [c.to_json_dict(include_timing) for c in certs]
    if pretty:
        return json.dumps(docs, sort_keys=True, indent=2) + "\n"
    return json.dumps(docs, sort_keys=True, separators=(",", ":")) + "\n"
