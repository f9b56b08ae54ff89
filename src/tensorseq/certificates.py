"""Machine-checkable exactness certificates and their JSON form.

A certificate records, for one (m, n, field) cell, the dimension data
and the named sub-checks of a sequence verification.  Aggregation is
fail-closed: a certificate passes only when it has at least one check,
no error, and every check passed.  JSON output is canonical (sorted
keys, fixed separators) so that identical runs are byte-identical once
timing fields are excluded.

Both certified sequences, M -> T -> S and Lambda -> S' -> S, end in an
injective map whose image must be the kernel of a projection P;
`image_equals_kernel` is that check for either one.  It row-reduces only
the image.  The image lies in the kernel iff x @ P = 0 for every image
row x, one sparse product each.  `kernel_basis` returns one vector per
free column of P's transpose, each with 1 in its own free column and 0
in the others, so the vectors are independent: their count is the kernel
rank, and their membership in the image's RREF gives kernel <= image.
The two containments make the spaces equal.
"""

from __future__ import annotations

import json
import time
from typing import Iterable, Sequence

from .errors import Record
from .fields import Field
from .linalg import (Matrix, Row, contained, echelon_rows, in_left_kernel, kernel_basis,
                     transpose)
from .tensor import Space


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)


class Certificate(Record):
    __slots__ = ("sequence", "m", "n", "field_name", "dims", "checks", "error", "elapsed_ms")

    def __init__(self, sequence: str, m: int, n: int, field_name: str, dims: dict,
                 checks: tuple[CheckResult, ...], error: str | None = None,
                 elapsed_ms: float | None = None):
        object.__setattr__(self, "sequence", sequence)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "field_name", field_name)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "error", error)
        object.__setattr__(self, "elapsed_ms", elapsed_ms)

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


def image_equals_kernel(field: Field, image_rows: Sequence[Row],
                        projection: Matrix) -> tuple[CheckResult, int, int]:
    """Check that the span of the sparse `image_rows` is the kernel of
    `projection` (rows = source basis, columns = target basis).

    image <= kernel holds iff every image row maps to zero, and
    kernel <= image iff every vector of the kernel basis lies in the
    image's RREF.  The kernel basis is independent as returned, so its
    size is the kernel rank and the projection's rank is its row count
    minus that.  Returns (check, image rank, projection rank).
    """
    img_rows, img_piv = echelon_rows(field, image_rows)
    kernel = kernel_basis(transpose(projection))
    img_in_ker = in_left_kernel(projection, image_rows)
    ker_in_img = contained(field, img_rows, img_piv, kernel)
    check = CheckResult(
        "image_equals_kernel", img_in_ker and ker_in_img,
        f"image rank {len(img_rows)}, kernel rank {len(kernel)}, "
        f"image<=kernel {img_in_ker}, kernel<=image {ker_in_img}")
    return check, len(img_rows), projection.nrows - len(kernel)


def certificates_to_json(certs: Iterable[Certificate], include_timing: bool = True,
                         pretty: bool = False) -> str:
    docs = [c.to_json_dict(include_timing) for c in certs]
    if pretty:
        return json.dumps(docs, sort_keys=True, indent=2) + "\n"
    return json.dumps(docs, sort_keys=True, separators=(",", ":")) + "\n"
