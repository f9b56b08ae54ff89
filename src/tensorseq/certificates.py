"""Machine-checkable exactness certificates and their JSON form.

A certificate records, for one (m, n, field) cell, the dimension data
and the named sub-checks of a sequence verification.  Aggregation is
fail-closed: a certificate passes only when it has at least one check,
no error, and every check passed.  JSON output is canonical (sorted
keys, fixed separators) so that identical runs are byte-identical once
timing fields are excluded.

Both certified sequences, M -> T -> S and Lambda -> S' -> S, end in an
injective map whose image must be the kernel of a projection;
`image_equals_kernel` is that check for either one.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Iterable

from .fields import Field
from .linalg import Matrix, Row, contained, echelon_rows, kernel_basis, transpose
from .tensor import Space


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Certificate:
    sequence: str
    m: int
    n: int
    field_name: str
    dims: dict
    checks: tuple[CheckResult, ...]
    error: str | None = None
    elapsed_ms: float | None = None

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


def image_equals_kernel(field: Field, image_rows: Iterable[Row],
                        projection: Matrix) -> CheckResult:
    """Check that the span of the sparse `image_rows` is the kernel of
    `projection` (rows = source basis, columns = target basis), by
    containment in both directions."""
    img_rows, img_piv = echelon_rows(field, image_rows)
    ker_rows, ker_piv = echelon_rows(field, kernel_basis(transpose(projection)))
    img_in_ker = contained(field, ker_rows, ker_piv, img_rows)
    ker_in_img = contained(field, img_rows, img_piv, ker_rows)
    return CheckResult(
        "image_equals_kernel", img_in_ker and ker_in_img,
        f"image rank {len(img_rows)}, kernel rank {len(ker_rows)}, "
        f"image<=kernel {img_in_ker}, kernel<=image {ker_in_img}")


def certificates_to_json(certs: Iterable[Certificate], include_timing: bool = True,
                         pretty: bool = False) -> str:
    docs = [c.to_json_dict(include_timing) for c in certs]
    if pretty:
        return json.dumps(docs, sort_keys=True, indent=2) + "\n"
    return json.dumps(docs, sort_keys=True, separators=(",", ":")) + "\n"
