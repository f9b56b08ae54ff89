"""Exception types and limits shared across the package."""

from __future__ import annotations

DEFAULT_SIZE_CAP = 20_000


class SizeCapError(ValueError):
    """A requested computation exceeds the configured ambient-dimension cap."""

    def __init__(self, needed: int, cap: int, what: str = "ambient dimension"):
        self.needed = needed
        self.cap = cap
        super().__init__(f"{what} {needed} exceeds size cap {cap}")


def check_cap(needed: int, size_cap: int | None, what: str = "ambient dimension") -> None:
    """Raise `SizeCapError` when `needed` exceeds `size_cap`
    (`DEFAULT_SIZE_CAP` when None)."""
    cap = DEFAULT_SIZE_CAP if size_cap is None else size_cap
    if needed > cap:
        raise SizeCapError(needed, cap, what)


class ElementParseError(ValueError):
    """Malformed element or word syntax; carries the offset of the bad token."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")
