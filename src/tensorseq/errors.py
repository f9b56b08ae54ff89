"""Exception types and limits shared across the package."""

DEFAULT_SIZE_CAP = 20_000


class SizeCapError(ValueError):
    """A requested computation exceeds the configured ambient-dimension cap."""

    def __init__(self, needed: int, cap: int, what: str = "ambient dimension"):
        self.needed = needed
        self.cap = cap
        super().__init__(f"{what} {needed} exceeds size cap {cap}")


class ElementParseError(ValueError):
    """Malformed element or word syntax; carries the offset of the bad token."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")
