"""Exception types, limits and the value-class base shared across the
package, and the error vocabulary of the command line: its exit codes,
`UsageError` and two helpers.

Both `cli` and `commands` use that vocabulary, so it lives here and not
in `cli`: `python -m tensorseq.cli` runs `cli` as `__main__`, and a
module importing from `tensorseq.cli` would load a second copy of it,
with a `UsageError` that the running `main` does not catch."""

from __future__ import annotations

import sys
from operator import attrgetter

DEFAULT_SIZE_CAP = 20_000

EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SIZE_CAP = 3


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


class UsageError(Exception):
    """A usage or syntax error found by a command: exit code 2."""


def field_option(name: str):
    """The field a `--field` value names; a bad name is a usage error."""
    from .fields import parse_field
    try:
        return parse_field(name)
    except ValueError as e:
        raise UsageError(str(e))


def report_capped(e: SizeCapError) -> int:
    """Report a size-cap refusal on stderr; the exit code of one."""
    print(f"size cap exceeded: {e}", file=sys.stderr)
    return EXIT_SIZE_CAP


class Record:
    """Base of the package's immutable value classes.

    It stands in for the standard library's frozen-class decorator, whose
    module loads `inspect` (several milliseconds of every command-line
    launch) and which compiles generated methods for each class.

    A subclass names its two or more fields in `__slots__`, in
    constructor order, and sets them in `__init__` through
    `object.__setattr__`.  Instances are equal when they have the same
    class and equal field tuples, hash their field tuple, repr as
    ``Name(field=value, ...)``, pickle and copy by their fields, and raise
    `AttributeError` on assignment or deletion.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._astuple = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            # a tuple compares its own items as equal by identity
            return other is self or self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._astuple(self)
