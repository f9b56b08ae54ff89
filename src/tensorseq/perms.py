"""Permutations of {1..n} in one-line notation.

A permutation is a tuple `t` with `t[k-1] = t(k)`.  Composition is
function composition, `(s * t)(k) = s(t(k))`, and permutations act on
letter tuples by moving the letter at position k to position t(k).

`compose`, `perm_word_alt`, `perm_word` and `_mover` raise `ValueError`
on a tuple that is not a permutation.  `compose`, `perm_word_alt` and
`perm_word` check their arguments on every call.  Only `_mover` and
`_adjacent_transpositions` cache.  `_mover` checks t inside, so t is
checked when it enters the cache and not again while it stays there;
`lru_cache` keeps no result for a call that raises, so a
non-permutation is refused on every call.  Code inside the package that
already holds a permutation it built or checked uses the unchecked
`_compose`, `_apply_to_positions` and `_parity`.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Sequence

Perm = tuple

# adjacent-transposition factorizations; index i swaps positions i, i+1
Word = tuple


def is_perm(t: Perm) -> bool:
    """
    >>> is_perm((2, 1, 3)), is_perm((1, 1, 2))
    (True, False)
    """
    return sorted(t) == list(range(1, len(t) + 1))


def check_perm(t: Perm) -> None:
    """Raise `ValueError` unless t is a permutation of 1..len(t)."""
    if not is_perm(t):
        raise ValueError(f"{t} is not a permutation of 1..{len(t)}")


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def adjacent_transposition(n: int, i: int) -> Perm:
    """The transposition swapping i and i+1, for 1 <= i <= n-1: entry
    i - 1 of `_adjacent_transpositions(n)`, the same object."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"transposition index {i} out of range for n={n}")
    return _adjacent_transpositions(n)[i - 1]


# cached per degree: `bimodule.cocycle` indexes this tuple once per swap it
# applies along a word it is given, and `compose_word` reads one entry per
# letter of that word; a process meets few degrees, and 64 bounds them
@lru_cache(maxsize=64)
def _adjacent_transpositions(n: int) -> tuple[Perm, ...]:
    """All adjacent transpositions of degree n: entry i - 1 swaps i, i+1."""
    ident = identity_perm(n)
    return tuple(ident[:i - 1] + (i + 1, i) + ident[i + 1:] for i in range(1, n))


def compose(s: Perm, t: Perm) -> Perm:
    """Function composition s . t (t applied first).

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(s) != len(t):
        raise ValueError("size mismatch")
    check_perm(s)
    check_perm(t)
    return _compose(s, t)


def _compose(s: Perm, t: Perm) -> Perm:
    return tuple(s[t[k] - 1] for k in range(len(t)))


def _apply_to_positions(t: Perm, letters: Sequence) -> tuple:
    """Move the entry at position k to position t(k): out[t(k)] = in[k].

    Equivalently out[h] = in[t^{-1}(h)], so this is a left action:
    applying s after t agrees with applying `compose(s, t)`."""
    out = [None] * len(t)
    for k, v in enumerate(t):
        out[v - 1] = letters[k]
    return tuple(out)


# cached: `tensor.perm_action` moves every word of an element with one
# mover.  `bimodule.cocycle` acts by the whole permutation of every
# query, and a query loop draws few distinct ones (720 at degree 6); a
# telescope along a given word adds at most n - 1 adjacent
# transpositions.  maxsize 1024 holds every permutation of degree <= 6
# (1 + 1 + 2 + 6 + 24 + 120 + 720 = 874) and bounds the cache at higher
# degrees, where t has 5,040 values or more.
@lru_cache(maxsize=1024)
def _mover(t: Perm):
    """A function of one tuple of letters that equals
    `_apply_to_positions(t, ...)` on it, done in C by `itemgetter`.
    Checks t first."""
    check_perm(t)
    if len(t) < 2:
        # the one permutation of 0 or 1 positions; itemgetter of one index
        # would return the letter, not a tuple
        return tuple
    # position h of the result takes the letter at position t^{-1}(h)
    return itemgetter(*_apply_to_positions(t, range(len(t))))


def _parity(t: Perm) -> int:
    seen = [False] * len(t)
    odd = 0
    for k in range(len(t)):
        if seen[k]:
            continue
        length = 0
        pos = k
        while not seen[pos]:
            seen[pos] = True
            pos = t[pos] - 1
            length += 1
        odd ^= (length - 1) & 1
    return odd


def sorting_perm(letters: Sequence) -> Perm:
    """The positions of `letters` in stably sorted order, as a permutation:
    position t(k) holds the k-th smallest letter.  For distinct letters
    the `_parity` of t is that of the inversion count of `letters`, found
    in O(n log n) instead of by an O(n^2) count of pairs.

    >>> sorting_perm((20, 30, 10))
    (3, 1, 2)
    """
    return tuple(sorted(range(1, len(letters) + 1), key=lambda k: letters[k - 1]))


def compose_word(n: int, word: Sequence[int]) -> Perm:
    """The permutation of a transposition word, first letter applied first."""
    t = identity_perm(n)
    for i in word:
        t = _compose(adjacent_transposition(n, i), t)
    return t


def perm_word(t: Perm) -> Word:
    """Factor t into adjacent transpositions with a bubble-sort network.

    Sorting the one-line form records swaps i_1, ..., i_s in order, and
    then t = tau_{i_s} ... tau_{i_1} with tau_{i_1} applied first.  The
    word is reduced: its length is the inversion count, at most n(n-1)/2.

    >>> perm_word((1, 2, 3))
    ()
    >>> perm_word((2, 1, 3))
    (1,)
    >>> perm_word((2, 3, 1))
    (2, 1)
    """
    check_perm(t)
    # positions from a pass's last swap on are sorted, and the next pass
    # would compare them without swapping, so it stops there
    a = list(t)
    word = []
    end = len(a) - 1
    while end > 0:
        last = 0
        for i in range(end):
            if a[i] > a[i + 1]:
                a[i], a[i + 1] = a[i + 1], a[i]
                word.append(i + 1)
                last = i
        end = last
    return tuple(word)


def perm_word_alt(t: Perm) -> Word:
    """A second factorization, via a selection network: bubble the largest
    misplaced value into place, largest target position first.  Differs
    from `perm_word` on most permutations; used to cross-check results
    that must not depend on the factorization.
    """
    check_perm(t)
    a = list(t)
    n = len(a)
    word = []
    for target in range(n - 1, 0, -1):
        pos = a.index(target + 1)
        for i in range(pos, target):
            a[i], a[i + 1] = a[i + 1], a[i]
            word.append(i + 1)
    return tuple(word)
