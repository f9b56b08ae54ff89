import random

import pytest

from tensorseq import perms

from conftest import all_perms, alternating_perms, apply_to_positions, inverse, parity


def test_identity_and_transpositions():
    assert perms.identity_perm(3) == (1, 2, 3)
    assert perms.adjacent_transposition(4, 2) == (1, 3, 2, 4)
    with pytest.raises(ValueError):
        perms.adjacent_transposition(3, 3)


def test_compose_convention():
    s = perms.adjacent_transposition(3, 1)
    t = perms.adjacent_transposition(3, 2)
    st = perms.compose(s, t)
    for k in (1, 2, 3):
        assert st[k - 1] == s[t[k - 1] - 1]


def test_inverse():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 7)
        t = tuple(rng.sample(range(1, n + 1), n))
        assert perms.compose(t, inverse(t)) == perms.identity_perm(n)
    assert inverse((2, 3, 1)) == (3, 1, 2)


def test_action_moves_positions():
    # out[t(k)] = in[k]
    t = (3, 1, 2)
    assert apply_to_positions(t, ("a", "b", "c")) == ("b", "c", "a")
    assert apply_to_positions((2, 1, 3), (7, 8, 9)) == (8, 7, 9)


def test_action_is_left_action():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(1, 6)
        s = tuple(rng.sample(range(1, n + 1), n))
        t = tuple(rng.sample(range(1, n + 1), n))
        w = tuple(rng.randint(0, 9) for _ in range(n))
        assert apply_to_positions(perms.compose(s, t), w) == \
            apply_to_positions(s, apply_to_positions(t, w))


def test_parity():
    assert parity((1, 2, 3)) == 0
    assert parity((2, 1, 3)) == 1
    assert parity((2, 3, 1)) == 0
    n4 = list(all_perms(4))
    assert sum(parity(t) for t in n4) == 12
    assert len(list(alternating_perms(4))) == 12


def test_perm_words_compose_back():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(1, 7)
        t = tuple(rng.sample(range(1, n + 1), n))
        assert perms.compose_word(n, perms.perm_word(t)) == t
        assert perms.compose_word(n, perms.perm_word_alt(t)) == t


def test_perm_word_reduced_length():
    for t in all_perms(4):
        w = perms.perm_word(t)
        inversions = sum(1 for i in range(4) for j in range(i + 1, 4) if t[i] > t[j])
        assert len(w) == inversions <= 6


def test_three_cycle_has_length_two_word():
    cycle = (2, 3, 1)  # 1 -> 2 -> 3 -> 1
    w = perms.perm_word(cycle)
    assert len(w) == 2
    assert perms.compose_word(3, w) == cycle


def test_alt_word_differs_somewhere():
    diffs = [t for t in all_perms(4) if perms.perm_word(t) != perms.perm_word_alt(t)]
    assert diffs, "the two factorization networks never disagree on S_4"


@pytest.mark.parametrize("fn,args", [
    (inverse, ((1, 1, 3),)),
    (inverse, ((0, 1, 2),)),
    (apply_to_positions, ((0, 1, 2), (7, 8, 9))),
    (apply_to_positions, ((1, 1, 3), (7, 8, 9))),
    (perms.perm_word, ((3, 3, 1),)),
    (perms.perm_word, ((1, 2, 4),)),
    (perms.perm_word_alt, ((3, 3, 1),)),
    (perms.compose, ((1, 1, 3), (2, 1, 3))),
    (perms.compose, ((2, 1, 3), (1, 1, 3))),
    (parity, ((1, 1, 3),)),
    (parity, ((2, 2, 2),)),
    (parity, ((0, 1),)),
], ids=lambda x: x.__name__ if callable(x) else "-".join(map(str, x)))
def test_non_permutations_are_rejected(fn, args):
    with pytest.raises(ValueError, match="not a permutation"):
        fn(*args)


def test_size_mismatch_is_reported_before_the_permutation_check():
    with pytest.raises(ValueError, match="size mismatch"):
        apply_to_positions((1, 1), (7, 8, 9))
    with pytest.raises(ValueError, match="size mismatch"):
        perms.compose((1, 2), (1, 1, 3))


def test_adjacent_transposition_is_cached_and_still_checks_its_index():
    assert perms.adjacent_transposition(5, 3) is perms.adjacent_transposition(5, 3)
    for i in (0, 5):
        with pytest.raises(ValueError, match="out of range"):
            perms.adjacent_transposition(5, i)


def _full_pass_perm_word(t):
    """The bubble-sort word with every pass running over the whole tuple."""
    a = list(t)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(a) - 1):
            if a[i] > a[i + 1]:
                a[i], a[i + 1] = a[i + 1], a[i]
                word.append(i + 1)
                changed = True
    return tuple(word)


def test_perm_word_passes_stop_at_the_last_swap_without_changing_the_word():
    for n in range(8):
        for t in all_perms(n):
            assert perms.perm_word(t) == _full_pass_perm_word(t)


def test_adjacent_transpositions_of_a_degree_are_the_cached_transpositions():
    for n in range(8):
        swaps = perms._adjacent_transpositions(n)
        assert len(swaps) == max(n - 1, 0)
        for i in range(1, n):
            assert swaps[i - 1] is perms.adjacent_transposition(n, i)
    assert perms._adjacent_transpositions(5) is perms._adjacent_transpositions(5)


def test_mover_moves_letters_as_apply_to_positions(monkeypatch):
    checks = []
    is_perm = perms.is_perm
    monkeypatch.setattr(perms, "is_perm", lambda t: checks.append(t) or is_perm(t))
    cache = perms._mover
    cache.cache_clear()
    # every permutation of degree <= 7 (5,914, of which 5,040 of degree 7)
    # through a cache of 1,024: most movers are evicted, and are built and
    # checked again on the second pass
    for _ in range(2):
        for n in range(8):
            letters = tuple(range(10, 10 + n))
            for t in all_perms(n):
                assert cache(t)(letters) == apply_to_positions(t, letters)
    info = cache.cache_info()
    assert info.currsize == info.maxsize < 5040 and info.misses > 5914
    # one check per miss, besides the one of each `apply_to_positions` call
    assert len(checks) == info.misses + 2 * 5914
    assert perms._mover((2, 3, 1)) is perms._mover((2, 3, 1))
