from itertools import permutations

import pytest

from tensorseq import bimodule, evensym, linalg, mseq, perms, sprimeseq, tensor
from tensorseq.bases import all_monomials, all_wedge_words, collect
from tensorseq.evensym import OrbitWord
from tensorseq.fields import GF, QQ


def contained(field, rows, pivots, vectors) -> bool:
    """True iff every sparse vector lies in the span of the RREF (rows, pivots)."""
    basis = dict(zip(pivots, rows))
    return not any(linalg.residue_list(field, v, basis) for v in vectors)


@pytest.fixture(scope="session")
def ctx_cache():
    """Memoized quotient contexts; deterministic, so safe to share."""
    cache = {}

    def get(m, n, field=QQ):
        key = (m, n, field)
        if key not in cache:
            cache[key] = bimodule.build_context(tensor.Space(m, field), n)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def fields_qf23():
    return (QQ, GF(2), GF(3))


# relation family -> the `mseq` function building its cores as {term: +-1}
CORES = {"jacobi_cycle": "_jacobi_core", "commutator_transfer": "_transfer_core"}


@pytest.fixture
def break_sign(monkeypatch):
    """Patch a relation family (`CORES`) so that each core it builds has
    the sign of its first term flipped: still nonzero, but its expansion
    no longer vanishes."""
    def patch(family):
        real = getattr(mseq, CORES[family])

        def broken(*letters):
            terms = real(*letters)
            first = min(terms)
            terms[first] = -terms[first]
            return terms

        monkeypatch.setattr(mseq, CORES[family], broken)

    return patch


@pytest.fixture
def crash_cell(monkeypatch):
    """Patch both certifiers so that the cell (m, n) raises
    `MemoryError("out of memory")` over every field; every other cell
    is certified as before."""
    def patch(m, n):
        for mod in (mseq, sprimeseq):
            def crashing(space, degree, size_cap=None, real=mod.verify_sequence):
                if (space.dim, degree) == (m, n):
                    raise MemoryError("out of memory")
                return real(space, degree, size_cap)

            monkeypatch.setattr(mod, "verify_sequence", crashing)

    return patch


# --- reference implementations ----------------------------------------------
# Element products and permutation helpers that no command runs.  The
# tests use them to state the algebra laws the package's maps must keep.

def all_perms(n):
    return permutations(range(1, n + 1))


def alternating_perms(n):
    return (t for t in all_perms(n) if perms._parity(t) == 0)


def inverse(t):
    perms.check_perm(t)
    out = [0] * len(t)
    for k, v in enumerate(t):
        out[v - 1] = k + 1
    return tuple(out)


def apply_to_positions(t, letters):
    """Move the entry at position k to position t(k): out[t(k)] = in[k]."""
    if len(t) != len(letters):
        raise ValueError("size mismatch")
    perms.check_perm(t)
    return perms._apply_to_positions(t, letters)


def parity(t):
    """0 for even permutations, 1 for odd ones."""
    perms.check_perm(t)
    return perms._parity(t)


def tensor_product(a, b):
    """Bilinear product; on words it is concatenation."""
    if a.space != b.space:
        raise ValueError("elements live over different spaces")
    mul = a.space.field.mul
    terms = collect(a.space.field, ((wa + wb, mul(ca, cb)) for wa, ca in a.terms.items()
                                    for wb, cb in b.terms.items()))
    return tensor.TensorElement._own(a.space, a.degree + b.degree, terms)


def commutator(a, b):
    """a (x) b - b (x) a."""
    return tensor_product(a, b) - tensor_product(b, a)


def sym_product(a, b):
    """Commutative product: merge the monomials."""
    if a.space != b.space:
        raise ValueError("elements live over different spaces")
    mul = a.space.field.mul
    terms = collect(a.space.field, ((tuple(sorted(wa + wb)), mul(ca, cb))
                                    for wa, ca in a.terms.items()
                                    for wb, cb in b.terms.items()))
    return tensor.SymElement._own(a.space, a.degree + b.degree, terms)


def bimodule_mult(l, x, r):
    """Two-sided word multiplication, bilinear in all three slots."""
    if not (l.space == x.space == r.space):
        raise ValueError("elements live over different spaces")
    mul = x.space.field.mul
    terms = collect(x.space.field, (((wl + a, pair, b + wr), mul(mul(cl, cx), cr))
                                    for wl, cl in l.terms.items()
                                    for (a, pair, b), cx in x.terms.items()
                                    for wr, cr in r.terms.items()))
    return bimodule.BimodElement._own(x.space, l.degree + x.degree + r.degree, terms)


def representative(e):
    """A word in the class: the sorted word, with its first two letters
    swapped for twisted classes."""
    if e.twisted:
        w = e.word
        return (w[1], w[0]) + w[2:]
    return e.word


def swap_first_two(a):
    """The involution swapping the first two factors: toggles the flag
    of distinct-letter classes, fixes classes with a repeat."""
    if a.degree < 2:
        raise ValueError(f"need degree >= 2, got {a.degree}")
    out = {}
    for k, c in a.terms.items():
        if len(set(k.word)) == len(k.word):
            k = OrbitWord(k.word, not k.twisted)
        out[k] = c
    return evensym.EvenSymElement._own(a.space, a.degree, out)


def evensym_product(a, b):
    """Concatenate representatives, then renormalize.  Associative, with
    the empty word as unit; independent of the representative choice."""
    if a.space != b.space:
        raise ValueError("elements live over different spaces")
    mul = a.space.field.mul
    terms = collect(a.space.field,
                    ((evensym.normal_form(representative(ka) + representative(kb)),
                      mul(ca, cb))
                     for ka, ca in a.terms.items() for kb, cb in b.terms.items()))
    return evensym.EvenSymElement._own(a.space, a.degree + b.degree, terms)


def basis_words(m, n):
    """Canonical class order: plain classes lexicographically, then
    twisted classes lexicographically."""
    out = [OrbitWord(w, False) for w in all_monomials(m, n)]
    if n >= 2:
        out.extend(OrbitWord(w, True) for w in all_wedge_words(m, n))
    return out
