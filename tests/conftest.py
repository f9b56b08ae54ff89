import pytest

from tensorseq import bimodule, linalg, mseq, tensor
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


# relation family -> the `mseq` function building its cores as {term: coeff}
CORES = {"jacobi_cycle": "_jacobi_core", "commutator_transfer": "_transfer_core"}


@pytest.fixture
def break_sign(monkeypatch):
    """Patch a relation family (`CORES`) so that each core it builds has
    the sign of its first term flipped: still nonzero, but its expansion
    no longer vanishes."""
    def patch(family):
        real = getattr(mseq, CORES[family])

        def broken(field, *args):
            terms = real(field, *args)
            first = min(terms)
            terms[first] = field.neg(terms[first])
            return terms

        monkeypatch.setattr(mseq, CORES[family], broken)

    return patch
