import pytest

from tensorseq import bimodule, tensor
from tensorseq.fields import GF, QQ


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


@pytest.fixture
def break_sign(monkeypatch):
    """Patch a relation family of `bimodule` so that each element it
    builds has the sign of its first term flipped: still nonzero, but
    its expansion no longer vanishes."""
    def patch(family):
        real = getattr(bimodule, family)

        def broken(space, *args):
            elem = real(space, *args)
            terms = dict(elem.terms)
            first = min(terms)
            terms[first] = space.field.neg(terms[first])
            return bimodule.BimodElement(space, elem.degree, terms)

        monkeypatch.setattr(bimodule, family, broken)

    return patch
