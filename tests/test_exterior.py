import random
from fractions import Fraction

import pytest

from tensorseq import exterior, linalg, perms, tensor
from tensorseq.fields import GF, QQ

from conftest import contained


def test_wedge_canon_examples():
    assert exterior.wedge_canon((2, 1)) == (-1, (1, 2))
    assert exterior.wedge_canon((1, 1)) is None
    assert exterior.wedge_canon((3, 1, 2)) == (1, (1, 2, 3))
    assert exterior.wedge_canon(()) == (1, ())


def test_wedge_canon_sign_equivariance():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 6)
        letters = tuple(rng.sample(range(1, 10), n))
        s = tuple(rng.sample(range(1, n + 1), n))
        sign0, sorted0 = exterior.wedge_canon(letters)
        signs, sorteds = exterior.wedge_canon(perms.apply_to_positions(s, letters))
        assert sorted0 == sorteds
        assert signs == sign0 * (-1 if perms.parity(s) else 1)


def test_wedge_word_element_folds_sign():
    sp = tensor.Space(3, QQ)
    e = exterior.wedge_word_element(sp, (2, 1))
    assert e.terms == {(1, 2): Fraction(-1)}
    assert exterior.wedge_word_element(sp, (1, 1)).is_zero()
    f2 = tensor.Space(3, GF(2))
    e2 = exterior.wedge_word_element(f2, (2, 1))
    assert e2.terms == {(1, 2): 1}


def test_strictly_increasing_enforced():
    sp = tensor.Space(3, QQ)
    with pytest.raises(ValueError):
        exterior.ExtElement(sp, 2, {(2, 1): 1})
    with pytest.raises(ValueError):
        exterior.ExtElement(sp, 2, {(1, 1): 1})


def test_wedge_to_tensor_examples():
    sp = tensor.Space(2, QQ)
    e = exterior.ExtElement(sp, 2, {(1, 2): 1})
    assert exterior.wedge_to_tensor(e).terms == {(1, 2): Fraction(1), (2, 1): Fraction(-1)}
    zero = exterior.ExtElement(sp, 2, {})
    assert exterior.wedge_to_tensor(zero).is_zero()
    flipped = exterior.wedge_word_element(sp, (2, 1))
    assert exterior.wedge_to_tensor(flipped).terms == \
        {(2, 1): Fraction(1), (1, 2): Fraction(-1)}
    with pytest.raises(ValueError):
        exterior.wedge_to_tensor(exterior.ExtElement(sp, 3, {}))


def test_dim_wedge():
    assert exterior.dim_wedge(3, 2) == 3
    assert exterior.dim_wedge(2, 3) == 0
    assert exterior.dim_wedge(4, 2) == 6


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_degree_two_sequence_is_exact(m):
    """Injectivity of the wedge embedding and image = kernel of the
    symmetric projection, by ranks and mutual residues."""
    for field in (QQ, GF(2), GF(3)):
        sp = tensor.Space(m, field)
        emb = exterior.wedge_to_tensor_matrix(sp)
        assert linalg.rank(emb) == exterior.dim_wedge(m, 2)
        image, image_piv = linalg.echelon_rows(field, emb.rows)
        ker = linalg.kernel_basis(linalg.transpose(tensor.symmetrize_matrix(sp, 2)))
        kernel, kernel_piv = linalg.echelon_rows(field, ker)
        assert contained(field, image, image_piv, kernel)
        assert contained(field, kernel, kernel_piv, image)


def test_json_roundtrip():
    sp = tensor.Space(4, QQ)
    a = exterior.ExtElement(sp, 2, {(1, 3): Fraction(2, 7), (2, 4): -1})
    doc = a.to_json()
    assert doc["wedge"] is True
    assert exterior.ExtElement.from_json(sp, doc) == a
    doc["terms"][0]["word"] = [3, 1]
    with pytest.raises(ValueError, match="strictly increasing"):
        exterior.ExtElement.from_json(sp, doc)
