"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything is exact arithmetic, so every comparison is equality with
zero tolerance.  Run with `pytest tests/test_acceptance.py -v -s` to see
the per-criterion lines and timings.
"""

import random
import time
from itertools import product

from tensorseq import bimodule, certify, degree2, evensym, exterior, linalg, perms, tensor
from tensorseq.certificates import certificates_to_json
from tensorseq.fields import GF, QQ

from conftest import contained

FIELDS_Q235 = (QQ, GF(2), GF(3), GF(5))
FIELDS_Q23 = (QQ, GF(2), GF(3))


def _report(num, title, ok, detail=""):
    line = f"ACCEPTANCE {num} {title}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_degree2_sequence():
    """Wedge embedding rank C(m,2) and image = kernel of symmetrization,
    m in 1..5 over Q, F2, F3, F5, in under a second."""
    start = time.perf_counter()
    ok = True
    for m in range(1, 6):
        for field in FIELDS_Q235:
            sp = tensor.Space(m, field)
            emb = exterior.wedge_to_tensor_matrix(sp)
            if linalg.rank(emb) != exterior.dim_wedge(m, 2):
                ok = False
            image, image_piv = linalg.echelon_rows(field, emb.rows)
            ker = linalg.kernel_basis(linalg.transpose(tensor.symmetrize_matrix(sp, 2)))
            kernel, kernel_piv = linalg.echelon_rows(field, ker)
            if not (contained(field, image, image_piv, kernel)
                    and contained(field, kernel, kernel_piv, image)):
                ok = False
    elapsed = time.perf_counter() - start
    _report(1, "degree-2 exact sequence", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_bimodule_sequence_grid():
    """Full quotient-bimodule exactness over the stated grid, with the
    exact dimension identity, in under five minutes."""
    start = time.perf_counter()
    cells = [(m, n) for m in (2, 3) for n in (2, 3, 4, 5)] + [(4, 2), (4, 3), (4, 4)]
    ok = True
    seen_dim_3_3 = None
    for m, n in cells:
        for field in FIELDS_Q23:
            cert = bimodule.verify_sequence(tensor.Space(m, field), n)
            if not cert.passed or len(cert.checks) != 3:
                ok = False
            if cert.dims["m_dim"] != tensor.dim_tensor(m, n) - tensor.dim_sym(m, n):
                ok = False
            if (m, n) == (3, 3):
                seen_dim_3_3 = cert.dims["m_dim"]
    if seen_dim_3_3 != 17:
        ok = False
    elapsed = time.perf_counter() - start
    _report(2, "bimodule sequence grid", ok and elapsed < 300.0,
            f"{len(cells) * len(FIELDS_Q23)} cells, {elapsed:.2f}s")


def test_criterion_3_relations_and_insertion_maps(ctx_cache):
    """Exhaustive m <= 3, n <= 4: every relation instantiation expands to
    zero, and expansion after wedge insertion equals 1 - (adjacent swap)
    as matrices."""
    start = time.perf_counter()
    failures = 0
    for m in (1, 2, 3):
        sp = tensor.Space(m, QQ)
        letters = range(1, m + 1)
        for x, y, z in product(letters, repeat=3):
            if not bimodule.expand_wedge(bimodule.jacobi_cycle(sp, x, y, z)).is_zero():
                failures += 1
        for k in (0, 1):  # middle-word degrees: degree-4 and degree-5 cores
            for mid in tensor.all_words(m, k):
                for x, y, z, t in product(letters, repeat=4):
                    g = bimodule.commutator_transfer(sp, x, y, mid, z, t)
                    if not bimodule.expand_wedge(g).is_zero():
                        failures += 1
        for n in (2, 3, 4):
            for g in bimodule.relation_generators(sp, n):
                if not bimodule.expand_wedge(g).is_zero():
                    failures += 1
            for w in tensor.all_words(m, n):
                e = tensor.word_element(sp, w)
                for i in range(1, n):
                    lhs = bimodule.expand_wedge(bimodule.wedge_at(e, i))
                    rhs = e - tensor.perm_action(perms.adjacent_transposition(n, i), e)
                    if lhs != rhs:
                        failures += 1
    # telescoping over random transposition words, all basis words
    rng = random.Random(2024)
    for m in (2, 3):
        sp = tensor.Space(m, QQ)
        for n in (3, 4):
            for _ in range(10):
                word = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(1, 6)))
                composed = perms.compose_word(n, word)
                for w in tensor.all_words(m, n):
                    a = tensor.word_element(sp, w)
                    acc = bimodule.BimodElement(sp, n, {})
                    cur = a
                    for i in word:
                        acc = acc + bimodule.wedge_at(cur, i)
                        cur = tensor.perm_action(perms.adjacent_transposition(n, i), cur)
                    if bimodule.expand_wedge(acc) != a - tensor.perm_action(composed, a):
                        failures += 1
    elapsed = time.perf_counter() - start
    _report(3, "relation kernels and insertion maps", failures == 0,
            f"{failures} failures, {elapsed:.2f}s")


def test_criterion_4_cocycle(ctx_cache):
    """(a) factorization independence for every permutation, (b) the
    cocycle identity on 500 seeded random triples per configuration,
    (c) expansion recovers 1 - tau, exhaustively."""
    start = time.perf_counter()
    failures = 0
    # (a) + (c) exhaustive
    for m in (1, 2, 3):
        for n in (2, 3, 4):
            ctx = ctx_cache(m, n)
            sp = ctx.space
            for t in perms.all_perms(n):
                alt = perms.perm_word_alt(t)
                padded = perms.perm_word(t) + (1, 1)
                for w in tensor.all_words(m, n):
                    a = tensor.word_element(sp, w)
                    base = bimodule.cocycle(ctx, t, a)
                    if bimodule.cocycle(ctx, t, a, word=alt) != base:
                        failures += 1
                    if bimodule.cocycle(ctx, t, a, word=padded) != base:
                        failures += 1
                    expanded = bimodule.expand_wedge(bimodule.element_of(ctx, base))
                    if expanded != a - tensor.perm_action(t, a):
                        failures += 1
    # (b) seeded random triples
    for m, n in [(2, 3), (3, 3), (2, 4), (3, 4)]:
        ctx = ctx_cache(m, n)
        sp = ctx.space
        add = sp.field.add
        rng = random.Random(10_000 * m + n)
        for _ in range(500):
            s = tuple(rng.sample(range(1, n + 1), n))
            t = tuple(rng.sample(range(1, n + 1), n))
            w = tuple(rng.randint(1, m) for _ in range(n))
            a = tensor.word_element(sp, w)
            lhs = bimodule.cocycle(ctx, perms.compose(s, t), a)
            rhs = tuple(add(x, y) for x, y in zip(
                bimodule.cocycle(ctx, t, a),
                bimodule.cocycle(ctx, s, tensor.perm_action(t, a))))
            if lhs != rhs:
                failures += 1
    elapsed = time.perf_counter() - start
    _report(4, "cocycle well-definedness and identity", failures == 0,
            f"{failures} failures, {elapsed:.2f}s")


def test_criterion_5_orbit_basis_oracle():
    """The normal-form shortcut has exactly the ideal closure as kernel,
    and the basis count matches, for m <= 3, n <= 4, in under a minute."""
    start = time.perf_counter()
    ok = True
    for m in (1, 2, 3):
        for n in (2, 3, 4):
            for field in FIELDS_Q23:
                cert = evensym.verify_relation_span(tensor.Space(m, field), n)
                if not cert.passed:
                    ok = False
            if evensym.dim_evensym(m, n) != tensor.dim_sym(m, n) + \
                    (exterior.dim_wedge(m, n) if n >= 2 else 0):
                ok = False
    elapsed = time.perf_counter() - start
    _report(5, "orbit basis against ideal closure", ok and elapsed < 60.0,
            f"{elapsed:.2f}s")


def test_criterion_6_orbit_sequence_grid():
    """Exactness of wedge -> orbit algebra -> symmetric on the full
    {2..5} x {2..5} grid over Q, F2, F3, with the dimension identity."""
    start = time.perf_counter()
    ok = True
    for m in range(2, 6):
        for n in range(2, 6):
            for field in FIELDS_Q23:
                cert = evensym.verify_sequence(tensor.Space(m, field), n)
                if not cert.passed:
                    ok = False
                d = cert.dims
                if d["sprime_dim"] != d["s_dim"] + d["lambda_dim"]:
                    ok = False
    elapsed = time.perf_counter() - start
    _report(6, "orbit algebra sequence grid", ok and elapsed < 60.0,
            f"48 cells, {elapsed:.2f}s")


def test_criterion_7_degree2_agreement():
    """Degree-2 collapse onto the classical sequence for m <= 5 over all
    acceptance fields: zero relation rank, literal matrix equality, and
    the orbit algebra matching the tensor square."""
    ok = True
    for m in range(1, 6):
        for field in FIELDS_Q235:
            cert = degree2.verify_degree2_agreement(tensor.Space(m, field))
            if not cert.passed:
                ok = False
    _report(7, "degree-2 agreement", ok)


def test_criterion_8_algebra_laws():
    """Associativity, projection multiplicativity, the swap involution
    and its projection invariance: exhaustive at m <= 3, total degree
    <= 4, plus 1000 seeded random cases."""
    failures = 0
    for m in (1, 2, 3):
        sp = tensor.Space(m, QQ)
        basis_by_degree = {d: [evensym.EvenSymElement(sp, d, {k: 1})
                               for k in evensym.basis_words(m, d)]
                           for d in range(5)}
        for d in (2, 3, 4):
            for e in basis_by_degree[d]:
                if evensym.swap_first_two(evensym.swap_first_two(e)) != e:
                    failures += 1
                if evensym.to_sym(evensym.swap_first_two(e)) != evensym.to_sym(e):
                    failures += 1
        for d1, d2 in product(range(5), repeat=2):
            if d1 + d2 > 4:
                continue
            for a in basis_by_degree[d1]:
                for b in basis_by_degree[d2]:
                    if evensym.to_sym(evensym.evensym_product(a, b)) != \
                            tensor.sym_product(evensym.to_sym(a), evensym.to_sym(b)):
                        failures += 1
        for d1, d2, d3 in product(range(5), repeat=3):
            if d1 + d2 + d3 > 4:
                continue
            for a in basis_by_degree[d1]:
                for b in basis_by_degree[d2]:
                    for c in basis_by_degree[d3]:
                        left = evensym.evensym_product(evensym.evensym_product(a, b), c)
                        right = evensym.evensym_product(a, evensym.evensym_product(b, c))
                        if left != right:
                            failures += 1
    rng = random.Random(777)
    checked = 0
    for field in (QQ, GF(2), GF(5)):
        sp = tensor.Space(3, field)

        def rand_elem():
            d = rng.randint(0, 4)
            terms = {}
            for _ in range(rng.randint(1, 3)):
                w = tuple(rng.randint(1, 3) for _ in range(d))
                k = evensym.normal_form(w)
                c = field.coerce(rng.randint(-5, 5))
                terms[k] = field.add(terms.get(k, field.zero), c)
            return evensym.EvenSymElement(sp, d, terms)

        for _ in range(400):
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            if evensym.evensym_product(evensym.evensym_product(a, b), c) != \
                    evensym.evensym_product(a, evensym.evensym_product(b, c)):
                failures += 1
            if evensym.to_sym(evensym.evensym_product(a, b)) != \
                    tensor.sym_product(evensym.to_sym(a), evensym.to_sym(b)):
                failures += 1
            if a.degree >= 2:
                if evensym.swap_first_two(evensym.swap_first_two(a)) != a:
                    failures += 1
            checked += 1
    _report(8, "algebra laws", failures == 0,
            f"{failures} failures, {checked} randomized cases")


def test_criterion_9_deterministic_certificates():
    """Two full grid runs produce byte-identical JSON once timing fields
    are excluded."""
    grid = certify.CheckGrid((2, 3), (2, 3, 4), FIELDS_Q23)
    one = certificates_to_json(certify.run_grid(grid, "both"), include_timing=False)
    two = certificates_to_json(certify.run_grid(grid, "both"), include_timing=False)
    _report(9, "deterministic certificates", one == two and len(one) > 2,
            f"{len(one)} bytes")
