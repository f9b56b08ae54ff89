"""The query commands of the command line: `dims`, `nf` and `cocycle`.

`cli` parses every command line and runs `check` itself; it loads this
module only when one of these three commands runs, so a grid launch
never compiles them.  Each command loads the modules it runs when it
runs: `dims` reads its table from the certifiers' dimension formulas
and loads no element module, `nf` and `cocycle` answer from the quotient
of a certified cell.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (DEFAULT_SIZE_CAP, EXIT_CHECK_FAILED, ElementParseError, SizeCapError,
                     UsageError, check_cap, field_option, report_capped)


def _certified(space, n: int, size_cap: int | None):
    """The degree-n M->T->S certificate of `space`, or None, with its
    summary on stderr, when it fails: no command answers from an
    uncertified cell."""
    from . import mseq
    cert = mseq.verify_sequence(space, n, size_cap)
    if cert.passed:
        return cert
    print(cert.summary(), file=sys.stderr)
    return None


def dims(args: argparse.Namespace) -> int:
    """Dimension table for degrees 2..N_MAX."""
    if args.m < 0:
        raise UsageError("--m must be >= 0")
    if args.n_max < 2:
        raise UsageError("--n-max must be >= 2")
    field = field_option(args.field)
    cap = DEFAULT_SIZE_CAP if args.size_cap is None else args.size_cap
    from . import bases, mseq, sprimeseq
    space = bases.Space(args.m, field)
    rows = []
    # With m >= 2 the ambient dimension exceeds the cap by degree cap + 2;
    # with m <= 1 no dimension exceeds 1 in any degree, so only the count
    # of degrees bounds the table
    last = min(args.n_max, max(cap, 0) + 2)
    try:
        # refuse an over-cap table before certifying any degree
        for n in range(2, last + 1):
            check_cap(mseq.ambient_dim(args.m, n), cap)
        for n in range(2, last + 1):
            check_cap(bases.dim_tensor(args.m, n), cap, "tensor dimension")
        check_cap(args.n_max - 1, cap, "degrees")
        for n in range(2, args.n_max + 1):
            cert = _certified(space, n, args.size_cap)
            if cert is None:
                return EXIT_CHECK_FAILED
            rows.append({
                "n": n,
                "t": cert.dims["t_dim"],
                "s": cert.dims["s_dim"],
                "lambda": bases.dim_wedge(args.m, n),
                "ambient": cert.dims["ambient"],
                "m": cert.dims["m_dim"],
                "sprime": sprimeseq.dim_evensym(args.m, n),
            })
    except SizeCapError as e:
        return report_capped(e)
    if args.json:
        import json
        print(json.dumps(rows, sort_keys=True))
        return 0
    header = ("n", "T", "S", "Lambda", "ambient", "M", "S'")
    keys = ("n", "t", "s", "lambda", "ambient", "m", "sprime")
    widths = [max(len(h), *(len(str(r[k])) for r in rows)) for h, k in zip(header, keys)]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(str(r[k]).rjust(w) for k, w in zip(keys, widths)))
    return 0


def nf(args: argparse.Namespace) -> int:
    """Print the canonical normal form of an element."""
    field = field_option(args.field)
    from . import bases, parsing
    try:
        space = bases.Space(args.m, field)
        if args.target == "sprime":
            from . import evensym
            if (args.word is None) == (args.element is None):
                raise UsageError("give exactly one of --word or --element")
            if args.word is not None:
                w = bases.check_word(space, parsing.parse_word(args.word))
                k = evensym.normal_form(w)
                print(parsing.render_orbit_word(k.word, k.twisted))
                return 0
            elem = None
            for coeff, w in parsing.parse_word_combo(args.element):
                part = evensym.from_word(space, bases.check_word(space, w),
                                         field.parse(coeff))
                elem = part if elem is None else elem + part
            print(parsing.render_evensym(elem))
        else:
            from . import bimodule
            if args.element is None:
                raise UsageError("target 'm' needs --element")
            if args.word is not None:
                raise UsageError("target 'm' takes --element, not --word")
            elem = None
            for coeff, (left, pair, right) in parsing.parse_bimod_combo(args.element):
                degree = len(left) + 2 + len(right)
                part = bimodule.BimodElement(space, degree,
                                             {(left, pair, right): field.parse(coeff)})
                elem = part if elem is None else elem + part
            if _certified(space, elem.degree, args.size_cap) is None:
                return EXIT_CHECK_FAILED
            ctx = bimodule.build_context(space, elem.degree, args.size_cap)
            vec = bimodule.normal_form(ctx, elem)
            print(parsing.render_bimod(bimodule.element_of(ctx, vec)))
    except (ElementParseError, ValueError) as e:
        # SizeCapError is a ValueError too: an over-cap element is a usage error
        raise UsageError(str(e))
    return 0


def cocycle(args: argparse.Namespace) -> int:
    """Randomized checks of the cocycle identity on basis words."""
    m_dim, degree, samples = args.m, args.n, args.samples
    if m_dim < 1:
        raise UsageError("--m must be >= 1")
    if degree < 2:
        raise UsageError("--n must be >= 2")
    if samples < 0:
        raise UsageError("--samples must be >= 0")
    field = field_option(args.field)
    import random

    from . import bases, bimodule, perms, tensor
    space = bases.Space(m_dim, field)
    try:
        if _certified(space, degree, args.size_cap) is None:
            return EXIT_CHECK_FAILED
        ctx = bimodule.build_context(space, degree, args.size_cap)
    except SizeCapError as e:
        return report_capped(e)
    rng = random.Random(args.seed)
    add = field.add
    counts = {"cocycle_identity": 0, "expansion_recovers_difference": 0,
              "factorization_independence": 0}
    failures = []
    for _ in range(samples):
        sigma = tuple(rng.sample(range(1, degree + 1), degree))
        tau = tuple(rng.sample(range(1, degree + 1), degree))
        w = tuple(rng.randint(1, m_dim) for _ in range(degree))
        a = tensor.word_element(space, w)
        h_st = bimodule.cocycle(ctx, perms.compose(sigma, tau), a)
        h_t = bimodule.cocycle(ctx, tau, a)
        h_s_after = bimodule.cocycle(ctx, sigma, tensor.perm_action(tau, a))
        total = tuple(add(x, y) for x, y in zip(h_t, h_s_after))
        if h_st == total:
            counts["cocycle_identity"] += 1
        else:
            failures.append(f"cocycle identity: sigma={sigma} tau={tau} word={w}")
        expanded = bimodule.expand_wedge(bimodule.element_of(ctx, h_t))
        if expanded == a - tensor.perm_action(tau, a):
            counts["expansion_recovers_difference"] += 1
        else:
            failures.append(f"expansion: tau={tau} word={w}")
        alt = perms.perm_word_alt(tau)
        padded = perms.perm_word(tau) + (1, 1)
        if (bimodule.cocycle(ctx, tau, a, word=alt) == h_t
                and bimodule.cocycle(ctx, tau, a, word=padded) == h_t):
            counts["factorization_independence"] += 1
        else:
            failures.append(f"factorization: tau={tau} word={w}")
    for name, good in counts.items():
        print(f"{name}: {good}/{samples} pass")
    if failures:
        for line in failures:
            print(f"COUNTEREXAMPLE {line}")
        return EXIT_CHECK_FAILED
    return 0
