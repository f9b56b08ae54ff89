"""Command-line surface: dimension tables, normal forms, certification.

    tensorseq dims --m 3 --n-max 4
    tensorseq check both --m 2..3 --n 2..4 --field q,f3 --no-timing
    tensorseq nf m --element "[|1,2|3] + -1*[3|1,2|]" --m 3
    tensorseq cocycle --m 2 --n 4 --samples 200 --seed 7

Stable contract:

* exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage
  or syntax error, 3 a size-cap refusal; the one exception, kept as it
  always was, is `nf m` with an element over the cap, a usage error
  (exit 2) because `SizeCapError` is a `ValueError`;
* the stdout and stderr bytes of every run that passes, fails a check or
  is capped, and the messages of the package's own usage errors, each
  printed on one `Error:` line;
* `--size-cap`, which defaults to the `TENSORSEQ_SIZE_CAP` environment
  variable; a value that is not an integer is a usage error.

The `--help` text and the usage banner printed above an error are not
part of the contract.

A launch is mostly interpreter start-up and imports, so this module
imports only the standard library and `errors`; each command imports the
modules it runs when it runs.  `check m` never loads `evensym`, and
`check sprime` never loads `bimodule`.  No command loads `inspect`: the
package's value classes build on `errors.Record`, not on the standard
library's class decorator, whose module imports it.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import chain

from .errors import DEFAULT_SIZE_CAP, ElementParseError, SizeCapError, check_cap

EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SIZE_CAP = 3


class UsageError(Exception):
    """A usage or syntax error found by a command: exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Exact option names only, tokens such as `-1*2,1` or `-1..2` read as
    option values, and usage errors reported on one `Error:` line."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)
        # argparse takes only a plain negative number as an option's value;
        # element and range syntax may also start with "-<digit>".
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"Error: {message}\n")


def _field(name: str):
    from .fields import parse_field
    try:
        return parse_field(name)
    except ValueError as e:
        raise UsageError(str(e))


def _int_ranges(spec: str) -> tuple[int, list[range]]:
    """Parse '3', '2,4', or '2..5' into the number of distinct values
    selected and their ranges, counted from the endpoints: no value is
    built, so a huge range costs nothing until it passes the grid cap."""
    ranges = []
    for piece in spec.split(","):
        piece = piece.strip()
        if ".." in piece:
            lo, _, hi = piece.partition("..")
            try:
                ranges.append(range(int(lo), int(hi) + 1))
            except ValueError:
                raise UsageError(f"bad range {piece!r}")
        else:
            try:
                ranges.append(range(int(piece), int(piece) + 1))
            except ValueError:
                raise UsageError(f"bad integer {piece!r}")
    count, top = 0, float("-inf")
    for r in sorted(ranges, key=lambda r: r.start):
        lo = max(r.start, top)  # the values of r not counted yet start here
        if lo < r.stop:
            count += r.stop - lo
            top = r.stop
    if not count:
        raise UsageError(f"empty selection {spec!r}")
    return count, ranges


def _values(ranges: list[range]) -> tuple[int, ...]:
    return tuple(sorted(set(chain.from_iterable(ranges))))


def _capped(e: SizeCapError) -> int:
    print(f"size cap exceeded: {e}", file=sys.stderr)
    return EXIT_SIZE_CAP


def _certified(space, n: int, size_cap: int | None):
    """The degree-n M->T->S certificate of `space`, or None, with its
    summary on stderr, when it fails: no command answers from an
    uncertified cell."""
    from . import bimodule
    cert = bimodule.verify_sequence(space, n, size_cap)
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
    field = _field(args.field)
    from . import bimodule, evensym, exterior, tensor
    space = tensor.Space(args.m, field)
    rows = []
    try:
        # refuse an over-cap table before certifying any degree
        for n in range(2, args.n_max + 1):
            check_cap(bimodule.ambient_dim(args.m, n), args.size_cap)
        for n in range(2, args.n_max + 1):
            check_cap(tensor.dim_tensor(args.m, n), args.size_cap, "tensor dimension")
        for n in range(2, args.n_max + 1):
            cert = _certified(space, n, args.size_cap)
            if cert is None:
                return EXIT_CHECK_FAILED
            rows.append({
                "n": n,
                "t": cert.dims["t_dim"],
                "s": cert.dims["s_dim"],
                "lambda": exterior.dim_wedge(args.m, n),
                "ambient": cert.dims["ambient"],
                "m": cert.dims["m_dim"],
                "sprime": evensym.dim_evensym(args.m, n),
            })
    except SizeCapError as e:
        return _capped(e)
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


def check(args: argparse.Namespace) -> int:
    """Certify exactness over a grid of (m, n, field) cells."""
    fields = tuple(_field(x) for x in args.field.split(","))
    cap = DEFAULT_SIZE_CAP if args.size_cap is None else args.size_cap
    (m_count, m_ranges), (n_count, n_ranges) = _int_ranges(args.m), _int_ranges(args.n)
    try:
        # refuse an oversized grid before any of its values is built
        check_cap(m_count * n_count * len(set(fields)), cap, "grid cells")
    except SizeCapError as e:
        return _capped(e)
    from . import certify
    try:
        grid = certify.CheckGrid(_values(m_ranges), _values(n_ranges), fields, cap)
    except ValueError as e:
        raise UsageError(str(e))
    fh = None
    if args.out:
        # open before any work: a bad path must not cost a whole grid
        try:
            fh = open(args.out, "w", encoding="utf-8", newline="\n")
        except OSError as e:
            raise UsageError(f"cannot write --out {args.out!r}: {e.strerror}")
    from .certificates import certificates_to_json
    try:
        certs = certify.run_grid(grid, args.which)
        doc = certificates_to_json(certs, include_timing=not args.no_timing,
                                   pretty=args.pretty)
        (sys.stdout if fh is None else fh).write(doc)
    finally:
        if fh is not None:
            fh.close()
    # the summaries go wherever the certificates do not
    for c in certs:
        print(c.summary(), file=sys.stderr if fh is None else sys.stdout)
    if any(not c.passed and not c.capped for c in certs):
        return EXIT_CHECK_FAILED
    if any(c.capped for c in certs):
        return EXIT_SIZE_CAP
    return 0


def nf(args: argparse.Namespace) -> int:
    """Print the canonical normal form of an element."""
    field = _field(args.field)
    from . import parsing, tensor
    try:
        space = tensor.Space(args.m, field)
        if args.target == "sprime":
            from . import evensym
            if (args.word is None) == (args.element is None):
                raise UsageError("give exactly one of --word or --element")
            if args.word is not None:
                w = tensor.check_word(space, parsing.parse_word(args.word))
                k = evensym.normal_form(w)
                print(parsing.render_orbit_word(k.word, k.twisted))
                return 0
            elem = None
            for coeff, w in parsing.parse_word_combo(args.element):
                part = evensym.from_word(space, tensor.check_word(space, w),
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
    field = _field(args.field)
    import random

    from . import bimodule, perms, tensor
    space = tensor.Space(m_dim, field)
    try:
        if _certified(space, degree, args.size_cap) is None:
            return EXIT_CHECK_FAILED
        ctx = bimodule.build_context(space, degree, args.size_cap)
    except SizeCapError as e:
        return _capped(e)
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


def _parser(prog: str) -> _Parser:
    parser = _Parser(
        prog=prog,
        description="Exact graded tensor-algebra quotients and exactness certificates.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    cap_env = os.environ.get("TENSORSEQ_SIZE_CAP") or None

    def command(func) -> _Parser:
        p = commands.add_parser(func.__name__, help=func.__doc__, description=func.__doc__)
        p.set_defaults(run=func, parser=p)
        # argparse converts a string default with `type`, so a bad variable
        # is a usage error too
        p.add_argument("--size-cap", type=int, default=cap_env,
                       help="Override the ambient-dimension cap (env: TENSORSEQ_SIZE_CAP).")
        return p

    field_help = "Field: 'q' or 'f<prime>'."

    p = command(dims)
    p.add_argument("--m", type=int, required=True, help="Base dimension.")
    p.add_argument("--n-max", type=int, required=True, help="Largest degree to tabulate.")
    p.add_argument("--field", default="q", help=field_help)
    p.add_argument("--json", action="store_true", help="Emit JSON rows.")

    p = command(check)
    p.add_argument("which", choices=("m", "sprime", "both"))
    p.add_argument("--m", default="2..3", help="Base dimensions: '3', '2,4', or '2..5'.")
    p.add_argument("--n", default="2..4", help="Degrees (all >= 2).")
    p.add_argument("--field", default="q", help="Comma-separated fields, e.g. 'q,f2,f3'.")
    p.add_argument("--out", help="Write the JSON certificates here instead of stdout.")
    p.add_argument("--pretty", action="store_true", help="Indent the JSON output.")
    p.add_argument("--no-timing", action="store_true",
                   help="Omit timing fields (reproducible bytes).")

    p = command(nf)
    p.add_argument("target", choices=("sprime", "m"))
    p.add_argument("--word", help="A single word, e.g. '2,1,3' (sprime only).")
    p.add_argument("--element",
                   help="A linear combination, e.g. '2*1,2 + -1*2,1' or '[|1,2|3]'.")
    p.add_argument("--m", type=int, required=True, help="Base dimension.")
    p.add_argument("--field", default="q", help=field_help)

    p = command(cocycle)
    p.add_argument("--m", type=int, required=True, help="Base dimension (>= 1).")
    p.add_argument("--n", type=int, required=True, help="Degree (>= 2).")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", default="q", help=field_help)
    return parser


def main(args=None, prog_name: str = "tensorseq", standalone_mode: bool = True):
    """Run one command on `args` (default `sys.argv[1:]`).

    By default the process exits with the command's exit code.  With
    `standalone_mode=False` a successful run returns None and any other
    outcome raises `SystemExit(code)`.
    """
    try:
        ns = _parser(prog_name).parse_args(args)
        try:
            code = ns.run(ns)
        except UsageError as e:
            ns.parser.error(str(e))
    except SystemExit as e:  # --help (0) and usage errors (2) from argparse
        code = e.code
    if code or standalone_mode:
        sys.exit(code)


# The click-era entry point `cli.main.main(args=..., prog_name=...,
# standalone_mode=...)`, still called by perfbench/tracer.py and
# perfbench/tests; delete once both call `main` directly.
main.main = main


if __name__ == "__main__":
    main()
