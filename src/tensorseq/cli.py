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

A launch is mostly interpreter start-up and imports, and a launch with
no bytecode cache compiles every module it imports, so this module
imports only the standard library and `errors`, and each command
imports the modules it runs when it runs.  This module parses every
command line and runs `check`; the query commands `dims`, `nf` and
`cocycle` live in `commands`, which only they load.  `check m` loads
`certify`, `certificates`, `bases`, `fields`, `linalg` and its
certifier `mseq`, and `check sprime` the same with `sprimeseq`: no grid
loads an element module (`tensor`, `perms`, `exterior`, `bimodule`,
`evensym`) or `parsing`.  No command loads `inspect`: the package's
value classes build on `errors.Record`, not on the standard library's
class decorator, whose module imports it.

Every launch, `python -m tensorseq.cli` and the `tensorseq` console
script alike, enters through `run`, which pauses the cyclic garbage
collector for the command and freezes the heap before the interpreter
exits.  A command leaves the same few hundred objects of cyclic garbage
however large its grid or sample count, so pausing the collector lets
no memory grow with the input; what it saves is the full collection the
interpreter would otherwise make at exit over every object the launch
created, about a tenth of a grid launch.  `main` leaves the collector
as it finds it, for callers that run commands in-process.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from itertools import chain

from .errors import (DEFAULT_SIZE_CAP, EXIT_CHECK_FAILED, EXIT_SIZE_CAP, EXIT_USAGE,
                     SizeCapError, UsageError, check_cap, field_option, report_capped)


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


def check(args: argparse.Namespace) -> int:
    """Certify exactness over a grid of (m, n, field) cells."""
    fields = tuple(field_option(x) for x in args.field.split(","))
    cap = DEFAULT_SIZE_CAP if args.size_cap is None else args.size_cap
    (m_count, m_ranges), (n_count, n_ranges) = _int_ranges(args.m), _int_ranges(args.n)
    try:
        # refuse an oversized grid before any of its values is built
        check_cap(m_count * n_count * len(set(fields)), cap, "grid cells")
    except SizeCapError as e:
        return report_capped(e)
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


def _parser(prog: str) -> _Parser:
    parser = _Parser(
        prog=prog,
        description="Exact graded tensor-algebra quotients and exactness certificates.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    cap_env = os.environ.get("TENSORSEQ_SIZE_CAP") or None

    def command(name: str, summary: str) -> _Parser:
        p = commands.add_parser(name, help=summary, description=summary)
        p.set_defaults(parser=p)
        # argparse converts a string default with `type`, so a bad variable
        # is a usage error too
        p.add_argument("--size-cap", type=int, default=cap_env,
                       help="Override the ambient-dimension cap (env: TENSORSEQ_SIZE_CAP).")
        return p

    field_help = "Field: 'q' or 'f<prime>'."

    p = command("dims", "Dimension table for degrees 2..N_MAX.")
    p.add_argument("--m", type=int, required=True, help="Base dimension.")
    p.add_argument("--n-max", type=int, required=True, help="Largest degree to tabulate.")
    p.add_argument("--field", default="q", help=field_help)
    p.add_argument("--json", action="store_true", help="Emit JSON rows.")

    p = command("check", check.__doc__)
    p.add_argument("which", choices=("m", "sprime", "both"))
    p.add_argument("--m", default="2..3", help="Base dimensions: '3', '2,4', or '2..5'.")
    p.add_argument("--n", default="2..4", help="Degrees (all >= 2).")
    p.add_argument("--field", default="q", help="Comma-separated fields, e.g. 'q,f2,f3'.")
    p.add_argument("--out", help="Write the JSON certificates here instead of stdout.")
    p.add_argument("--pretty", action="store_true", help="Indent the JSON output.")
    p.add_argument("--no-timing", action="store_true",
                   help="Omit timing fields (reproducible bytes).")

    p = command("nf", "Print the canonical normal form of an element.")
    p.add_argument("target", choices=("sprime", "m"))
    p.add_argument("--word", help="A single word, e.g. '2,1,3' (sprime only).")
    p.add_argument("--element",
                   help="A linear combination, e.g. '2*1,2 + -1*2,1' or '[|1,2|3]'.")
    p.add_argument("--m", type=int, required=True, help="Base dimension.")
    p.add_argument("--field", default="q", help=field_help)

    p = command("cocycle", "Randomized checks of the cocycle identity on basis words.")
    p.add_argument("--m", type=int, required=True, help="Base dimension (>= 1).")
    p.add_argument("--n", type=int, required=True, help="Degree (>= 2).")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", default="q", help=field_help)
    return parser


def _handler(command: str):
    """The function that runs `command`: `check` here, the query commands
    from `commands`, which only they load."""
    if command == "check":
        return check
    from . import commands
    return getattr(commands, command)


def main(args=None, prog_name: str = "tensorseq", standalone_mode: bool = True):
    """Run one command on `args` (default `sys.argv[1:]`).

    By default the process exits with the command's exit code.  With
    `standalone_mode=False` a successful run returns None and any other
    outcome raises `SystemExit(code)`.
    """
    try:
        ns = _parser(prog_name).parse_args(args)
        try:
            code = _handler(ns.command)(ns)
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


def run() -> None:
    """The process entry of a launch: `main` on `sys.argv[1:]` with the
    cyclic garbage collector paused, and the heap frozen before the
    interpreter finalizes, so that its collection at exit skips every
    object the launch created.  The collector is never switched back
    on: the process is ending."""
    gc.disable()
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
