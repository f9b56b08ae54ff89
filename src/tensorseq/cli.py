"""Command-line surface: dimension tables, normal forms, certification.

Exit codes are a stable contract: 0 all checks pass, 1 a mathematical
check failed, 2 usage or syntax error, 3 a size-cap refusal.
"""

from __future__ import annotations

import json
import random
import sys

import click

from . import bimodule, certify, evensym, exterior, parsing, perms, tensor
from .certificates import certificates_to_json
from .errors import DEFAULT_SIZE_CAP, ElementParseError, SizeCapError
from .fields import Field, parse_field

EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SIZE_CAP = 3

_CAP_OPTION = click.option(
    "--size-cap", type=int, default=None, envvar="TENSORSEQ_SIZE_CAP",
    help="Override the ambient-dimension cap (env: TENSORSEQ_SIZE_CAP).")


def _field(name: str) -> Field:
    try:
        return parse_field(name)
    except ValueError as e:
        raise click.UsageError(str(e))


def _int_range(spec: str) -> list[int]:
    """Parse '3', '2,4', or '2..5' into a sorted list of ints."""
    out: set[int] = set()
    for piece in spec.split(","):
        piece = piece.strip()
        if ".." in piece:
            lo, _, hi = piece.partition("..")
            try:
                out.update(range(int(lo), int(hi) + 1))
            except ValueError:
                raise click.UsageError(f"bad range {piece!r}")
        else:
            try:
                out.add(int(piece))
            except ValueError:
                raise click.UsageError(f"bad integer {piece!r}")
    if not out:
        raise click.UsageError(f"empty selection {spec!r}")
    return sorted(out)


@click.group()
def main():
    """Exact graded tensor-algebra quotients and exactness certificates."""


@main.command()
@click.option("--m", "m_dim", type=int, required=True, help="Base dimension.")
@click.option("--n-max", type=int, required=True, help="Largest degree to tabulate.")
@click.option("--field", "field_name", default="q", show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Emit JSON rows.")
@_CAP_OPTION
def dims(m_dim, n_max, field_name, as_json, size_cap):
    """Dimension table for degrees 2..N_MAX."""
    if m_dim < 0:
        raise click.UsageError("--m must be >= 0")
    if n_max < 2:
        raise click.UsageError("--n-max must be >= 2")
    field = _field(field_name)
    space = tensor.Space(m_dim, field)
    rows = []
    try:
        for n in range(2, n_max + 1):
            ctx = bimodule.build_context(space, n, size_cap)
            rows.append({
                "n": n,
                "t": tensor.dim_tensor(m_dim, n),
                "s": tensor.dim_sym(m_dim, n),
                "lambda": exterior.dim_wedge(m_dim, n),
                "ambient": ctx.ambient_dim,
                "m": ctx.quotient_dim,
                "sprime": evensym.dim_evensym(m_dim, n),
            })
    except SizeCapError as e:
        click.echo(f"size cap exceeded: {e}", err=True)
        sys.exit(EXIT_SIZE_CAP)
    if as_json:
        click.echo(json.dumps(rows, sort_keys=True))
        return
    header = ("n", "T", "S", "Lambda", "ambient", "M", "S'")
    keys = ("n", "t", "s", "lambda", "ambient", "m", "sprime")
    widths = [max(len(h), *(len(str(r[k])) for r in rows)) for h, k in zip(header, keys)]
    click.echo("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for r in rows:
        click.echo("  ".join(str(r[k]).rjust(w) for k, w in zip(keys, widths)))


@main.command()
@click.argument("which", type=click.Choice(["m", "sprime", "both"]))
@click.option("--m", "m_spec", default="2..3", show_default=True,
              help="Base dimensions: '3', '2,4', or '2..5'.")
@click.option("--n", "n_spec", default="2..4", show_default=True,
              help="Degrees (all >= 2).")
@click.option("--field", "fields_spec", default="q", show_default=True,
              help="Comma-separated fields, e.g. 'q,f2,f3'.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False, writable=True),
              default=None, help="Write the JSON certificates here instead of stdout.")
@click.option("--pretty", is_flag=True, help="Indent the JSON output.")
@click.option("--no-timing", is_flag=True, help="Omit timing fields (reproducible bytes).")
@_CAP_OPTION
def check(which, m_spec, n_spec, fields_spec, out_path, pretty, no_timing, size_cap):
    """Certify exactness over a grid of (m, n, field) cells."""
    fields = tuple(_field(x) for x in fields_spec.split(","))
    cap = DEFAULT_SIZE_CAP if size_cap is None else size_cap
    try:
        grid = certify.CheckGrid(tuple(_int_range(m_spec)), tuple(_int_range(n_spec)),
                                 fields, cap)
    except ValueError as e:
        raise click.UsageError(str(e))
    certs = certify.run_grid(grid, which)
    doc = certificates_to_json(certs, include_timing=not no_timing, pretty=pretty)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(doc)
        for c in certs:
            click.echo(c.summary())
    else:
        click.echo(doc, nl=False)
        for c in certs:
            click.echo(c.summary(), err=True)
    if any(not c.passed and not c.capped for c in certs):
        sys.exit(EXIT_CHECK_FAILED)
    if any(c.capped for c in certs):
        sys.exit(EXIT_SIZE_CAP)


@main.command()
@click.argument("target", type=click.Choice(["sprime", "m"]))
@click.option("--word", "word_str", default=None,
              help="A single word, e.g. '2,1,3' (sprime only).")
@click.option("--element", "element_str", default=None,
              help="A linear combination, e.g. '2*1,2 + -1*2,1' or '[|1,2|3]'.")
@click.option("--m", "m_dim", type=int, required=True, help="Base dimension.")
@click.option("--field", "field_name", default="q", show_default=True)
@_CAP_OPTION
def nf(target, word_str, element_str, m_dim, field_name, size_cap):
    """Print the canonical normal form of an element."""
    field = _field(field_name)
    space = tensor.Space(m_dim, field)
    try:
        if target == "sprime":
            if (word_str is None) == (element_str is None):
                raise click.UsageError("give exactly one of --word or --element")
            if word_str is not None:
                w = tensor.check_word(space, parsing.parse_word(word_str))
                k = evensym.normal_form(w)
                click.echo(parsing.render_orbit_word(k.word, k.twisted))
                return
            elem = None
            for coeff, w in parsing.parse_word_combo(element_str):
                part = evensym.from_word(space, tensor.check_word(space, w),
                                         field.parse(coeff))
                elem = part if elem is None else elem + part
            click.echo(parsing.render_evensym(elem))
        else:
            if element_str is None:
                raise click.UsageError("target 'm' needs --element")
            if word_str is not None:
                raise click.UsageError("target 'm' takes --element, not --word")
            elem = None
            for coeff, (left, pair, right) in parsing.parse_bimod_combo(element_str):
                degree = len(left) + 2 + len(right)
                part = bimodule.bimod_element(space, degree,
                                              {(left, pair, right): field.parse(coeff)})
                elem = part if elem is None else elem + part
            ctx = bimodule.build_context(space, elem.degree, size_cap)
            vec = bimodule.normal_form(ctx, elem)
            click.echo(parsing.render_bimod(bimodule.element_of(ctx, vec)))
    except ElementParseError as e:
        raise click.UsageError(str(e))
    except ValueError as e:
        raise click.UsageError(str(e))
    except SizeCapError as e:
        click.echo(f"size cap exceeded: {e}", err=True)
        sys.exit(EXIT_SIZE_CAP)


@main.command()
@click.option("--m", "m_dim", type=int, required=True, help="Base dimension (>= 1).")
@click.option("--n", "degree", type=int, required=True, help="Degree (>= 2).")
@click.option("--samples", type=int, default=200, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--field", "field_name", default="q", show_default=True)
@_CAP_OPTION
def cocycle(m_dim, degree, samples, seed, field_name, size_cap):
    """Randomized checks of the cocycle identity on basis words."""
    if m_dim < 1:
        raise click.UsageError("--m must be >= 1")
    if degree < 2:
        raise click.UsageError("--n must be >= 2")
    field = _field(field_name)
    space = tensor.Space(m_dim, field)
    try:
        ctx = bimodule.build_context(space, degree, size_cap)
    except SizeCapError as e:
        click.echo(f"size cap exceeded: {e}", err=True)
        sys.exit(EXIT_SIZE_CAP)
    rng = random.Random(seed)
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
        click.echo(f"{name}: {good}/{samples} pass")
    if failures:
        for line in failures:
            click.echo(f"COUNTEREXAMPLE {line}")
        sys.exit(EXIT_CHECK_FAILED)


if __name__ == "__main__":
    main()
