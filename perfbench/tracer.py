"""Per-layer spans for the tensorseq benchmark, recorded from outside.

The package has no timers of its own, so this module wraps a fixed set
of public functions (one per layer boundary) and records a span around
each call: wall time, time not covered by child spans (self time), and
the growth of the process's peak RSS inside the span.  A few wrappers
also count the work they see (matrix shapes, nonzeros, ranks).

Modules bind functions by name (`from .linalg import echelon_rows`), and
`linalg.rref` calls `echelon_rows` through its own globals, so a wrapper
is installed at every module attribute that holds the original function.
A target that no longer exists raises instead of reporting zero.

Spans are aggregated as they close, per name; nothing is kept per call.
The tracer is single-threaded: it assumes spans nest, which holds for
the CLI's default of one worker.

Run as a script, this module is a traced `tensorseq` command line:

    python3 perfbench/tracer.py --out spans.json -- check m --m 2..3 --n 2..4

It runs the CLI in-process with every span installed and writes the
per-layer metrics, and the bookkeeping time hidden from the spans, to
`--out` when the command exits.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# span name -> (module of tensorseq, attribute).  echelon_rows is split by
# field at call time into linalg.echelon_rows.q / linalg.echelon_rows.fp.
TARGETS = {
    "certify.run_grid": ("certify", "run_grid"),
    "certificates.to_json": ("certificates", "certificates_to_json"),
    "bimodule.build_context": ("bimodule", "build_context"),
    "bimodule.relation_generators": ("bimodule", "relation_generators"),
    "bimodule.verify_sequence": ("bimodule", "verify_sequence"),
    "bimodule.normal_form": ("bimodule", "normal_form"),
    "bimodule.cocycle": ("bimodule", "cocycle"),
    "bimodule.wedge_at": ("bimodule", "wedge_at"),
    "evensym.verify_sequence": ("evensym", "verify_sequence"),
    "evensym.to_sym_matrix": ("evensym", "to_sym_matrix"),
    "evensym.wedge_embed_matrix": ("evensym", "wedge_embed_matrix"),
    "linalg.echelon_rows": ("linalg", "echelon_rows"),
    "linalg.kernel_basis": ("linalg", "kernel_basis"),
    "linalg.transpose": ("linalg", "transpose"),
    "linalg.residue_list": ("linalg", "residue_list"),
    "tensor.symmetrize_matrix": ("tensor", "symmetrize_matrix"),
    "tensor.perm_action": ("tensor", "perm_action"),
}

# Names under which spans are reported; every one gets calls/ms/self_ms/rss_growth_mb.
SPANS = tuple(n for n in TARGETS if n != "linalg.echelon_rows") + (
    "linalg.echelon_rows.q", "linalg.echelon_rows.fp")


def use_checkout_source() -> None:
    """Import tensorseq from this checkout's `src`, never from an install."""
    if not (SRC / "tensorseq" / "__init__.py").is_file():
        raise FileNotFoundError(f"no tensorseq sources under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    import tensorseq
    if Path(tensorseq.__file__).resolve().parent != SRC / "tensorseq":
        raise ImportError(f"tensorseq imported from {tensorseq.__file__}, not {SRC}")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def nnz(rows) -> int:
    """Nonzero entries of dense rows.  Rows share one zero object, so
    counting by that object stays a C-level identity scan for Fractions."""
    total = 0
    for r in rows:
        zero = next((x for x in r if not x), None)
        total += len(r) if zero is None else len(r) - r.count(zero)
    return total


class Tracer:
    """Aggregates nested spans as they close.

    stats[name] = [calls, total seconds, self seconds, peak-RSS growth KB];
    counters hold work counts added by the wrappers.
    """

    def __init__(self, clock=time.perf_counter, maxrss=_maxrss_kb):
        self.clock = clock
        self.maxrss = maxrss
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.hidden_s = 0.0  # bookkeeping time kept out of every span
        self._stack: list[list] = []  # [name, start, child seconds, rss at start]

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0, self.maxrss()])

    def exit(self) -> None:
        name, start, child, rss0 = self._stack.pop()
        dur = self.clock() - start
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        st[3] += self.maxrss() - rss0
        if self._stack:
            self._stack[-1][2] += dur

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    @contextmanager
    def untimed(self):
        """Bookkeeping inside this block is hidden from every open span."""
        t0 = self.clock()
        try:
            yield
        finally:
            shift = self.clock() - t0
            self.hidden_s += shift
            for frame in self._stack:
                frame[1] += shift

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric this module defines, zero where unused."""
        out = {}
        for name in SPANS:
            calls, total, self_s, rss_kb = self.stats.get(name, (0, 0.0, 0.0, 0))
            out[f"{name}.calls"] = calls
            out[f"{name}.ms"] = total * 1000.0
            out[f"{name}.self_ms"] = self_s * 1000.0
            out[f"{name}.rss_growth_mb"] = rss_kb / 1024.0
        c = self.counters
        out["certify.cell_max_ms"] = c["certify.cell_max_ms"]
        out["bimodule.relation_generators.rows"] = c["bimodule.relation_generators.rows"]
        out["bimodule.relation_dedup_ratio"] = _ratio(
            c["bimodule.build_context.unique_rows"], c["bimodule.relation_generators.rows"])
        out["bimodule.rel_rank"] = c["bimodule.rel_rank"]
        out["bimodule.rel_rows_nnz"] = c["bimodule.rel_rows_nnz"]
        out["linalg.echelon_rows.in_entries"] = c["linalg.echelon_rows.in_entries"]
        out["linalg.echelon_rows.in_nnz"] = c["linalg.echelon_rows.in_nnz"]
        out["linalg.echelon_rows.useful_ratio"] = _ratio(
            c["linalg.echelon_rows.rank"], c["linalg.echelon_rows.in_rows"])
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _span(tracer: Tracer, name: str, fn, before=None, after=None):
    """Wrap fn in a span; `before(args)` and `after(args, result)` count
    work outside the timed interval."""
    def wrapper(*args, **kwargs):
        span = name
        if before is not None:
            with tracer.untimed():
                span = before(args) or name
        tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            with tracer.untimed():
                after(args, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _hooks(tracer: Tracer) -> dict:
    c = tracer.counters

    def echelon_before(args):
        field, rows = args[0], args[1]
        if tracer.parent() == "bimodule.build_context":
            c["bimodule.build_context.unique_rows"] += len(rows)
        c["linalg.echelon_rows.in_rows"] += len(rows)
        c["linalg.echelon_rows.in_entries"] += len(rows) * (len(rows[0]) if rows else 0)
        c["linalg.echelon_rows.in_nnz"] += nnz(rows)
        return "linalg.echelon_rows.q" if field.char == 0 else "linalg.echelon_rows.fp"

    def echelon_after(args, result):
        c["linalg.echelon_rows.rank"] += len(result[1])

    def generators_after(args, result):
        c["bimodule.relation_generators.rows"] += len(result)

    def context_after(args, ctx):
        c["bimodule.rel_rank"] += ctx.rel_rank
        c["bimodule.rel_rows_nnz"] += nnz(ctx.rel_rows)

    def grid_after(args, certs):
        worst = max((x.elapsed_ms or 0.0 for x in certs), default=0.0)
        c["certify.cell_max_ms"] = max(c["certify.cell_max_ms"], worst)

    return {
        "linalg.echelon_rows": (echelon_before, echelon_after),
        "bimodule.relation_generators": (None, generators_after),
        "bimodule.build_context": (None, context_after),
        "certify.run_grid": (None, grid_after),
    }


def _package_modules() -> list:
    import tensorseq
    mods = [tensorseq]
    for info in pkgutil.iter_modules(tensorseq.__path__):
        mods.append(importlib.import_module(f"tensorseq.{info.name}"))
    return mods


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target at every binding site; restore them on exit."""
    modules = _package_modules()
    hooks = _hooks(tracer)
    patched = []
    try:
        for name, (mod_name, attr) in TARGETS.items():
            home = sys.modules[f"tensorseq.{mod_name}"]
            original = getattr(home, attr, None)
            if not callable(original):
                raise RuntimeError(f"trace target tensorseq.{mod_name}.{attr} is missing")
            before, after = hooks.get(name, (None, None))
            wrapper = _span(tracer, name, original, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, original))
        yield tracer
    finally:
        for mod, key, original in reversed(patched):
            setattr(mod, key, original)


def _main(argv: list[str]) -> None:
    if len(argv) < 3 or argv[0] != "--out" or argv[2] != "--":
        sys.exit("usage: tracer.py --out FILE -- <tensorseq arguments>")
    out_path = Path(argv[1])
    use_checkout_source()
    from tensorseq import cli

    tracer = Tracer()
    with installed(tracer):
        try:
            cli.main.main(args=argv[3:], prog_name="tensorseq")
        finally:
            out_path.write_text(json.dumps(
                {"metrics": tracer.metrics(), "hidden_s": tracer.hidden_s}, sort_keys=True))


if __name__ == "__main__":
    _main(sys.argv[1:])
