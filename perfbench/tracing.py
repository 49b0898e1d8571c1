"""Per-layer tracing of one `bvis` invocation, from outside the library.

Run as a script, this is the traced job's entry point:

    python perfbench/tracing.py SPANS_FILE JOB_ID BVIS_ARGS...

It imports `bvis.cli`, replaces each layer function below at every module
binding that holds it (``counting.mobius_table``, ``cli.mobius_box_count``,
``cli.zeta_eval`` and so on), runs ``bvis.cli.main`` on BVIS_ARGS, and at
exit writes the spans it kept in memory to SPANS_FILE.  A span is
(name, start, end, parent, job id, work, raised); work is a count taken
from the call's own arguments or return value, so it repeats exactly.
Within one layer only the outermost call is recorded (``is_visible_int``
calling ``witness_prime_int`` is one predicate call).

Imported, it gives the benchmark ``aggregate``, which turns span files into
the per-layer metrics.  No library file is changed by any of this.
"""

from __future__ import annotations

import importlib
import math
import sys
from time import perf_counter

from workloads import iroot

PREDICATES = (
    "is_visible_int",
    "is_visible_rat",
    "is_visible_signed",
    "witness_prime_int",
    "witness_prime_rat",
    "witness_prime_signed",
)


def _depth(args, _result):
    edges, exps = args[0], args[1]
    if any(int(m) <= 0 for m in edges):
        return 0
    return min(iroot(int(m), int(e)) for m, e in zip(edges, exps))


# (layer name, module, functions, work counter, work(args, result), work is
# known from the arguments alone -- then it is recorded even when the call raises)
LAYERS = (
    ("counting.mobius_box_count", "bvis.counting", ("mobius_box_count",), "terms", _depth, True),
    ("counting.density_report", "bvis.counting", ("density_report",), None, None, False),
    ("arith.mobius_table", "bvis.arith", ("mobius_table",), "entries", lambda a, r: len(r), False),
    ("arith.sieve_primes", "bvis.arith", ("sieve_primes",), "entries", lambda a, r: len(r), False),
    ("arith.factorize", "bvis.arith", ("factorize",), "max_bits", lambda a, r: int(a[0]).bit_length(), True),
    ("arith.iroot", "bvis.arith", ("iroot",), None, None, False),
    ("zeta.zeta", "bvis.zeta", ("zeta",), "terms", lambda a, r: r.terms, False),
    ("zeta.zeta_euler_product", "bvis.zeta", ("zeta_euler_product",), None, None, False),
    ("kernels.zeta_partial_sum", "bvis._kernels", ("zeta_partial_sum",), "terms", lambda a, r: int(a[1]), True),
    ("kernels.count_visible_box", "bvis._kernels", ("count_visible_box",), "cells", lambda a, r: math.prod(int(e) for e in a[0]), True),
    ("visibility.predicate", "bvis.visibility", PREDICATES, None, None, False),
    ("visibility.oracle", "bvis.visibility", ("find_parametric_witness",), None, None, False),
)
NAMES = ("cli.import", "cli.main") + tuple(layer[0] for layer in LAYERS)


def _per_layer() -> list[tuple[str, str, str]]:
    """(metric, unit, better) in the order the benchmark reports them."""
    out = [("cli.import_s", "s", "lower"), ("cli.self_s", "s", "lower"), ("cli.output_bytes", "bytes", "lower")]
    for name, _module, _funcs, work, _fn, _from_args in LAYERS:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower")]
        if work == "max_bits":
            out += [(f"{name}.errors", "count", "lower"), (f"{name}.max_bits", "bits", "lower")]
        elif work:
            out.append((f"{name}.{work}", "count", "lower"))
    return out + [("visibility.self_s", "s", "lower"), ("trace.overhead_frac", "ratio", "lower")]


PER_LAYER = _per_layer()


# ---------------------------------------------------------------- child side


def _install(spans: list, job: int) -> None:
    stack = [1]  # spans[1] is the cli.main span
    active: set[int] = set()

    def wrap(fn, idx, from_args, work):
        def traced(*args, **kwargs):
            if idx in active:
                return fn(*args, **kwargs)
            row = [idx, 0.0, 0.0, stack[-1], job, work(args, None) if from_args else 0, 0]
            stack.append(len(spans))
            spans.append(row)
            active.add(idx)
            row[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                row[6] = 1
                raise
            finally:
                row[2] = perf_counter()
                stack.pop()
                active.discard(idx)
            if work and not from_args:
                row[5] = work(args, result)
            return result

        return traced

    replace = {}
    for idx, (_name, module, funcs, _counter, work, from_args) in enumerate(LAYERS, start=2):
        # import_module, not attribute access: the package's `zeta` is the function
        mod = importlib.import_module(module)
        for func in funcs:
            fn = getattr(mod, func)
            replace[id(fn)] = (fn, wrap(fn, idx, from_args, work))
    for modname, mod in list(sys.modules.items()):
        if modname == "bvis" or modname.startswith("bvis."):
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit and hit[0] is value:
                    setattr(mod, attr, hit[1])


def main(argv: list[str]) -> None:
    spans_file, job, bvis_args = argv[0], int(argv[1]), argv[2:]
    start = perf_counter()
    import bvis.cli

    spans = [[0, start, perf_counter(), -1, job, 0, 0], [1, 0.0, 0.0, -1, job, 0, 0]]
    _install(spans, job)
    code = 0
    spans[1][1] = perf_counter()
    try:
        bvis.cli.main(args=bvis_args, prog_name="bvis")
    except SystemExit as exc:
        code = exc.code
    finally:
        spans[1][2] = perf_counter()
        import json

        with open(spans_file, "w") as fh:
            json.dump({"names": NAMES, "spans": spans}, fh)
    sys.exit(code)


# ---------------------------------------------------------------- parent side


def aggregate(docs) -> dict:
    """Per-layer metrics of one traced pass, from its jobs' span files.

    ``.s`` is busy time summed over the pass; ``*.self_s`` subtracts the
    time covered by direct child spans.
    """
    out = {name: 0 for name, _unit, _better in PER_LAYER}
    for doc in docs:
        names, spans = doc["names"], doc["spans"]
        covered = [0.0] * len(spans)
        for _n, t0, t1, parent, _j, _w, _e in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        for i, (n, t0, t1, _p, _j, work, raised) in enumerate(spans):
            name, dur = names[n], t1 - t0
            if name == "cli.import":
                out["cli.import_s"] += dur
                continue
            if name == "cli.main":
                out["cli.self_s"] += dur - covered[i]
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += dur
            if name.startswith("visibility."):
                out["visibility.self_s"] += dur - covered[i]
            if name == "arith.factorize":
                out["arith.factorize.errors"] += raised
                out["arith.factorize.max_bits"] = max(out["arith.factorize.max_bits"], work)
            else:
                for metric in (f"{name}.terms", f"{name}.entries", f"{name}.cells"):
                    if metric in out:
                        out[metric] += work
    return out


if __name__ == "__main__":
    main(sys.argv[1:])
