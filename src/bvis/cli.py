"""Command-line front end: predicates, counts, density reports, sieves.

Exit codes are stable across subcommands: 0 success, 2 usage error
(malformed flags, dimension mismatch), 3 precondition violation (gcd
condition), 4 resource limit (box, prime sieve or Moebius sieve too large,
or a gcd that cannot be factored and certified within budget).
Warnings go to stderr; JSON/CSV payloads stay machine-readable.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import random
import re
import time
from dataclasses import dataclass
from fractions import Fraction

import click

from . import counting, visibility
from ._kernels import count_visible_box
from .arith import iroot, sieve_primes
from .counting import brute_prefix_counts, mobius_box_count
from .errors import PreconditionError, ResourceLimitError, UsageError
from .visibility import (
    as_exponent_vector,
    as_rational_exponent_vector,
    base_from_expanded,
    constrained_exponents,
    divisibility_witness,
    is_visible_int,
    oracle_visible_parametric,
    reduce_b,
    witness_prime_int,
    witness_prime_rat,
    witness_prime_signed,
)
from .zeta import zeta as zeta_eval
from .zeta import zeta_euler_product

_B_ENTRY = re.compile(r"-?\d+(?:/\d+)?$")


def parse_b_spec(text: str, case: str | None = None):
    """Parse a comma-separated exponent spec into (case, vector).

    Entries are `[-]digits[/digits]`.  All-integer, all-positive specs
    select the integer case; any fraction selects the rational case and
    any negative entry the signed case.  An explicit case overrides the
    inference (e.g. --case rat with an integer spec).
    """
    parts = [part.strip() for part in text.split(",")]
    if not parts or any(not part for part in parts):
        raise UsageError(f"empty exponent entry in {text!r}")
    fracs = []
    for part in parts:
        if not _B_ENTRY.match(part):
            raise UsageError(f"bad exponent entry {part!r}; expected [-]digits[/digits]")
        try:
            fracs.append(Fraction(part))
        except ZeroDivisionError:
            raise UsageError(f"zero denominator in exponent entry {part!r}")
    if case is None:
        if any(f < 0 for f in fracs):
            case = "signed"
        elif all(f.denominator == 1 for f in fracs):
            case = "int"
        else:
            case = "rat"
    if case == "int":
        if any(f.denominator != 1 or f < 1 for f in fracs):
            raise UsageError(
                "integer case needs positive integer exponents; use --case rat or signed"
            )
        return "int", as_exponent_vector(int(f) for f in fracs)
    if case == "rat" and any(f < 0 for f in fracs):
        raise UsageError("rational case needs positive exponents; use --case signed")
    return case, as_rational_exponent_vector(fracs)


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation: the exponent vector and the box options."""

    kind: str
    vector: object
    b_entries: tuple[str, ...]
    n: int | None = None
    box: tuple[int, ...] | None = None
    brute_force_limit: int | None = None

    @classmethod
    def from_options(
        cls,
        b_spec: str,
        case: str | None = None,
        n: int | None = None,
        box: str | None = None,
        limit: int | None = None,
    ) -> "RunConfig":
        kind, vector = parse_b_spec(b_spec, case)
        if n is not None and n < 1:
            raise UsageError(f"--N must be >= 1, got {n}")
        edges = _parse_ints(box, "--box", minimum=0) if box is not None else None
        if edges is not None and len(edges) != len(vector):
            raise UsageError(
                f"--box has {len(edges)} edges, exponent vector has {len(vector)}"
            )
        return cls(
            kind=kind,
            vector=vector,
            b_entries=tuple(str(f) for f in fracs_of(vector)),
            n=n,
            box=edges,
            brute_force_limit=limit,
        )


def fracs_of(vector) -> tuple[Fraction, ...]:
    if isinstance(vector, visibility.RationalExponentVector):
        return vector.fractions
    return tuple(Fraction(e) for e in vector.entries)


def _parse_ints(text: str, label: str, minimum: int = 1) -> tuple[int, ...]:
    try:
        values = tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{label} must be comma-separated integers, got {text!r}")
    if not values or any(v < minimum for v in values):
        raise UsageError(f"{label} entries must be >= {minimum}, got {text!r}")
    return values


def _emit(fmt: str, fields: dict) -> None:
    if fmt == "json":
        click.echo(json.dumps(fields))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(fields.keys())
        writer.writerow([_csv_cell(v) for v in fields.values()])
        click.echo(buf.getvalue().rstrip("\n"))
    else:
        for key, value in fields.items():
            click.echo(f"{key}: {_plain_cell(value)}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def _plain_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def _exits_with_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PreconditionError as exc:
            _fail(exc, 3)
        except ResourceLimitError as exc:
            _fail(exc, 4)
        except (UsageError, ValueError) as exc:
            _fail(exc, 2)

    return wrapper


def _fail(exc: Exception, code: int) -> None:
    click.echo(f"error: {exc}", err=True)
    raise SystemExit(code)


_FORMAT = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv", "plain"]), default="plain"
)
_CASE = click.option("--case", type=click.Choice(["int", "rat", "signed"]), default=None)


@click.group()
@click.version_option(package_name="bvis")
def main():
    """Lattice-point visibility: exact counts and densities against 1/zeta."""


@main.command()
@click.option("--b", "b_spec", required=True, help="exponent vector, e.g. 2,4,3,7 or 1/2,1/2")
@click.option("--point", "point_spec", required=True, help="lattice point, e.g. 4,16,40,128")
@click.option(
    "--expanded",
    is_flag=True,
    help="point is given in expanded lattice coordinates; convert to the base tuple",
)
@_CASE
@_FORMAT
@_exits_with_codes
def check(b_spec, point_spec, expanded, case, fmt):
    """Visibility verdict for one point, with a witness when invisible."""
    cfg = RunConfig.from_options(b_spec, case=case)
    point = _parse_ints(point_spec, "--point")
    if expanded:
        if cfg.kind == "int":
            raise UsageError("--expanded only applies to fractional exponents")
        point = base_from_expanded(point, cfg.vector)
    image = None
    if cfg.kind == "int":
        witness = witness_prime_int(point, cfg.vector)
        if witness is not None:
            image = _witness_image(point, cfg.vector, witness)
    elif cfg.kind == "rat":
        witness = witness_prime_rat(point, cfg.vector)
    else:
        witness = witness_prime_signed(point, cfg.vector)
    fields = {
        "b": list(cfg.b_entries),
        "case": cfg.kind,
        "point": list(point),
        "visible": witness is None,
        "witness_prime": witness,
        "image": list(image) if image is not None else None,
    }
    if fmt == "plain":
        if witness is None:
            click.echo("visible")
        elif image is not None:
            click.echo(f"invisible: witness prime {witness}, image {','.join(map(str, image))}")
        else:
            click.echo(f"invisible: witness prime {witness}")
    else:
        _emit(fmt, fields)


def _witness_image(point, b, prime):
    red = reduce_b(b)
    return tuple(c // prime**e for c, e in zip(point, red.entries))


def _box_edges(cfg: RunConfig) -> tuple[int, ...]:
    return cfg.box if cfg.box is not None else counting.box_edges(cfg.kind, cfg.n, cfg.vector)


@main.command()
@click.option("--b", "b_spec", required=True)
@click.option("--N", "n", type=int, default=None)
@click.option("--box", "box_spec", default=None, help="explicit box edges, e.g. 8,4")
@_CASE
@_FORMAT
@_exits_with_codes
def count(b_spec, n, box_spec, case, fmt):
    """Exact number of visible points in a box (Moebius inclusion-exclusion)."""
    if (n is None) == (box_spec is None):
        raise UsageError("need exactly one of --N or --box")
    cfg = RunConfig.from_options(b_spec, case=case, n=n, box=box_spec)
    edges = _box_edges(cfg)
    visible, _ = counting.count_box(cfg.kind, cfg.vector, edges)
    _emit(
        fmt,
        {
            "b": list(cfg.b_entries),
            "case": cfg.kind,
            "box": list(edges),
            "visible": str(visible),
            "total": str(math.prod(edges)),
        },
    )


@main.command()
@click.option("--b", "b_spec", required=True)
@click.option("--N", "n", type=int, required=True)
@_CASE
@_FORMAT
@_exits_with_codes
def density(b_spec, n, case, fmt):
    """Density report: exact count vs the theoretical 1/zeta density."""
    cfg = RunConfig.from_options(b_spec, case=case, n=n)
    if cfg.kind == "int" and cfg.vector.g > 1:
        red = reduce_b(cfg.vector)
        click.echo(
            f"note: exponents share gcd {cfg.vector.g}; visibility is equivalent to "
            f"the reduced vector ({','.join(map(str, red.entries))}), which sets the density",
            err=True,
        )
    report = counting.density_report(cfg.n, cfg.vector, cfg.kind)
    _emit(
        fmt,
        {
            "b": list(cfg.b_entries),
            "case": cfg.kind,
            "box": list(report.box.edges),
            "visible": str(report.visible_count),
            "total": str(report.total),
            "empirical": report.empirical,
            "exponent_sum": report.exponent_sum,
            "theoretical": report.theoretical,
            "abs_error": report.abs_error,
        },
    )


@main.command()
@click.option("--b", "b_spec", required=True)
@click.option("--N", "n", type=int, default=None)
@click.option("--box", "box_spec", default=None)
@click.option("--limit", type=int, default=None, help="brute-force box limit override")
@_CASE
@_FORMAT
@_exits_with_codes
def sieve(b_spec, n, box_spec, limit, case, fmt):
    """List every visible point of the box in lexicographic order."""
    if (n is None) == (box_spec is None):
        raise UsageError("need exactly one of --N or --box")
    cfg = RunConfig.from_options(b_spec, case=case, n=n, box=box_spec, limit=limit)
    edges = _box_edges(cfg)
    cap = counting.brute_force_limit(cfg.brute_force_limit)
    volume = math.prod(edges)
    if volume > cap:
        raise ResourceLimitError(f"sieve box of {volume} points exceeds limit {cap}", limit=cap)
    # The vector is validated once; per point only the gcd test remains.
    k, positions, exps = constrained_exponents(cfg.kind, cfg.vector)
    grid = itertools.product(*(range(1, e + 1) for e in edges))
    if not positions:
        points = list(grid)
    elif len(positions) == k:
        points = [pt for pt in grid if divisibility_witness(pt, exps) is None]
    else:
        points = [
            pt
            for pt in grid
            if divisibility_witness(tuple(pt[j] for j in positions), exps) is None
        ]
    if fmt == "json":
        click.echo(
            json.dumps(
                {
                    "b": list(cfg.b_entries),
                    "case": cfg.kind,
                    "box": list(edges),
                    "count": len(points),
                    "points": [list(pt) for pt in points],
                }
            )
        )
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([f"x{i + 1}" for i in range(len(edges))])
        writer.writerows(points)
        click.echo(buf.getvalue().rstrip("\n"))
    else:
        for pt in points:
            click.echo(",".join(map(str, pt)))


@main.command("zeta")
@click.option("--s", "s", type=int, required=True)
@click.option("--tol", type=float, default=1e-9)
@click.option(
    "--euler-limit",
    type=int,
    default=None,
    help="also report the Euler product over primes up to this bound",
)
@_FORMAT
@_exits_with_codes
def zeta_cmd(s, tol, euler_limit, fmt):
    """Certified zeta(s) by exact Euler-Maclaurin summation with an explicit tail bound."""
    value = zeta_eval(s, tol)
    fields = {
        "s": value.s,
        "value": value.value,
        "tail_bound": value.tail_bound,
        "terms": value.terms,
    }
    if euler_limit is not None:
        fields["euler_product"] = zeta_euler_product(s, euler_limit)
        fields["euler_prime_limit"] = euler_limit
    if fmt == "plain":
        click.echo(f"zeta({value.s}) = {value.value!r} (tail <= {value.tail_bound!r}, {value.terms} terms)")
        if euler_limit is not None:
            click.echo(f"euler product (p <= {euler_limit}): {fields['euler_product']!r}")
    else:
        _emit(fmt, fields)


def verify_checks(profile: str, seed: int):
    """The named self-checks behind `bvis verify`, per profile."""
    quick = profile == "quick"
    checks = []

    def worked_example():
        point, b = (4, 16, 40, 128), (2, 4, 3, 7)
        prime = witness_prime_int(point, b)
        image = _witness_image(point, b, prime) if prime is not None else None
        ok = (
            prime == 2
            and image == (1, 1, 5, 1)
            and is_visible_int(image, b)
            and not oracle_visible_parametric((2, 4), (2, 4))
        )
        return ok, f"witness p={prime}, image {image}"

    checks.append(("worked-example", worked_example))

    def oracle_equivalence():
        side = 20 if quick else 40
        vectors = [(1, 2), (2, 3)] if quick else [(1, 1), (1, 2), (2, 3), (2, 4), (3, 7)]
        tested = disagreements = 0
        for b in vectors:
            for pt in itertools.product(range(1, side + 1), repeat=2):
                tested += 1
                if oracle_visible_parametric(pt, b) != is_visible_int(pt, b):
                    disagreements += 1
        if not quick:
            rng = random.Random(seed)
            for b in [(1, 1, 1), (1, 2, 3), (2, 4, 6)]:
                for _ in range(500):
                    pt = tuple(rng.randint(1, 20) for _ in range(3))
                    tested += 1
                    if oracle_visible_parametric(pt, b) != is_visible_int(pt, b):
                        disagreements += 1
        return disagreements == 0, f"{tested} points, {disagreements} disagreements"

    checks.append(("oracle-equivalence", oracle_equivalence))

    def gcd_reduction():
        side = 20 if quick else 40
        vectors = [(2, 4), (2, 2)] if quick else [(2, 4), (3, 6), (2, 2)]
        tested = disagreements = 0
        for b in vectors:
            reduced = reduce_b(b)
            for pt in itertools.product(range(1, side + 1), repeat=2):
                tested += 1
                if oracle_visible_parametric(pt, b) != is_visible_int(pt, reduced):
                    disagreements += 1
        witness_case = not is_visible_int((2, 4), (2, 4))
        return (
            disagreements == 0 and witness_case,
            f"{tested} points, {disagreements} disagreements; (2,4) invisible for b=(2,4): {witness_case}",
        )

    checks.append(("gcd-reduction", gcd_reduction))

    def mobius_vs_bruteforce():
        n_max = 30 if quick else 60
        vectors = (
            [(1, 1), (1, 2), (1, 1, 1)]
            if quick
            else [(1, 1), (1, 2), (2, 3), (1, 1, 1), (1, 2, 3)]
        )
        mismatches = 0
        for b in vectors:
            brute = brute_prefix_counts(n_max, b)
            for n in range(1, n_max + 1):
                if counting.count_visible_int(n, b) != brute[n]:
                    mismatches += 1
        return mismatches == 0, f"N <= {n_max}, {len(vectors)} vectors, {mismatches} mismatches"

    checks.append(("mobius-vs-bruteforce", mobius_vs_bruteforce))

    def grid_marking_vs_mobius():
        # the kernel marks the invisibility grid directly; no Moebius
        # inversion involved, so agreement checks the closed form at a
        # scale point-by-point enumeration cannot reach
        edges = (500, 500) if quick else (2000, 2000)
        for exps in [(1, 1), (1, 2)]:
            bound = min(iroot(m, e) for m, e in zip(edges, exps))
            rows = [tuple(p**e for e in exps) for p in sieve_primes(bound)]
            marked = count_visible_box(edges, rows)
            closed = mobius_box_count(edges, exps)
            if marked != closed:
                return False, f"edges {edges}, exps {exps}: {marked} != {closed}"
        return True, f"edges {edges}, exps (1,1) and (1,2), grid == mobius"

    checks.append(("grid-marking-vs-mobius", grid_marking_vs_mobius))

    density_rows = [
        ("int", 1000, (1, 1), 0.002),
        ("int", 500, (2, 3), 0.005),
        ("rat", 10**6, ("1/2", "1/2"), 0.002),
        ("rat", 10**6, ("2/3", "3/2"), 0.005),
        ("signed", 4000, (1, -2), 0.005),
    ]
    if not quick:
        density_rows += [
            ("int", 1000, (1, 2), 0.005),
            ("int", 200, (1, 1, 1), 0.01),
            ("rat", 8_000_000, ("2/3", "3/2"), 0.01),
            ("signed", 10**4, (1, -2), 0.005),
            ("signed", 300, (3, -2, -3), 0.01),
        ]

    def density_check(case, n, b, tol):
        def run():
            report = counting.density_report(n, b, case)
            err = report.abs_error
            return err is not None and err <= tol, f"abs_error {err:.6f} vs tol {tol}"

        return run

    for case_name, n_val, b_val, tol_val in density_rows:
        checks.append(
            (
                f"density-{case_name}-({','.join(map(str, b_val))})-N{n_val}",
                density_check(case_name, n_val, b_val, tol_val),
            )
        )

    def zeta_certification():
        tol = 1e-6 if quick else 1e-9
        zv = zeta_eval(2, tol)
        enclosed = abs(zv.value - math.pi**2 / 6) <= zv.tail_bound <= tol
        return enclosed, f"|value - pi^2/6| = {abs(zv.value - math.pi**2 / 6):.2e}, tail {zv.tail_bound:.2e}"

    checks.append(("zeta-certification", zeta_certification))

    def euler_product():
        tol = 1e-6 if quick else 1e-9
        worst = 0.0
        for s in [2] if quick else [2, 3, 5]:
            gap = abs(zeta_euler_product(s, 10**5) - zeta_eval(s, tol).value)
            worst = max(worst, gap)
        return worst <= 1e-4, f"worst gap {worst:.2e} vs 1e-4"

    checks.append(("euler-product", euler_product))
    return checks


@main.command()
@click.option("--profile", type=click.Choice(["quick", "full"]), default="quick")
@click.option("--seed", type=int, default=0)
@_exits_with_codes
def verify(profile, seed):
    """Run the built-in theorem checks; nonzero exit if any fail."""
    checks = verify_checks(profile, seed)
    failures = 0
    click.echo(f"{'check':<36} {'status':<7} {'time':>8}  detail")
    for name, fn in checks:
        start = time.perf_counter()
        ok, detail = fn()
        elapsed = time.perf_counter() - start
        failures += 0 if ok else 1
        click.echo(f"{name:<36} {'PASS' if ok else 'FAIL':<7} {elapsed:>7.2f}s  {detail}")
    click.echo(f"{len(checks) - failures}/{len(checks)} checks passed ({profile} profile)")
    if failures:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
