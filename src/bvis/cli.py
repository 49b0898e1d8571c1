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
from fractions import Fraction

import click

from . import __version__, counting
from .counting import brute_prefix_counts, count_visible_bruteforce, mobius_box_count
from .errors import PreconditionError, ResourceLimitError, UsageError
from .visibility import (
    as_rational_exponent_vector,
    base_from_expanded,
    constrained_exponents,
    is_visible_int,
    oracle_visible_parametric,
    reduce_b,
    witness_prime,
)
from .zeta import zeta as zeta_eval
from .zeta import zeta_euler_product

_B_ENTRY = re.compile(r"-?\d+(?:/\d+)?$")
# Points per piece of `bvis sieve` output.
SIEVE_CHUNK = 1 << 16


def parse_b_spec(text: str, case: str | None = None):
    """Parse a comma-separated exponent spec into (case, tuple of Fractions).

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
    elif case == "rat" and any(f < 0 for f in fracs):
        raise UsageError("rational case needs positive exponents; use --case signed")
    return case, as_rational_exponent_vector(fracs)


def _require_n(n: int) -> int:
    if n < 1:
        raise UsageError(f"--N must be >= 1, got {n}")
    return n


def _parse_box(b_spec: str, case: str | None, n: int | None, box_spec: str | None):
    """(kind, vector, box edges) from --b/--case and exactly one of --N or --box.

    Errors come in a fixed order: the choice of --N or --box, the exponent
    spec, then the box.
    """
    if (n is None) == (box_spec is None):
        raise UsageError("need exactly one of --N or --box")
    kind, vector = parse_b_spec(b_spec, case)
    if box_spec is None:
        return kind, vector, counting.box_edges(_require_n(n), vector)
    edges = _parse_ints(box_spec, "--box", minimum=0)
    if len(edges) != len(vector):
        raise UsageError(f"--box has {len(edges)} edges, exponent vector has {len(vector)}")
    return kind, vector, edges


def _family(kind: str, vector) -> dict:
    """The "b" and "case" fields that open every payload."""
    return {"b": [str(e) for e in vector], "case": kind}


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
        rows = [fields.keys(), [_cell(v, none="") for v in fields.values()]]
        click.echo(_csv_text(rows).rstrip("\n"))
    else:
        for key, value in fields.items():
            click.echo(f"{key}: {_cell(value, none='-')}")


def _csv_text(rows) -> str:
    """Rows as CSV text, each ending in csv's own line terminator."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _cell(value, none: str) -> str:
    """One field as text; ``none`` stands in for a missing value."""
    if value is None:
        return none
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
@click.version_option(__version__, prog_name="bvis")
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
    kind, vector = parse_b_spec(b_spec, case)
    point = _parse_ints(point_spec, "--point")
    if expanded:
        if kind == "int":
            raise UsageError("--expanded only applies to fractional exponents")
        point = base_from_expanded(point, vector)
    witness = witness_prime(point, kind, vector)
    image = None
    if kind == "int" and witness is not None:
        image = _witness_image(point, vector, witness)
    fields = {
        **_family(kind, vector),
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
    return tuple(c // prime**e for c, e in zip(point, reduce_b(b)))


@main.command()
@click.option("--b", "b_spec", required=True)
@click.option("--N", "n", type=int, default=None)
@click.option("--box", "box_spec", default=None, help="explicit box edges, e.g. 8,4")
@_CASE
@_FORMAT
@_exits_with_codes
def count(b_spec, n, box_spec, case, fmt):
    """Exact number of visible points in a box (Moebius inclusion-exclusion)."""
    kind, vector, edges = _parse_box(b_spec, case, n, box_spec)
    visible = counting.count_box(edges, constrained_exponents(kind, vector))
    _emit(
        fmt,
        {
            **_family(kind, vector),
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
    kind, vector = parse_b_spec(b_spec, case)
    _require_n(n)
    if kind == "int" and (g := math.gcd(*(f.numerator for f in vector))) > 1:
        click.echo(
            f"note: exponents share gcd {g}; visibility is equivalent to "
            f"the reduced vector ({','.join(map(str, reduce_b(vector)))}), which sets the density",
            err=True,
        )
    report = counting.density_report(n, vector, kind)
    _emit(
        fmt,
        {
            **_family(kind, vector),
            "box": list(report.box),
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
    kind, vector, edges = _parse_box(b_spec, case, n, box_spec)
    cap = counting.brute_force_limit(limit)
    volume = math.prod(edges)
    if volume > cap:
        raise ResourceLimitError(f"sieve box of {volume} points exceeds limit {cap}")
    marks = counting.mark_box(edges, constrained_exponents(kind, vector))
    points = itertools.compress(itertools.product(*(range(1, e + 1) for e in edges)), marks)
    # every format writes SIEVE_CHUNK points at a time; no payload is held whole
    chunks = iter(lambda: list(itertools.islice(points, SIEVE_CHUNK)), [])
    if fmt == "json":
        head = {**_family(kind, vector), "box": list(edges), "count": marks.count(1), "points": []}
        click.echo(json.dumps(head)[:-2], nl=False)  # up to the points' opening bracket
        for i, chunk in enumerate(chunks):
            click.echo((", " if i else "") + json.dumps(chunk)[1:-1], nl=False)
        click.echo("]}")
    elif fmt == "csv":
        click.echo(_csv_text([[f"x{i + 1}" for i in range(len(edges))]]), nl=False)
        for chunk in chunks:
            click.echo(_csv_text(chunk), nl=False)
    else:
        line = ",".join(["%d"] * len(edges))
        for chunk in chunks:
            click.echo("\n".join(line % pt for pt in chunk))


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
    """The named theorem checks behind `bvis verify`, per profile.

    This is the one table of theorem checks: tests/test_acceptance.py runs
    the full profile's rows as the release gate.  Each density row states
    the exponent sum s that the paper assigns to its vector: the entries
    for integer b, the numerators for rational b, and |bj| over the
    negative entries for signed b.
    """
    quick = profile == "quick"
    side = 20 if quick else 40
    grid = list(itertools.product(range(1, side + 1), repeat=2))
    zeta_tol = 1e-6 if quick else 1e-9
    checks = []

    def row(fn):
        """Enter ``fn`` in the table under its name, with dashes."""
        checks.append((fn.__name__.replace("_", "-"), fn))
        return fn

    def splits(b, characterized, points):
        """How many points the oracle for b and the characterization disagree on."""
        return sum(
            oracle_visible_parametric(pt, b) != is_visible_int(pt, characterized)
            for pt in points
        )

    @row
    def worked_example():
        point, b = (4, 16, 40, 128), (2, 4, 3, 7)
        prime = witness_prime(point, "int", b)
        image = _witness_image(point, b, prime) if prime is not None else None
        ok = prime == 2 and image == (1, 1, 5, 1) and is_visible_int(image, b)
        return ok, f"witness p={prime}, image {image}"

    @row
    def oracle_equivalence():
        vectors = [(1, 2), (2, 3)] if quick else [(1, 1), (1, 2), (2, 3), (2, 4), (3, 7)]
        tested = len(grid) * len(vectors)
        disagreements = sum(splits(b, b, grid) for b in vectors)
        if not quick:
            # one seeded draw of 3-D points, shared by the three vectors
            rng = random.Random(seed)
            points = [tuple(rng.randint(1, 20) for _ in range(3)) for _ in range(500)]
            for b in [(1, 1, 1), (1, 2, 3), (2, 4, 6)]:
                tested += len(points)
                disagreements += splits(b, b, points)
        return disagreements == 0, f"{tested} points, {disagreements} disagreements"

    @row
    def gcd_reduction():
        vectors = [(2, 4), (2, 2)] if quick else [(2, 4), (3, 6), (2, 2)]
        disagreements = sum(splits(b, reduce_b(b), grid) for b in vectors)
        # the witness case: t = 1/sqrt(2) maps (2,4) to (1,1) under b=(2,4)
        witness_case = witness_prime((2, 4), "int", (2, 4)) == 2 and not oracle_visible_parametric(
            (2, 4), (2, 4)
        )
        return (
            disagreements == 0 and witness_case,
            f"{len(grid) * len(vectors)} points, {disagreements} disagreements; "
            f"(2,4) invisible for b=(2,4): {witness_case}",
        )

    @row
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
            if not quick:
                # whole boxes enumerated one by one, apart from the prefix sweep
                witness = constrained_exponents("int", b).witness
                for n in (1, 7, 60):
                    visible = count_visible_bruteforce((n,) * len(b), lambda pt: witness(pt) is None)
                    if visible != brute[n]:
                        mismatches += 1
        return mismatches == 0, f"N <= {n_max}, {len(vectors)} vectors, {mismatches} mismatches"

    @row
    def grid_marking_vs_mobius():
        # the marker strikes the invisible points out of the grid; no
        # Moebius inversion involved, so agreement checks the closed form
        # at a scale point-by-point enumeration cannot reach
        edges = (500, 500) if quick else (2000, 2000)
        for exps in [(1, 1), (1, 2)]:
            marked = counting.count_visible_box(edges, constrained_exponents("int", exps))
            closed = mobius_box_count(edges, exps)
            if marked != closed:
                return False, f"edges {edges}, exps {exps}: {marked} != {closed}"
        return True, f"edges {edges}, exps (1,1) and (1,2), grid == mobius"

    # (family, N, b, exponent sum s of the limit 1/zeta(s), tolerance[, least box edge])
    density_rows = [
        ("int", 1000, (1, 1), 2, 0.002),
        ("int", 500, (2, 3), 5, 0.005),
        ("rat", 10**6, ("1/2", "1/2"), 2, 0.002),
        ("rat", 10**6, ("2/3", "3/2"), 5, 0.005),
        ("signed", 4000, (1, -2), 2, 0.005),
    ]
    if not quick:
        density_rows += [
            ("int", 1000, (1, 2), 3, 0.005),
            ("int", 200, (1, 1, 1), 3, 0.01),
            ("rat", 8_000_000, ("2/3", "3/2"), 5, 0.01),
            # numerators sum to 3, denominators to 5: on a box this large
            # the density lands near 1/zeta(3) ~ 0.832, far from 1/zeta(5) ~ 0.964
            ("rat", 8_000_000, ("2/3", "1/2"), 3, 0.01, 200),
            ("signed", 10**4, (1, -2), 2, 0.005),
            ("signed", 300, (3, -2, -3), 5, 0.01),
        ]

    def density_check(case, n, b, s, tol, min_edge=1):
        def run():
            report = counting.density_report(n, b, case)
            if report.exponent_sum != s:
                return False, f"exponent sum {report.exponent_sum}, expected {s}"
            if min(report.box) < min_edge:
                return False, f"box {report.box} has an edge below {min_edge}"
            return report.abs_error <= tol, f"abs_error {report.abs_error:.6f} vs tol {tol}"

        return run

    for spec in density_rows:
        case_name, n_val, b_val = spec[:3]
        name = f"density-{case_name}-({','.join(map(str, b_val))})-N{n_val}"
        checks.append((name, density_check(*spec)))

    @row
    def zeta_certification():
        zv = zeta_eval(2, zeta_tol)
        enclosed = abs(zv.value - math.pi**2 / 6) <= zv.tail_bound <= zeta_tol
        return enclosed, f"|value - pi^2/6| = {abs(zv.value - math.pi**2 / 6):.2e}, tail {zv.tail_bound:.2e}"

    @row
    def euler_product():
        worst = 0.0
        for s in [2] if quick else [2, 3, 5]:
            gap = abs(zeta_euler_product(s, 10**5) - zeta_eval(s, zeta_tol).value)
            worst = max(worst, gap)
        return worst <= 1e-4, f"worst gap {worst:.2e} vs 1e-4"

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
