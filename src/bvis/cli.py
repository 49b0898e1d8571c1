"""Command-line front end: predicates, counts, density reports, sieves.

Exit codes are stable across subcommands: 0 success, 2 usage error
(a malformed command line, dimension mismatch), 4 resource limit (box,
prime sieve or Moebius sieve too large, or a gcd that cannot be factored
and certified within budget).  Exit 3 is reserved and unused; it once
refused rational vectors whose numerators share a factor.
Warnings go to stderr; JSON/CSV payloads stay machine-readable.

The table COMMANDS reads ``--opt VALUE`` and ``--opt=VALUE``; a repeated
option keeps its last value, and a value may start with "-" (``--b -1,2``).
"""

from __future__ import annotations

import itertools
import math
import os
import re
import sys
import time
from fractions import Fraction

# Each handler imports the library modules, and each format the standard
# modules, that it uses: a command loads only what it runs.
from . import __version__
from .errors import ResourceLimitError, UsageError

_B_ENTRY = re.compile(r"-?\d+(?:/\d+)?$")
# Points of the box per block of `bvis sieve` output.
SIEVE_CHUNK = 1 << 12
# How `bvis sieve` writes a point in each format: the text that opens it, the
# one between its coordinates, the one that closes it, and the one between points.
_POINT_TEXT = {"json": ("[", ", ", "]", ", "), "csv": ("", ",", "\r\n", ""), "plain": ("", ",", "\n", "")}
# Most points a `bvis sieve` box may hold unless --limit sets another ceiling.
DEFAULT_BRUTE_LIMIT = 10_000_000


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
            raise UsageError("integer case needs positive integer exponents; use --case rat or signed")
    elif case == "rat" and any(f < 0 for f in fracs):
        raise UsageError("rational case needs positive exponents; use --case signed")
    from .visibility import as_rational_exponent_vector

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
        from .counting import box_edges

        return kind, vector, box_edges(_require_n(n), vector)
    edges = _parse_ints(box_spec, "--box", minimum=0)
    if len(edges) != len(vector):
        raise UsageError(f"--box has {len(edges)} edges, exponent vector has {len(vector)}")
    return kind, vector, edges


def _family(kind: str, vector) -> dict:
    """The "b" and "case" fields that open every payload."""
    return {"b": [str(e) for e in vector], "case": kind}


def _box_fields(kind: str, vector, edges, visible: int) -> dict:
    """The payload fields of an exact count over a box."""
    return {**_family(kind, vector), "box": list(edges), "visible": str(visible), "total": str(math.prod(edges))}


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
        import json

        print(json.dumps(fields))
    elif fmt == "csv":
        rows = [fields.keys(), [_cell(v, none="") for v in fields.values()]]
        print(_csv_text(rows).rstrip("\n"))
    else:
        for key, value in fields.items():
            print(f"{key}: {_cell(value, none='-')}")


def _csv_text(rows) -> str:
    """Rows as CSV text, each ending in csv's own line terminator."""
    import csv
    import io

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


def check(b_spec, point_spec, expanded, case, fmt):
    """Visibility verdict for one point, with a witness when invisible."""
    from .visibility import base_from_expanded, witness_prime

    kind, vector = parse_b_spec(b_spec, case)
    point = _parse_ints(point_spec, "--point")
    if expanded:
        if kind == "int":
            raise UsageError("--expanded only applies to fractional exponents")
        point = base_from_expanded(point, vector)
    witness = witness_prime(point, kind, vector)
    image = _witness_image(point, vector, witness) if kind == "int" and witness is not None else None
    fields = {
        **_family(kind, vector),
        "point": list(point),
        "visible": witness is None,
        "witness_prime": witness,
        "image": list(image) if image is not None else None,
    }
    if fmt == "plain":
        if witness is None:
            print("visible")
        elif image is not None:
            print(f"invisible: witness prime {witness}, image {','.join(map(str, image))}")
        else:
            print(f"invisible: witness prime {witness}")
    else:
        _emit(fmt, fields)


def _witness_image(point, b, prime):
    from .visibility import constrained_exponents

    return tuple(c // prime**e for c, e in zip(point, constrained_exponents("int", b).exps))


def count(b_spec, n, box_spec, case, fmt):
    """Exact number of visible points in a box (Moebius inclusion-exclusion)."""
    from .counting import count_box
    from .visibility import constrained_exponents

    kind, vector, edges = _parse_box(b_spec, case, n, box_spec)
    _emit(fmt, _box_fields(kind, vector, edges, count_box(edges, constrained_exponents(kind, vector))))


def density(b_spec, n, case, fmt):
    """Density report: exact count vs the theoretical 1/zeta density."""
    from .counting import density_report

    kind, vector = parse_b_spec(b_spec, case)
    _require_n(n)
    if (g := math.gcd(*(f.numerator for f in vector))) > 1:
        print(
            f"note: exponents share gcd {g}; visibility is equivalent to "
            f"the reduced vector ({','.join(str(f / g) for f in vector)}), which sets the density",
            file=sys.stderr,
        )
    report = density_report(n, vector, kind)
    _emit(
        fmt,
        {
            **_box_fields(kind, vector, report.box, report.visible_count),
            "empirical": report.empirical,
            "exponent_sum": report.exponent_sum,
            "theoretical": report.theoretical,
            "abs_error": report.abs_error,
        },
    )


def sieve(b_spec, n, box_spec, limit, case, fmt):
    """List every visible point of the box in lexicographic order."""
    from .counting import mark_box
    from .visibility import constrained_exponents

    kind, vector, edges = _parse_box(b_spec, case, n, box_spec)
    cap = DEFAULT_BRUTE_LIMIT if limit is None else limit
    if cap < 1:
        raise UsageError(f"--limit must be an integer >= 1, got {cap}")
    volume = math.prod(edges)
    if volume > cap:
        raise ResourceLimitError(f"sieve box of {volume} points exceeds limit {cap}")
    marks = mark_box(edges, constrained_exponents(kind, vector))
    write = sys.stdout.write
    if fmt == "json":
        import json

        head = {**_family(kind, vector), "box": list(edges), "count": marks.count(1), "points": []}
        write(json.dumps(head)[:-2])  # up to the points' opening bracket
    elif fmt == "csv":
        write(_csv_text([[f"x{i + 1}" for i in range(len(edges))]]))
    opening, sep, closing, between = _POINT_TEXT[fmt]
    # every point's text starts with the separator between points, cut from the first one
    for i, block in enumerate(_sieve_blocks(edges, marks, between + opening, sep, closing)):
        write(block if i else block[len(between) :])
    if fmt == "json":
        write("]}\n")


def _sieve_blocks(edges, marks: bytearray, head: str, sep: str, closing: str):
    """The text of the points that ``marks`` keeps, at most SIEVE_CHUNK points of the box per block.

    A point's text is ``head``, its coordinates joined by ``sep``, then
    ``closing``; empty blocks are skipped.  The split axis is the first one
    whose later axes hold at most a block.  A table, built once, lists the
    text of those later coordinates behind the last decimal digits of the
    split coordinate, as many digits as keep the table within a block.  The
    box is walked in groups, one per outer point and leading digits of the
    split coordinate: a group's text is its head, formatted once, joined
    around ``compress(table, marks[lo:hi])``.  No tuple is made per point
    and no axis is held whole, so neither time nor memory depends on the
    box's shape.
    """
    if not marks:
        return
    block = SIEVE_CHUNK
    split = 0
    while math.prod(edges[split + 1 :]) > block:
        split += 1
    n, width = edges[split], math.prod(edges[split + 1 :])
    scale = 10 ** (len(str(block // width)) - 1)  # values of the split coordinate per group
    later = itertools.product(*(range(1, m + 1) for m in edges[split + 1 :]))
    tails = ["".join(sep + str(x) for x in pt) + closing for pt in later]
    padded = [str(scale + r)[1:] + tail for r in range(scale) for tail in tails]  # behind leading digits
    short = [str(r) + tail for r in range(1, scale) for tail in tails]  # split values below scale
    parts, filled = [], 0
    for base, outer in zip(range(0, len(marks), n * width), _row_heads(head, edges[:split], sep)):
        for q in range(n // scale + 1):  # the split values q * scale + r that are in [1, n]
            lo = base + max(q * scale - 1, 0) * width
            hi = base + min(q * scale + scale - 1, n) * width
            if filled + hi - lo > block:
                if parts:
                    yield "".join(parts)
                parts, filled = [], 0
            filled += hi - lo
            group = f"{outer}{q}" if q else outer
            kept = group.join(itertools.compress(padded if q else short, marks[lo:hi]))
            if kept:
                parts.append(group + kept)
    if parts:
        yield "".join(parts)


def _row_heads(head: str, edges, sep: str):
    """``head`` then a point's coordinates, each followed by ``sep``, for every point of ``edges`` in order.

    Lazy: no axis is held whole, and an empty ``edges`` gives ``head`` once.
    """
    if not edges:
        yield head
        return
    *outer, last = edges
    for outer_head in _row_heads(head, outer, sep):
        for c in range(1, last + 1):
            yield f"{outer_head}{c}{sep}"


def zeta_cmd(s, tol, euler_limit, fmt):
    """Certified zeta(s) by exact Euler-Maclaurin summation with an explicit tail bound."""
    from .zeta import zeta as zeta_eval
    from .zeta import zeta_euler_product

    value = zeta_eval(s, tol)
    fields = value._asdict()
    if euler_limit is not None:
        fields["euler_product"] = zeta_euler_product(s, euler_limit)
        fields["euler_prime_limit"] = euler_limit
    if fmt == "plain":
        print(f"zeta({value.s}) = {value.value!r} (tail <= {value.tail_bound!r}, {value.terms} terms)")
        if euler_limit is not None:
            print(f"euler product (p <= {euler_limit}): {fields['euler_product']!r}")
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
    from . import counting
    from .counting import brute_prefix_counts, mobius_box_count
    from .visibility import constrained_exponents, find_parametric_witness, witness_prime
    from .zeta import zeta as zeta_eval
    from .zeta import zeta_euler_product

    quick = profile == "quick"
    side = 20 if quick else 40
    grid = list(itertools.product(range(1, side + 1), repeat=2))
    # base tuples for the rational and signed sweeps, by dimension
    bases = {2: list(itertools.product(range(1, 9), repeat=2)), 3: list(itertools.product(range(1, 6), repeat=3))}
    zeta_tol = 1e-6 if quick else 1e-9
    checks = []

    def row(fn):
        """Enter ``fn`` in the table under its name, with dashes."""
        checks.append((fn.__name__.replace("_", "-"), fn))
        return fn

    def splits(spec, points):
        """How many base tuples the oracle and the characterization disagree on.

        ``spec`` is a --b value, read as `bvis` reads it.  The oracle searches the
        expanded point (li**(alpha/ai)) under alpha * b, alpha the lcm of the denominators.
        """
        kind, b = parse_b_spec(spec)
        alpha = math.lcm(*(f.denominator for f in b))
        scaled, powers = [int(f * alpha) for f in b], [alpha // f.denominator for f in b]
        witness = constrained_exponents(kind, b).witness
        return sum(
            (find_parametric_witness([c**e for c, e in zip(pt, powers)], scaled) is None) != (witness(pt) is None)
            for pt in points
        )

    @row
    def worked_example():
        point, b = (4, 16, 40, 128), (2, 4, 3, 7)
        prime = witness_prime(point, "int", b)
        image = _witness_image(point, b, prime) if prime is not None else None
        ok = prime == 2 and image == (1, 1, 5, 1) and witness_prime(image, "int", b) is None
        return ok, f"witness p={prime}, image {image}"

    @row
    def oracle_equivalence():
        vectors = ["1,2", "2,3"] if quick else ["1,1", "1,2", "2,3", "2,4", "3,7"]
        sweeps = [(b, grid) for b in vectors]
        if not quick:
            import random

            # one seeded draw of 3-D points, shared by the three vectors
            rng = random.Random(seed)
            points = [tuple(rng.randint(1, 20) for _ in range(3)) for _ in range(500)]
            sweeps += [(b, points) for b in ["1,1,1", "1,2,3", "2,4,6"]]
            # rational vectors, and signed ones with negative entries
            families = ("1/2,1/2", "2/3,1/2", "2/3,3/2", "1/2,1,3/2")
            families += ("1,-2", "-1,-1", "-1/2,3", "2/3,-1/2", "3,-2,-3", "1/2,-1,2")
            sweeps += [(b, bases[b.count(",") + 1]) for b in families]
        disagreements = sum(splits(b, pts) for b, pts in sweeps)
        return disagreements == 0, f"{sum(len(pts) for _, pts in sweeps)} points, {disagreements} disagreements"

    @row
    def gcd_reduction():
        vectors = ["2,4", "2,2"] if quick else ["2,4", "3,6", "2,2"]
        sweeps = [(b, grid) for b in vectors]
        if not quick:
            # numerators with gcd G > 1 in the rational and signed families
            shared = ("2/3,2/3", "2,2/3", "4/3,2/5", "6,4,2/3", "3/2,9/4")
            shared += ("2,-4", "2,-2", "-2,-4", "6,-4,-2", "2/3,-2/3")
            sweeps += [(b, bases[b.count(",") + 1]) for b in shared]
        disagreements = sum(splits(b, pts) for b, pts in sweeps)
        # the witness case: t = 1/sqrt(2) maps (2,4) to (1,1) under b=(2,4)
        witness_case = (
            witness_prime((2, 4), "int", (2, 4)) == 2 and find_parametric_witness((2, 4), (2, 4)) is not None
        )
        return (
            disagreements == 0 and witness_case,
            f"{sum(len(pts) for _, pts in sweeps)} points, {disagreements} disagreements; "
            f"(2,4) invisible for b=(2,4): {witness_case}",
        )

    @row
    def mobius_vs_bruteforce():
        n_max = 30 if quick else 60
        vectors = [(1, 1), (1, 2), (1, 1, 1)] if quick else [(1, 1), (1, 2), (2, 3), (1, 1, 1), (1, 2, 3)]
        mismatches = 0
        for b in vectors:
            brute = brute_prefix_counts(n_max, b)
            for n in range(1, n_max + 1):
                if counting.count_visible_int(n, b) != brute[n]:
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


def verify(profile, seed):
    """Run the built-in theorem checks; nonzero exit if any fail."""
    checks = verify_checks(profile, seed)
    failures = 0
    print(f"{'check':<36} {'status':<7} {'time':>8}  detail")
    for name, fn in checks:
        start = time.perf_counter()
        ok, detail = fn()
        elapsed = time.perf_counter() - start
        failures += 0 if ok else 1
        print(f"{name:<36} {'PASS' if ok else 'FAIL':<7} {elapsed:>7.2f}s  {detail}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed ({profile} profile)")
    if failures:
        raise SystemExit(1)


_B = ("--b", "b_spec", str, None, True)
_N, _BOX = ("--N", "n", int, None, False), ("--box", "box_spec", str, None, False)
_CASE = ("--case", "case", ("int", "rat", "signed"), None, False)
_FORMAT = ("--format", "fmt", ("json", "csv", "plain"), "plain", False)
# subcommand: (handler, options), an option being (flag, dest, convert, default, required);
# convert is str, int, float, a tuple of the values allowed, or None for a flag (no value, sets True).
COMMANDS = {
    "check": (check, (_B, ("--point", "point_spec", str, None, True),
                      ("--expanded", "expanded", None, False, False), _CASE, _FORMAT)),
    "count": (count, (_B, _N, _BOX, _CASE, _FORMAT)),
    "density": (density, (_B, ("--N", "n", int, None, True), _CASE, _FORMAT)),
    "sieve": (sieve, (_B, _N, _BOX, ("--limit", "limit", int, None, False), _CASE, _FORMAT)),
    "verify": (verify, (("--profile", "profile", ("quick", "full"), "quick", False),
                        ("--seed", "seed", int, 0, False))),
    "zeta": (zeta_cmd, (("--s", "s", int, None, True), ("--tol", "tol", float, 1e-9, False),
                        ("--euler-limit", "euler_limit", int, None, False), _FORMAT)),
}


def _parse(command: str, argv: list[str]) -> dict:
    """The handler's keyword arguments from the words after ``command``."""
    options, given, extra, tokens = {opt[0]: opt for opt in COMMANDS[command][1]}, {}, [], iter(argv)
    for token in tokens:
        flag, has_value, value = token.partition("=")
        if not token.startswith("-"):
            extra.append(token)
        elif flag not in options:
            raise UsageError(f"No such option '{flag}'.")
        elif options[flag][2] is None and has_value:
            raise UsageError(f"Option '{flag}' does not take a value.")
        else:
            given[flag] = True if options[flag][2] is None else value if has_value else next(tokens, None)
            if given[flag] is None:
                raise UsageError(f"Option '{flag}' requires an argument.")
    kwargs = {}
    for flag, dest, convert, default, required in options.values():
        value = kwargs[dest] = given.get(flag, default)
        bad = f"Invalid value for '{flag}': '{value}' is not"
        if flag not in given and required:
            raise UsageError(f"Missing option '{flag}'.")
        if flag in given and isinstance(convert, tuple) and value not in convert:
            raise UsageError(f"{bad} one of {', '.join(map(repr, convert))}.")
        if flag in given and convert in (int, float):
            try:
                kwargs[dest] = convert(value)
            except ValueError:
                raise UsageError(f"{bad} a valid {'integer' if convert is int else 'float'}.") from None
    if extra:
        raise UsageError(f"Got unexpected extra argument{'s' * (len(extra) > 1)} ({' '.join(extra)})")
    return kwargs


def _help(usage: str, command: str | None) -> str:
    if command is None:
        text = [main.__doc__.splitlines()[0], "", "Options: --version, --help", "", "Commands:"]
        text += [f"  {name:<8} {handler.__doc__}" for name, (handler, _options) in COMMANDS.items()]
    else:
        text = [COMMANDS[command][0].__doc__, "", "Options:"]
        for flag, _dest, convert, _default, required in COMMANDS[command][1]:
            kind = "|".join(convert) if isinstance(convert, tuple) else getattr(convert, "__name__", "").upper()
            text.append(f"  {flag} {kind}".rstrip() + " (required)" * required)
    return "\n".join([usage, "", *text])


def main(args=None, prog_name=None) -> None:
    """Lattice-point visibility: exact counts and densities against 1/zeta.

    Runs ``args`` (default ``sys.argv[1:]``); ``prog_name`` (default "bvis") names
    the program in usage texts.  Errors end in SystemExit with their exit code.
    """
    prog = prog_name or "bvis"
    argv = sys.argv[1:] if args is None else list(args)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    usage = f"Usage: {prog} {command} [OPTIONS]" if command else f"Usage: {prog} [OPTIONS] COMMAND [ARGS]..."
    if argv[:1] in (["--version"], ["--help"]) or command and "--help" in argv:
        print(f"bvis, version {__version__}" if argv[0] == "--version" else _help(usage, command))
        return
    try:
        if command is None:
            what = "option" if argv and argv[0].startswith("-") else "command"
            raise UsageError(f"No such {what} '{argv[0]}'." if argv else "Missing command.")
        kwargs = _parse(command, argv[1:])
    except UsageError as exc:
        sys.stderr.write(f"{usage}\nTry '{prog} {command + ' ' if command else ''}--help' for help.\n\nError: {exc}\n")
        raise SystemExit(2)
    try:
        COMMANDS[command][0](**kwargs)
        sys.stdout.flush()
    except (ValueError, ResourceLimitError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(4 if isinstance(exc, ResourceLimitError) else 2)
    except BrokenPipeError:  # the reader left early, as `bvis sieve ... | head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # no flush into the closed pipe at exit
        raise SystemExit(1)


if __name__ == "__main__":
    main()
