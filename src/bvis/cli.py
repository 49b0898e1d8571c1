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


def parse_b_spec(text: str):
    """Parse a comma-separated exponent spec of `[-]digits[/digits]` entries into a tuple of Fractions."""
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
    from .visibility import as_rational_exponent_vector

    return as_rational_exponent_vector(fracs)


def _require_n(n: int) -> int:
    if n < 1:
        raise UsageError(f"--N must be >= 1, got {n}")
    return n


def _parse_box(b_spec: str, n: int | None, box_spec: str | None):
    """(vector, box edges) from --b and exactly one of --N or --box.

    Errors come in a fixed order: the choice of --N or --box, the exponent
    spec, then the box.
    """
    if (n is None) == (box_spec is None):
        raise UsageError("need exactly one of --N or --box")
    vector = parse_b_spec(b_spec)
    if box_spec is None:
        from .counting import box_edges

        return vector, box_edges(_require_n(n), vector)
    edges = _parse_ints(box_spec, "--box", minimum=0)
    if len(edges) != len(vector):
        raise UsageError(f"--box has {len(edges)} edges, exponent vector has {len(vector)}")
    return vector, edges


def _family(vector) -> dict:
    """The "b" and "case" fields that open every payload; "case" is the vector's label."""
    from .visibility import family

    return {"b": [str(e) for e in vector], "case": family(vector)}


def _box_fields(vector, edges, visible: int) -> dict:
    """The payload fields of an exact count over a box."""
    return {**_family(vector), "box": list(edges), "visible": str(visible), "total": str(math.prod(edges))}


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


def check(b_spec, point_spec, expanded, fmt):
    """Visibility verdict for one point, with a witness when invisible."""
    from .visibility import _witness_image, base_from_expanded, witness_prime

    vector = parse_b_spec(b_spec)
    label = _family(vector)  # an "int" case has no restricted lattice, and a witness has an image
    point = _parse_ints(point_spec, "--point")
    if expanded:
        point = base_from_expanded(point, vector)  # the identity when alpha = 1
    witness = witness_prime(point, vector)
    image = _witness_image(point, vector, witness) if label["case"] == "int" and witness is not None else None
    fields = {
        **label,
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


def count(b_spec, n, box_spec, fmt):
    """Exact number of visible points in a box (Moebius inclusion-exclusion)."""
    from .counting import count_box
    from .visibility import constrained_exponents

    vector, edges = _parse_box(b_spec, n, box_spec)
    _emit(fmt, _box_fields(vector, edges, count_box(edges, constrained_exponents(vector))))


def density(b_spec, n, fmt):
    """Density report: exact count vs the theoretical 1/zeta density."""
    from .counting import density_report

    vector = parse_b_spec(b_spec)
    _require_n(n)
    if (g := math.gcd(*(f.numerator for f in vector))) > 1:
        print(
            f"note: exponents share gcd {g}; visibility is equivalent to "
            f"the reduced vector ({','.join(str(f / g) for f in vector)}), which sets the density",
            file=sys.stderr,
        )
    report = density_report(n, vector)
    _emit(
        fmt,
        {
            **_box_fields(vector, report.box, report.visible_count),
            "empirical": report.empirical,
            "exponent_sum": report.exponent_sum,
            "theoretical": report.theoretical,
            "abs_error": report.abs_error,
        },
    )


def sieve(b_spec, n, box_spec, limit, fmt):
    """List every visible point of the box in lexicographic order."""
    from .counting import mark_box
    from .visibility import constrained_exponents

    vector, edges = _parse_box(b_spec, n, box_spec)
    cap = DEFAULT_BRUTE_LIMIT if limit is None else limit
    if cap < 1:
        raise UsageError(f"--limit must be an integer >= 1, got {cap}")
    volume = math.prod(edges)
    if volume > cap:
        raise ResourceLimitError(f"sieve box of {volume} points exceeds limit {cap}")
    marks = mark_box(edges, constrained_exponents(vector))
    write = sys.stdout.write
    if fmt == "json":
        import json

        head = {**_family(vector), "box": list(edges), "count": marks.count(1), "points": []}
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


def verify(profile, seed):
    """Run the built-in theorem checks; nonzero exit if any fail."""
    from .theorems import verify_checks

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
_FORMAT = ("--format", "fmt", ("json", "csv", "plain"), "plain", False)
# subcommand: (handler, options), an option being (flag, dest, convert, default, required);
# convert is str, int, float, a tuple of the values allowed, or None for a flag (no value, sets True).
COMMANDS = {
    "check": (check, (_B, ("--point", "point_spec", str, None, True),
                      ("--expanded", "expanded", None, False, False), _FORMAT)),
    "count": (count, (_B, _N, _BOX, _FORMAT)),
    "density": (density, (_B, ("--N", "n", int, None, True), _FORMAT)),
    "sieve": (sieve, (_B, _N, _BOX, ("--limit", "limit", int, None, False), _FORMAT)),
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
