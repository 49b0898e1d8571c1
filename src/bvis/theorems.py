"""The theorem checks behind `bvis verify`: one table of the paper's claims, as data.

Only `bvis verify` loads this module, and tests/test_acceptance.py runs the
full profile as the release gate.  ``verify_checks`` turns a profile's lines
into named checks, which call the library through its modules, so a function
replaced there is the one they run.  Nothing here imports ``bvis.cli``: under
``python -m bvis.cli`` that import would run cli.py a second time.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import partial

from . import counting, visibility, zeta

Q, F, QF = ("quick",), ("full",), ("quick", "full")  # the profiles a line belongs to

# Oracle sweeps: (profiles, name, vectors, point set).  A name's lines make one
# check: the base tuples where the characterization and the oracle disagree.  A
# point set is m, the box [1, m]^k, or "drawn": 500 points of [1, 20]^k drawn
# from the seed.
SWEEPS = [
    (Q, "oracle-equivalence", ("1,2", "2,3"), 20),
    (F, "oracle-equivalence", ("1,1", "1,2", "2,3", "2,4", "3,7"), 40),
    (F, "oracle-equivalence", ("1,1,1", "1,2,3", "2,4,6"), "drawn"),
    (F, "oracle-equivalence", ("1/2,1/2", "2/3,1/2", "2/3,3/2"), 8),
    (F, "oracle-equivalence", ("1/2,1,3/2",), 5),
    (F, "oracle-equivalence", ("1,-2", "-1,-1", "-1/2,3", "2/3,-1/2"), 8),
    (F, "oracle-equivalence", ("3,-2,-3", "1/2,-1,2"), 5),
    # numerators with gcd G > 1: integer, rational and signed
    (Q, "gcd-reduction", ("2,4", "2,2"), 20),
    (F, "gcd-reduction", ("2,4", "3,6", "2,2"), 40),
    (F, "gcd-reduction", ("2/3,2/3", "2,2/3", "4/3,2/5", "3/2,9/4"), 8),
    (F, "gcd-reduction", ("6,4,2/3",), 5),
    (F, "gcd-reduction", ("2,-4", "2,-2", "-2,-4", "2/3,-2/3"), 8),
    (F, "gcd-reduction", ("6,-4,-2",), 5),
]
# A sweep's planted point (point, b, p), invisible for integer b through the
# prime p and to the oracle: t = 1/sqrt(2) maps (2,4) to (1,1) under b = (2,4).
PLANTED = {"gcd-reduction": ((2, 4), (2, 4), 2)}
# Moebius counts of [1, N]^k against brute force for every N <= n_max: (n_max, vectors).
MOBIUS = {"quick": (30, [(1, 1), (1, 2), (1, 1, 1)]), "full": (60, [(1, 1), (1, 2), (2, 3), (1, 1, 1), (1, 2, 3)])}
# The grid marker against the Moebius count over a box: (edges, vectors).  The
# marker uses no Moebius inversion, and no enumeration reaches this scale.
GRID = {"quick": ((500, 500), [(1, 1), (1, 2)]), "full": ((2000, 2000), [(1, 1), (1, 2)])}
# Densities: (profiles, N, b, the paper's exponent sum s of the limit 1/zeta(s),
# tolerance[, least box edge]), each check named with visibility.family(b).  s
# sums the entries of integer b, the numerators of rational b, and |bj| over
# the negative entries of signed b.
DENSITY = [
    (QF, 1000, (1, 1), 2, 0.002),
    (QF, 500, (2, 3), 5, 0.005),
    (QF, 10**6, ("1/2", "1/2"), 2, 0.002),
    (QF, 10**6, ("2/3", "3/2"), 5, 0.005),
    (QF, 4000, (1, -2), 2, 0.005),
    (F, 1000, (1, 2), 3, 0.005),
    (F, 200, (1, 1, 1), 3, 0.01),
    (F, 8_000_000, ("2/3", "3/2"), 5, 0.01),
    # numerators sum to 3, denominators to 5: on a box this large the
    # density lands near 1/zeta(3) ~ 0.832, far from 1/zeta(5) ~ 0.964
    (F, 8_000_000, ("2/3", "1/2"), 3, 0.01, 200),
    (F, 10**4, (1, -2), 2, 0.005),
    (F, 300, (3, -2, -3), 5, 0.01),
]
# The tolerance of the certified zeta(s), and the s whose Euler products over
# the primes to 1e5 must meet zeta(s) within 1e-4.
ZETA = {"quick": (1e-6, (2,)), "full": (1e-9, (2, 3, 5))}


def verify_checks(profile: str, seed: int) -> list:
    """The checks of ``profile``, in order: (name, check), check() -> (ok, detail)."""
    sweeps = {}
    for profiles, name, *line in SWEEPS:
        if profile in profiles:
            sweeps.setdefault(name, []).append(line)
    return [
        ("worked-example", _worked_example),
        *((name, partial(_sweep, lines, PLANTED.get(name), seed)) for name, lines in sweeps.items()),
        ("mobius-vs-bruteforce", partial(_mobius_vs_bruteforce, *MOBIUS[profile])),
        ("grid-marking-vs-mobius", partial(_grid_vs_mobius, *GRID[profile])),
        *(
            (f"density-{visibility.family(b)}-{_vec(b)}-N{n}", partial(_density, n, b, *rest))
            for profiles, n, b, *rest in DENSITY
            if profile in profiles
        ),
        ("zeta-certification", partial(_zeta_certification, ZETA[profile][0])),
        ("euler-product", partial(_euler_product, *ZETA[profile])),
    ]


def _vec(v) -> str:  # "(1,-2)"
    return f"({','.join(map(str, v))})"


def _worked_example():
    point, b = (4, 16, 40, 128), (2, 4, 3, 7)
    prime = visibility.witness_prime(point, b)
    image = visibility._witness_image(point, b, prime) if prime is not None else None
    ok = prime == 2 and image == (1, 1, 5, 1) and visibility.witness_prime(image, b) is None
    return ok, f"witness p={prime}, image {image}"


def _sweep(lines, planted, seed):
    # the oracle searches the expanded point (li**(alpha/ai)) of each base
    # tuple (l1, ..., lk), alpha the lcm of b's denominators
    points = disagreements = 0
    for vectors, spec in lines:
        for text in vectors:
            b = visibility.as_rational_exponent_vector(text.split(","))
            alpha = math.lcm(*(f.denominator for f in b))
            powers = [alpha // f.denominator for f in b]
            witness = visibility.constrained_exponents(b).witness
            if spec == "drawn":
                rng = random.Random(seed)
                bases = [tuple(rng.randint(1, 20) for _ in b) for _ in range(500)]
            else:
                bases = list(itertools.product(range(1, spec + 1), repeat=len(b)))
            points += len(bases)
            disagreements += sum(
                (visibility.find_parametric_witness([c**e for c, e in zip(pt, powers)], b) is None)
                != (witness(pt) is None)
                for pt in bases
            )
    detail = f"{points} points, {disagreements} disagreements"
    if planted is None:
        return disagreements == 0, detail
    point, b, p = planted
    found = visibility.witness_prime(point, b) == p and visibility.find_parametric_witness(point, b) is not None
    return disagreements == 0 and found, f"{detail}; {_vec(point)} invisible for b={_vec(b)}: {found}"


def _mobius_vs_bruteforce(n_max, vectors):
    brute = {b: counting.brute_prefix_counts(n_max, b) for b in vectors}
    mismatches = sum(counting.count_visible_int(n, b) != brute[b][n] for b in vectors for n in range(1, n_max + 1))
    return mismatches == 0, f"N <= {n_max}, {len(vectors)} vectors, {mismatches} mismatches"


def _grid_vs_mobius(edges, vectors):
    for exps in vectors:
        marked = counting.count_visible_box(edges, visibility.constrained_exponents(exps))
        closed = counting.mobius_box_count(edges, exps)
        if marked != closed:
            return False, f"edges {edges}, exps {_vec(exps)}: {marked} != {closed}"
    return True, f"edges {edges}, exps {' and '.join(map(_vec, vectors))}, grid == mobius"


def _density(n, b, s, tol, min_edge=1):
    report = counting.density_report(n, b)
    if report.exponent_sum != s:
        return False, f"exponent sum {report.exponent_sum}, expected {s}"
    if min(report.box) < min_edge:
        return False, f"box {report.box} has an edge below {min_edge}"
    return report.abs_error <= tol, f"abs_error {report.abs_error:.6f} vs tol {tol}"


def _zeta_certification(tol):
    value = zeta.zeta(2, tol)
    gap = abs(value.value - math.pi**2 / 6)
    return gap <= value.tail_bound <= tol, f"|value - pi^2/6| = {gap:.2e}, tail {value.tail_bound:.2e}"


def _euler_product(tol, exponents):
    worst = max(abs(zeta.zeta_euler_product(s, 10**5) - zeta.zeta(s, tol).value) for s in exponents)
    return worst <= 1e-4, f"worst gap {worst:.2e} vs 1e-4"
