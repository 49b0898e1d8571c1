"""End-to-end acceptance checks, one test per release criterion.

Each test pins a finite-size surrogate for a limiting density (criteria
1-4), a property that must hold exactly (criteria 5-8), or a certified
numerical bound (criterion 9), at a stated tolerance and time budget.
Run with ``pytest -v tests/test_acceptance.py`` for one line per criterion.

Criterion 3b is expected to fail: it compares the b=(2/3,1/2) density
against 1/zeta(5), but the counting theorem gives the limit as 1/zeta of
the sum of the exponent *numerators* (2+1=3), and the empirical density
indeed converges to 1/zeta(3) ~ 0.8319, not 1/zeta(5) ~ 0.9644.  The
check is kept as stated rather than silently repointed; the swapped
vector b=(2/3,3/2), whose numerators sum to 5, meets the same tolerance
comfortably (the ``bvis verify --profile full`` suite exercises it).
"""

import itertools
import json
import math
import random
import time

import pytest
from click.testing import CliRunner

from bvis.cli import main
from bvis.counting import (
    count_visible_bruteforce,
    count_visible_int,
    count_visible_rat,
    density_report,
)
from bvis.visibility import (
    is_visible_int,
    oracle_visible_parametric,
    reduce_b,
    witness_prime_int,
)
from bvis.zeta import inv_zeta, zeta, zeta_euler_product

ZETA_TOL = 1e-9


def _density_error(case, n, b, s):
    report = density_report(n, b, case)
    target = inv_zeta(s, ZETA_TOL)
    return abs(report.empirical - target), report.empirical, target


def test_criterion_1_classical_coprime_density():
    start = time.perf_counter()
    count = count_visible_int(1000, (1, 1))
    elapsed = time.perf_counter() - start
    err = abs(count / 1000**2 - inv_zeta(2, ZETA_TOL))
    assert err <= 0.002, f"|empirical - 1/zeta(2)| = {err:.6f} > 0.002"
    assert elapsed < 1.0, f"count took {elapsed:.3f}s (budget 1s)"


def test_criterion_2_integer_exponent_densities():
    start = time.perf_counter()
    rows = [
        ((1, 2), 1000, 3, 0.005),
        ((2, 3), 500, 5, 0.005),
        ((1, 1, 1), 200, 3, 0.01),
    ]
    for b, n, s, tol in rows:
        err, emp, target = _density_error("int", n, b, s)
        assert err <= tol, (
            f"b={b}, N={n}: |{emp:.6f} - {target:.6f}| = {err:.6f} > {tol}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"integer densities took {elapsed:.3f}s (budget 5s)"


def test_criterion_3a_rational_common_denominator():
    start = time.perf_counter()
    report = count_visible_rat(10**6, ["1/2", "1/2"])
    err = abs(report.empirical - inv_zeta(2, ZETA_TOL))
    elapsed = time.perf_counter() - start
    assert err <= 0.002, f"|empirical - 1/zeta(2)| = {err:.2e} > 0.002"
    assert elapsed < 5.0, f"rational density took {elapsed:.3f}s (budget 5s)"


def test_criterion_3b_rational_mixed_denominators():
    # expected failure: the limit for (2/3,1/2) is 1/zeta(3), not 1/zeta(5);
    # see the module docstring
    n = 8_000_000
    report = count_visible_rat(n, ["2/3", "1/2"])
    assert all(edge >= 200 for edge in report.box.edges), report.box
    target = inv_zeta(5, ZETA_TOL)
    err = abs(report.empirical - target)
    assert err <= 0.01, (
        f"b=(2/3,1/2), N={n}, box {report.box.edges}: empirical "
        f"{report.empirical:.6f} vs 1/zeta(5) = {target:.6f}, |diff| = "
        f"{err:.6f} > 0.01 (the empirical density tracks 1/zeta(3) = "
        f"{inv_zeta(3, ZETA_TOL):.6f}, the numerator-sum density)"
    )


def test_criterion_4_signed_exponent_densities():
    start = time.perf_counter()
    err2, emp2, t2 = _density_error("signed", 10**4, [1, -2], 2)
    assert err2 <= 0.005, f"(1,-2): |{emp2:.6f} - {t2:.6f}| = {err2:.6f} > 0.005"
    err5, emp5, t5 = _density_error("signed", 300, [3, -2, -3], 5)
    assert err5 <= 0.01, f"(3,-2,-3): |{emp5:.6f} - {t5:.6f}| = {err5:.6f} > 0.01"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"signed densities took {elapsed:.3f}s (budget 5s)"


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    disagreements = 0
    for b in [(1, 1), (1, 2), (2, 3), (2, 4), (3, 7)]:
        for x in range(1, 41):
            for y in range(1, 41):
                point = (x, y)
                if oracle_visible_parametric(point, b) != is_visible_int(point, b):
                    disagreements += 1
    rng = random.Random(20260814)
    points = [
        tuple(rng.randint(1, 20) for _ in range(3)) for _ in range(500)
    ]
    for b in [(1, 1, 1), (1, 2, 3), (2, 4, 6)]:
        for point in points:
            if oracle_visible_parametric(point, b) != is_visible_int(point, b):
                disagreements += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0, f"{disagreements} oracle/characterization splits"
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.3f}s (budget 60s)"


def test_criterion_6_gcd_reduction_lemma():
    for b in [(2, 4), (3, 6), (2, 2)]:
        reduced = reduce_b(b)
        for x in range(1, 41):
            for y in range(1, 41):
                point = (x, y)
                assert oracle_visible_parametric(point, b) == is_visible_int(
                    point, reduced
                ), f"b={b} vs {reduced.entries} split at {point}"
    # the witness case: t = 1/sqrt(2) maps (2,4) to (1,1) under b=(2,4)
    assert not oracle_visible_parametric((2, 4), (2, 4))
    assert witness_prime_int((2, 4), (2, 4)) == 2


def _brute_prefix_counts(n_max, b):
    """Visible-point counts of [1,N]^k for every N <= n_max, by enumeration.

    One sweep of the largest box, bucketed by max coordinate, covers all
    the nested boxes at once.
    """
    by_max = [0] * (n_max + 1)
    for point in itertools.product(range(1, n_max + 1), repeat=len(b)):
        if is_visible_int(point, b):
            by_max[max(point)] += 1
    counts = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        counts[n] = counts[n - 1] + by_max[n]
    return counts


def test_criterion_7_mobius_equals_bruteforce():
    start = time.perf_counter()
    for b in [(1, 1), (1, 2), (2, 3), (1, 1, 1), (1, 2, 3)]:
        brute = _brute_prefix_counts(60, b)
        for n in range(1, 61):
            assert count_visible_int(n, b) == brute[n], f"b={b}, N={n}"
        for n in (1, 7, 60):
            direct = count_visible_bruteforce(
                (n,) * len(b), lambda pt: is_visible_int(pt, b)
            )
            assert direct == brute[n]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"count comparison took {elapsed:.3f}s (budget 30s)"


def test_criterion_8_worked_example():
    assert witness_prime_int((4, 16, 40, 128), (2, 4, 3, 7)) == 2
    assert is_visible_int((1, 1, 5, 1), (2, 4, 3, 7))

    runner = CliRunner()
    result = runner.invoke(
        main, ["check", "--b", "2,4,3,7", "--point", "4,16,40,128", "--format", "json"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["visible"] is False
    assert payload["witness_prime"] == 2
    assert payload["image"] == [1, 1, 5, 1]

    back = runner.invoke(
        main, ["check", "--b", "2,4,3,7", "--point", "1,1,5,1", "--format", "json"]
    )
    assert json.loads(back.stdout)["visible"] is True


def test_criterion_9_zeta_certification():
    zeta.cache_clear()  # time a real evaluation, not an earlier test's cached one
    start = time.perf_counter()
    certified = zeta(2, 1e-9)
    elapsed = time.perf_counter() - start
    assert abs(certified.value - math.pi**2 / 6) <= certified.tail_bound <= 1e-9
    assert elapsed < 1.0, f"zeta(2, 1e-9) took {elapsed:.3f}s (budget 1s)"
    for s in (2, 3, 5):
        series = zeta(s, ZETA_TOL).value
        euler = zeta_euler_product(s, 10**5)
        assert abs(euler - series) <= 1e-4, f"s={s}: Euler gap {abs(euler - series):.2e}"
