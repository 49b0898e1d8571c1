import bisect
import itertools
import math
import types
from fractions import Fraction

import pytest

import bvis
from bvis._kernels import zeta_partial_sum
from bvis.arith import DEFAULT_SIEVE_BUDGET, iroot, sieve_primes
from bvis.errors import ResourceLimitError
from bvis.zeta import MIN_TOL, inv_zeta, zeta, zeta_euler_product

PI2_OVER_6 = math.pi**2 / 6

# zeta(s) to 28 significant digits.
ZETA = {
    2: Fraction("1.644934066848226436472415167"),
    3: Fraction("1.202056903159594285399738162"),
    4: Fraction("1.082323233711138191516003697"),
    5: Fraction("1.036927755143369926331365486"),
}


def test_zeta2_enclosure_at_coarse_tol():
    zv = zeta(2, 1e-6)
    assert zv.tail_bound <= 1e-6
    assert abs(zv.value - PI2_OVER_6) <= zv.tail_bound
    # The enclosure holds exactly, not just in floats.  (value < pi**2/6 cannot
    # hold: pi**2/6 is itself the largest double below zeta(2).)
    for s, exact in ZETA.items():
        zv = zeta(s, 1e-6)
        assert Fraction(zv.value) <= exact <= Fraction(zv.value) + Fraction(zv.tail_bound)


def test_package_name_zeta_is_the_module():
    assert isinstance(bvis.zeta, types.ModuleType)
    assert bvis.zeta.zeta(2, 1e-6) == zeta(2, 1e-6)


def test_zeta_value_at_least_one():
    for s in range(2, 12):
        zv = zeta(s, 1e-8)
        assert zv.value >= 1.0
        assert zv.tail_bound >= 0.0


def test_zeta_large_s_dominated_by_first_terms():
    zv = zeta(20, 1e-12)
    assert 1.0 < zv.value < 1.0 + 2 * 2.0**-20


def test_inv_zeta_reference_values():
    # 6/pi^2 and high-precision series values
    assert abs(inv_zeta(2) - 0.6079271018540267) < 1e-8
    assert abs(inv_zeta(3) - 0.8319073725807075) < 1e-8
    assert abs(inv_zeta(5) - 0.9643873404292624) < 1e-8


def test_inv_zeta_strictly_increasing():
    values = [inv_zeta(s) for s in range(2, 11)]
    assert all(0 < v <= 1 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_euler_product_single_factor():
    assert abs(zeta_euler_product(2, 2) - 4 / 3) < 1e-15


def test_euler_product_empty():
    assert zeta_euler_product(5, 1) == 1.0
    # Every factor is 1.0 from s = 57 on, so none is evaluated, even past float range.
    assert zeta_euler_product(10**400, 10**6) == 1.0


def test_euler_product_monotone_and_below_series():
    for s in [2, 3, 5]:
        series = zeta(s, 1e-9 if s == 2 else 1e-12).value
        previous = 0.0
        for prime_limit in [2, 3, 10, 100, 10_000]:
            value = zeta_euler_product(s, prime_limit)
            assert value >= previous
            previous = value
        # the finite product misses only factors > 1
        assert previous <= series + 1e-12


def test_euler_product_close_to_series():
    for s in [2, 3, 5]:
        series = zeta(s, 1e-9 if s == 2 else 1e-12).value
        assert abs(zeta_euler_product(s, 10**5) - series) <= 1e-4


def test_euler_product_runs_over_the_prime_table():
    product = 1.0
    for p in sieve_primes(10**6):
        product /= 1.0 - float(p) ** -3
    assert zeta_euler_product(3, 10**6) == product


def _euler_cut_limits(s, primes):
    """P - 1, P and P + 1 for P = iroot(2**56, floor(s)) + 1, and the primes next to P."""
    first_one = iroot(2**56, math.floor(s)) + 1  # P: from here on every factor is 1.0
    i = bisect.bisect_left(primes, first_one)
    return {first_one - 1, first_one, first_one + 1, *primes[max(i - 2, 0) : i + 2]} - {0}


@pytest.mark.parametrize("s", [3, 4, 5, 6, 7, 8, 63, 64, 100, 3.5])
def test_euler_product_is_bit_identical_across_the_cut(s):
    primes = sieve_primes(iroot(2**56, 3) + 100)
    for limit in sorted(_euler_cut_limits(s, primes)):
        product = 1.0
        for p in itertools.takewhile(lambda p: p <= limit, primes):
            product /= 1.0 - float(p) ** -s
        assert zeta_euler_product(s, limit).hex() == product.hex(), (s, limit)


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6, 2.5])
def test_euler_product_is_bit_identical_to_the_plain_loop(s):
    # the product divides by 1 - p**-s prime by prime, in ascending order
    primes = sieve_primes(10**6)
    for limit in (1, 2, 3, 1000, 99991, 10**6):
        product = 1.0
        for p in itertools.takewhile(lambda p: p <= limit, primes):
            product /= 1.0 - float(p) ** (-s)
        assert zeta_euler_product(s, limit).hex() == product.hex(), (s, limit)


def test_euler_product_s2_cut_lies_past_the_sieve_budget():
    # s = 2's P is 2**28 + 1, so every limit next to it is refused.
    first_one = iroot(2**56, 2) + 1
    assert first_one > DEFAULT_SIEVE_BUDGET
    for limit in (first_one - 1, first_one, first_one + 1):
        with pytest.raises(ResourceLimitError):
            zeta_euler_product(2, limit)


def test_euler_product_sieves_only_to_the_cut(monkeypatch):
    asked = []

    def record(limit, *args):
        asked.append(limit)
        return iter(())

    monkeypatch.setattr(bvis.zeta, "_iter_primes", record)
    for s in (5, 3, 2):
        zeta_euler_product(s, 10**7)
    assert asked[0] <= 2**12
    assert asked[1] <= 2**19
    assert asked[2] == 10**7


def test_domain_errors():
    with pytest.raises(ValueError):
        zeta(1)
    with pytest.raises(ValueError):
        zeta(2, 0.0)
    with pytest.raises(ValueError):
        zeta(2, 1e-13)
    with pytest.raises(ValueError, match="finite"):
        zeta(2, math.inf)
    with pytest.raises(ValueError):
        zeta_euler_product(1, 100)


def test_tight_tolerances_certified():
    for tol in (2.5e-10, MIN_TOL):
        zv = zeta(2, tol)
        assert zv.tail_bound <= tol
        assert Fraction(zv.value) <= ZETA[2] <= Fraction(zv.value) + Fraction(zv.tail_bound)


@pytest.mark.parametrize("s", range(2, 7))
def test_enclosure_brackets_series_with_integral_tail(s):
    # zeta(s) - sum(n**-s, n <= m) lies between the integrals of x**-s from m+1 and from m.
    m = 10**5
    partial = zeta_partial_sum(s, m)
    below = partial + 1 / ((s - 1) * (m + 1) ** (s - 1))
    above = partial + 1 / ((s - 1) * m ** (s - 1))
    zv = zeta(s, 1e-9)
    assert below - 1e-12 <= zv.value <= above + 1e-12


def test_enclosure_sweep_at_min_tol():
    values = [zeta(s, MIN_TOL) for s in range(2, 61)]
    assert all(zv.tail_bound <= MIN_TOL for zv in values)
    assert all(zv.value >= 1.0 for zv in values)
    assert all(a.value >= b.value for a, b in zip(values, values[1:]))


def test_huge_s_skips_the_exact_sum():
    # Both sides of the switch give 1.0; at s = 1e9 the exact sum would never finish.
    for s in (60, 63, 64, 80, 10**9):
        zv = zeta(s, MIN_TOL)
        assert zv.value == 1.0 and zv.tail_bound <= MIN_TOL
