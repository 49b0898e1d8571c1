import itertools
import math
import operator
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvis import arith
from bvis.arith import (
    DEFAULT_SIEVE_BUDGET,
    factorize,
    iroot,
    is_perfect_power,
    mobius,
    mobius_table,
    mobius_windows,
    prime_divisors,
    sieve_primes,
)
from bvis.errors import ResourceLimitError


def test_sieve_small():
    assert list(sieve_primes(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_sieve_trivial_limits():
    assert list(sieve_primes(1)) == []
    assert list(sieve_primes(2)) == [2]


def test_sieve_prime_counting():
    # pi(1000) = 168 and pi(10**6) = 78498, classical table values
    assert len(sieve_primes(1000)) == 168
    assert len(sieve_primes(10**6)) == 78498


# (PRIME_SEGMENT, PRIME_CHUNK) pairs.  A chunk no shorter than the window
# covers it whole, as the real chunk covers every small window, so only
# shorter chunks are added to the real one; the real one keeps its old ids.
_SIEVE_SIZES = [
    pytest.param(segment, chunk, id=str(segment) if chunk == arith.PRIME_CHUNK else f"{segment}-chunk{chunk}")
    for segment in [1, 2, 7, 64, arith.PRIME_SEGMENT]
    for chunk in [1, 7, arith.PRIME_CHUNK]
    if chunk < segment or chunk == arith.PRIME_CHUNK
]


@pytest.mark.parametrize("segment, chunk", _SIEVE_SIZES)
def test_sieve_matches_trial_division(monkeypatch, segment, chunk):
    # Every limit up to 1000, so each parity of limit and each prime square
    # is an endpoint once.  A window holds 2 * segment numbers: for the
    # small segments the limits end on and next to many window edges, and
    # base primes' squares fall inside later windows, past which each
    # window finds a prime's first multiple from its residue.  A chunk of a
    # window holds 2 * chunk numbers, and its last one may be cut short by
    # the window's end or by the limit.
    monkeypatch.setattr(arith, "PRIME_SEGMENT", segment)
    monkeypatch.setattr(arith, "PRIME_CHUNK", chunk)
    primes = [n for n in range(2, 1001) if all(n % q for q in range(2, math.isqrt(n) + 1))]
    for limit in range(1, 1001):
        assert list(sieve_primes(limit)) == [p for p in primes if p <= limit], (segment, chunk, limit)


def test_prime_walk_to_1e7_stays_under_a_mebibyte():
    # pi(10**7) = 664579; its 5 * 10**6 odd candidates span 20 windows, and
    # the whole-range sieve held a 5 MB bytearray and a 5 MB zero buffer
    # (11.7 MB peak); a window is 256 KB, and one is held at a time: 600 KiB
    # traced, against 771 KiB when the last is held while the next is allocated
    assert -(-(10**7 // 2) // arith.PRIME_SEGMENT) == 20
    tracemalloc.start()
    try:
        count = sum(1 for _ in arith._iter_primes(10**7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 664579
    assert peak < 640 << 10


def test_sieve_budget():
    with pytest.raises(ResourceLimitError):
        sieve_primes(DEFAULT_SIEVE_BUDGET + 1)


def test_factorize_known():
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert factorize(1) == ()
    assert factorize(97) == ((97, 1),)


def test_factorize_reconstructs():
    for n in range(1, 10_001):
        assert math.prod(p**m for p, m in factorize(n)) == n


# Every prime below 2**20: enough to trial-divide any factor below 2**40.
_SMALL_PRIMES = sieve_primes(1 << 20)


def _is_prime_by_trial_division(p: int) -> bool:
    assert p < 1 << 40
    return p > 1 and all(p % q for q in itertools.takewhile(lambda q: q * q <= p, _SMALL_PRIMES))


def _assert_prime_factorization(n: int, factors) -> None:
    primes = [p for p, _ in factors]
    assert math.prod(p**m for p, m in factors) == n
    assert primes == sorted(set(primes))  # strictly increasing
    assert all(m >= 1 for _, m in factors)
    assert all(_is_prime_by_trial_division(p) for p in primes)


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=10**7 - 1))
def test_factorize_property_below_1e7(n):
    factors = factorize(n)
    _assert_prime_factorization(n, factors)
    assert list(prime_divisors(n)) == [p for p, _ in factors]


def test_prime_divisors_yields_a_trial_prime_before_factoring_the_cofactor(monkeypatch):
    def refuse(n):
        raise ResourceLimitError(f"refused {n}")

    monkeypatch.setattr(arith, "_factor_cofactor", refuse)
    walk = prime_divisors(2 * (2**64 - 59) * (2**64 - 83))
    assert next(walk) == 2
    with pytest.raises(ResourceLimitError):
        next(walk)


def test_factorize_strong_pseudoprimes():
    # 561 is a Carmichael number; the others are the smallest strong
    # pseudoprimes to the first 4, 11 and 12 prime bases, so Miller-Rabin
    # needs every base up to 41 to reject the last one.
    expected = {
        561: ((3, 1), (11, 1), (17, 1)),
        3215031751: ((151, 1), (751, 1), (28351, 1)),
        3825123056546413051: ((149491, 1), (747451, 1), (34233211, 1)),
        318665857834031151167461: ((399165290221, 1), (798330580441, 1)),
    }
    for n, factors in expected.items():
        assert factorize(n) == factors
        _assert_prime_factorization(n, factors)


def test_factorize_mersenne_powers_and_pure_powers():
    m31, m61 = 2**31 - 1, 2**61 - 1  # Mersenne primes
    assert factorize(m31 * m61**2 * 97) == ((97, 1), (m31, 1), (m61, 2))
    assert factorize(m61**3) == ((m61, 3),)
    assert factorize(2**200) == ((2, 200),)


def test_factorize_semiprimes_of_27_bit_primes():
    # Trial division needed a 1.3e8-entry sieve for these; rho needs a few
    # thousand steps.
    rng = random.Random(27)

    def prime_27_bits():
        while True:
            p = rng.getrandbits(27) | (1 << 26) | 1
            if _is_prime_by_trial_division(p):
                return p

    for _ in range(50):
        p, q = prime_27_bits(), prime_27_bits()
        expected = ((p, 2),) if p == q else ((min(p, q), 1), (max(p, q), 1))
        assert factorize(p * q) == expected


def test_mobius_first_values():
    # mu(1..16) from the standard table
    expected = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0]
    assert [mobius(d) for d in range(1, 17)] == expected


def test_mobius_multiplicative_on_coprimes():
    for m in range(1, 201):
        for n in range(1, 201):
            if math.gcd(m, n) == 1:
                assert mobius(m * n) == mobius(m) * mobius(n)


def test_mobius_table_matches_pointwise():
    table = mobius_table(500)
    assert table[0] == 0
    for d in range(1, 501):
        assert table[d] == mobius(d)


def test_mobius_windows_at_every_limit_match_pointwise():
    # every limit up to 2000, so every prime square and every run of the
    # threshold that finds a prime factor above isqrt(limit) is passed
    expected = [0] + [mobius(d) for d in range(1, 2001)]
    for limit in range(2001):
        windows = list(mobius_windows(limit))
        assert all(window.format == "b" for window in windows)
        assert list(itertools.chain.from_iterable(windows)) == expected[: limit + 1], limit
        assert mobius_table(limit) == expected[: limit + 1], limit


def test_mobius_windows_to_1e7_frozen():
    mertens = squarefree = 0
    for window in mobius_windows(10**7):
        raw = window.tobytes()
        mertens += raw.count(1) - raw.count(0xFF)
        squarefree += len(raw) - raw.count(0)
    assert mertens == 1037  # OEIS A084237: M(10**7)
    assert squarefree == 6_079_291  # OEIS A071172: squarefree n <= 10**7


def test_negative_mobius_limits_are_refused():
    for sieve in (mobius_windows, mobius_table):
        with pytest.raises(ValueError):
            sieve(-1)


def test_mobius_log_sums_stay_below_the_marker():
    # A window byte keeps a sign in bit 7 and the weights of n's primes up to
    # isqrt(limit) in bits 0-6, and 0xFF marks a square divisor: no sum of
    # weights may reach 0x7F at the largest limit the budget allows.  Each
    # weight is within 1/2 of 4 * log2(p), so the weights of n's w distinct
    # primes sum to at most 4 * log2(n) + w / 2.
    limit = arith.DEFAULT_SIEVE_BUDGET // arith.SIEVE_BYTES_PER_ENTRY
    for p in sieve_primes(math.isqrt(limit)):
        assert abs(arith._log_weight(p) - 4 * math.log2(p)) <= 0.5, p
    primorials = itertools.accumulate(sieve_primes(100), operator.mul)
    most_primes = sum(1 for product in primorials if product <= limit)
    assert 4 * math.log2(limit) + most_primes / 2 < 0x7F


@pytest.mark.parametrize("window", [1, 4, 7, 9, 25, 64])
def test_mobius_windows_match_pointwise(monkeypatch, window):
    # windows whose edges fall inside runs of multiples of 4, 9, 25 and 49,
    # so a window finds a prime's or a square's first multiple from its
    # residue; the windows tile mu[0..limit] and each is sieved on its own
    monkeypatch.setattr(arith, "MOBIUS_WINDOW", window)
    limit = 2000
    windows = list(mobius_windows(limit))
    assert [len(w) for w in windows[:-1]] == [window] * (len(windows) - 1)
    walked = list(itertools.chain.from_iterable(windows))
    assert walked == [0] + [mobius(d) for d in range(1, limit + 1)]
    assert mobius_table(limit) == walked


@pytest.mark.parametrize("piece", [1, 3, 64])
def test_mobius_windows_in_small_pieces_match_pointwise(monkeypatch, piece):
    # each window's slices translated a few bytes at a time, so pieces end
    # inside runs of multiples and inside the runs that share a threshold
    monkeypatch.setattr(arith, "MOBIUS_PIECE", piece)
    limit = 2000
    expected = [0] + [mobius(d) for d in range(1, limit + 1)]
    for window in (64, 1 << 17):
        monkeypatch.setattr(arith, "MOBIUS_WINDOW", window)
        assert mobius_table(limit) == expected, window


@given(st.integers(min_value=0, max_value=10**60), st.integers(min_value=1, max_value=10))
def test_iroot_is_exact_floor(x, k):
    r = iroot(x, k)
    assert r**k <= x
    assert (r + 1) ** k > x


def test_iroot_near_powers():
    for m in [2, 3, 10, 99, 12345]:
        for k in [2, 3, 5, 7]:
            assert iroot(m**k, k) == m
            assert iroot(m**k - 1, k) == m - 1
            assert iroot(m**k + 1, k) == m


def test_is_perfect_power_examples():
    assert is_perfect_power(64, 3) == (True, 4)
    assert is_perfect_power(17, 1) == (True, 17)
    assert is_perfect_power(40, 2) == (False, None)


def test_is_perfect_power_vs_exhaustive():
    limit = 100_000
    for c in range(2, 8):
        powers = {m**c: m for m in range(1, iroot(limit, c) + 1)}
        for n in range(1, limit + 1):
            ok, root = is_perfect_power(n, c)
            if n in powers:
                assert ok and root == powers[n]
            else:
                assert not ok and root is None
