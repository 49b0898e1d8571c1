"""Exact integer arithmetic primitives.

Prime sieving, trial-division factorization, the Moebius function, exact
integer roots and perfect-power tests.  Everything operates on Python's
arbitrary-precision integers; nothing here goes through floating point,
so results are safe to use at box edges where rounding would corrupt
exact counts.

All functions are pure.  The shared prime cache is only ever replaced by
a strictly larger immutable table, so concurrent readers are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError

# A sieve above this limit would allocate hundreds of MB; callers that
# genuinely need more should raise the budget explicitly.
DEFAULT_SIEVE_BUDGET = 200_000_000

# The Moebius sieve holds an int8 mu, an int32 cofactor array and a bool
# mask at its peak; a Mertens table replaces the cofactors by an int32
# cumulative sum.
SIEVE_BYTES_PER_ENTRY = 6

# Values of M above its table that one Mertens instance may remember.
MERTENS_MEMO_CAP = 1 << 18


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, in ascending order."""

    limit: int
    primes: tuple[int, ...]

    def __iter__(self):
        return iter(self.primes)

    def __len__(self):
        return len(self.primes)


@dataclass(frozen=True)
class Factorization:
    """Canonical factorization ``value = prod(p**m for p, m in factors)``.

    Primes appear in strictly increasing order; ``factors`` is empty for
    ``value == 1``.
    """

    value: int
    factors: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def reconstruct(self) -> int:
        out = 1
        for p, m in self.factors:
            out *= p**m
        return out


def sieve_primes(limit: int, budget: int = DEFAULT_SIEVE_BUDGET) -> PrimeTable:
    """Sieve of Eratosthenes: every prime <= limit.

    Raises ResourceLimitError when the requested table would exceed the
    memory budget (one byte per candidate).
    """
    if limit < 1:
        raise ValueError(f"sieve limit must be >= 1, got {limit}")
    if limit > budget:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds memory budget {budget}", limit=budget
        )
    if limit < 2:
        return PrimeTable(limit, ())
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return PrimeTable(limit, tuple(int(p) for p in np.flatnonzero(is_prime)))


# Shared trial-division table, grown on demand and swapped atomically.
_factor_primes: PrimeTable = sieve_primes(1000)


def _primes_through(limit: int) -> PrimeTable:
    global _factor_primes
    if _factor_primes.limit < limit:
        _factor_primes = sieve_primes(max(limit, 2 * _factor_primes.limit))
    return _factor_primes


def factorize(n: int) -> Factorization:
    """Trial-division factorization of n >= 1."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    value = n
    factors: list[tuple[int, int]] = []
    table = _primes_through(math.isqrt(n) + 1)
    for p in table:
        if p * p > n:
            break
        if n % p == 0:
            mult = 0
            while n % p == 0:
                mult += 1
                n //= p
            factors.append((p, mult))
    if n > 1:
        factors.append((n, 1))
    return Factorization(value, tuple(factors))


def mobius(d: int) -> int:
    """Moebius function: 0 on non-squarefree d, else (-1)**(#prime factors)."""
    if d < 1:
        raise ValueError(f"mobius expects d >= 1, got {d}")
    fact = factorize(d)
    if any(m > 1 for _, m in fact.factors):
        return 0
    return -1 if len(fact.factors) % 2 else 1


def mobius_sieve(limit: int) -> np.ndarray:
    """Moebius values mu[0..limit] as an int8 array (mu[0] = 0).

    Only the primes p <= isqrt(limit) are sieved.  Each flips the sign of
    its multiples, zeroes the multiples of p**2 and is divided out of a
    cofactor array; a squarefree n whose cofactor is still above 1 has
    exactly one prime factor above isqrt(limit), which flips its sign once
    more.  Raises ResourceLimitError before allocating when the arrays
    (SIEVE_BYTES_PER_ENTRY bytes per entry) would exceed
    DEFAULT_SIEVE_BUDGET bytes.
    """
    if limit < 0:
        raise ValueError(f"mobius sieve expects limit >= 0, got {limit}")
    if limit * SIEVE_BYTES_PER_ENTRY > DEFAULT_SIEVE_BUDGET:
        raise ResourceLimitError(
            f"Moebius sieve limit {limit} exceeds memory budget {DEFAULT_SIEVE_BUDGET} "
            f"({SIEVE_BYTES_PER_ENTRY} bytes per entry)",
            limit=DEFAULT_SIEVE_BUDGET // SIEVE_BYTES_PER_ENTRY,
        )
    mu = np.ones(limit + 1, dtype=np.int8)
    # Values stay <= limit, which the budget keeps below 2**31.
    cofactor = np.arange(limit + 1, dtype=np.int32)
    for p in sieve_primes(max(math.isqrt(limit), 1)):
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        cofactor[p::p] //= p
    np.negative(mu, out=mu, where=cofactor > 1)
    mu[0] = 0
    return mu


def mobius_table(limit: int) -> list[int]:
    """Sieved Moebius values mu[0..limit] (mu[0] unused, set to 0)."""
    if limit < 0:
        raise ValueError(f"mobius_table expects limit >= 0, got {limit}")
    return mobius_sieve(limit).tolist()


class Mertens:
    """The Mertens function M(x) = mu(1) + ... + mu(x) for 0 <= x <= table_limit**2.

    M is tabulated by a Moebius sieve up to ``table_limit``, and ``mu``
    keeps the sieved values for callers that also need mu(d).  Above the
    table the identity sum_{d=1..x} M(x // d) = 1 is solved for M(x),
    grouping the d that share a quotient (Deleglise & Rivat, "Computing the
    summation of the Moebius function", Experimental Math. 5(4), 1996);
    the results are memoized.  Raises ResourceLimitError before allocating
    when the table would exceed the sieve budget, and when the memo would
    pass MERTENS_MEMO_CAP entries.
    """

    def __init__(self, table_limit: int):
        self.table_limit = table_limit
        self.mu = mobius_sieve(table_limit)
        # |M(x)| <= x <= table_limit, so int32 is exact; summing in place
        # keeps the peak at the sieve's own.
        self.table = self.mu.astype(np.int32)
        np.cumsum(self.table, out=self.table)
        self._memo: dict[int, int] = {}

    def __call__(self, x: int) -> int:
        if x <= self.table_limit:
            if x < 0:
                raise ValueError(f"Mertens expects x >= 0, got {x}")
            return int(self.table[x])
        value = self._memo.get(x)
        if value is None:
            value = self._above_table(x)
        return value

    def _above_table(self, x: int) -> int:
        # With r = isqrt(x): 1 = sum_{d <= x // (r+1)} M(x // d)
        #                      + sum_{v <= r} #{d : x // d = v} * M(v).
        r = math.isqrt(x)
        if r > self.table_limit:
            raise ValueError(f"Mertens argument {x} above table_limit**2")
        table = self.table
        v = np.arange(1, r + 1, dtype=np.int64)
        total = 1 - int((x // v - x // (v + 1)) @ table[1 : r + 1])
        big = x // (r + 1)
        split = min(big, x // (self.table_limit + 1))
        for d in range(2, split + 1):
            total -= self(x // d)
        d = np.arange(split + 1, big + 1, dtype=np.int64)
        total -= int(table[x // d].sum(dtype=np.int64))
        if len(self._memo) >= MERTENS_MEMO_CAP:
            raise ResourceLimitError(
                f"Mertens memo would pass {MERTENS_MEMO_CAP} entries", limit=MERTENS_MEMO_CAP
            )
        self._memo[x] = total
        return total


def iroot(x: int, k: int) -> int:
    """Exact floor k-th root of x >= 0 via Newton's method on integers."""
    if x < 0 or k < 1:
        raise ValueError(f"iroot needs x >= 0 and k >= 1, got ({x}, {k})")
    if k == 1 or x in (0, 1):
        return x
    if k == 2:
        return math.isqrt(x)
    # Newton iteration from a slight overestimate converges downward.
    r = 1 << ((x.bit_length() + k - 1) // k + 1)
    while True:
        nxt = ((k - 1) * r + x // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    # Newton's floor arithmetic can land one off; correct exactly.
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def floor_root(n: int, a: int, alpha: int) -> int:
    """Largest m with m**alpha <= n**a, i.e. floor(n**(a/alpha)), exactly.

    Requires n >= 1 and 1 <= a <= alpha.  Never touches floating point:
    a float pow at a box edge can be off by one and silently corrupt
    an exact count.
    """
    if n < 1:
        raise ValueError(f"floor_root expects n >= 1, got {n}")
    if not 1 <= a <= alpha:
        raise ValueError(f"floor_root expects 1 <= a <= alpha, got a={a}, alpha={alpha}")
    if a == alpha:
        return n
    return iroot(n**a, alpha)


def is_perfect_power(n: int, c: int) -> tuple[bool, int | None]:
    """Is n an exact c-th power?  Returns (True, root) or (False, None)."""
    if n < 1 or c < 1:
        raise ValueError(f"is_perfect_power expects n >= 1 and c >= 1, got ({n}, {c})")
    root = iroot(n, c)
    if root**c == n:
        return True, root
    return False, None
