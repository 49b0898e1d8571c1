"""Exact integer arithmetic primitives.

Prime sieving, factorization, the Moebius function, exact integer roots
and perfect-power tests.  Everything operates on Python's
arbitrary-precision integers; nothing here goes through floating point,
so results are safe to use at box edges where rounding would corrupt
exact counts.

``factorize`` is pure Python: trial division by the primes below 1000, a
perfect-power split, deterministic Miller-Rabin and Pollard-Brent rho.  It
never guesses: a factor rho cannot find within its step budget, or a
probable prime too large for the Miller-Rabin bases to certify, raises
ResourceLimitError.  Only the sieves (``sieve_primes``, ``mobius_sieve``,
``Mertens``) build numpy arrays, and they import numpy when called, so the
predicates run without it.

All functions are pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import ResourceLimitError

if TYPE_CHECKING:
    import numpy

# A sieve above this limit would allocate hundreds of MB; callers that
# genuinely need more should raise the budget explicitly.
DEFAULT_SIEVE_BUDGET = 200_000_000

# The Moebius sieve holds an int8 mu, an int32 cofactor array and a bool
# mask at its peak; a Mertens table replaces the cofactors by an int32
# cumulative sum.
SIEVE_BYTES_PER_ENTRY = 6

# Values of M above its table that one Mertens instance may remember.
MERTENS_MEMO_CAP = 1 << 18


def _primes_below(n: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes on a bytearray, for tables built at import."""
    is_prime = bytearray([1]) * n
    is_prime[:2] = bytes(2)
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(itertools.compress(range(n), is_prime))


_TRIAL_PRIMES = _primes_below(1000)
# A cofactor left by trial division has no prime factor below 1000, so
# below 1000**2 it is prime.
_TRIAL_SQUARE = 1000**2
# Miller-Rabin with the 13 prime bases 2..41 is exact below this bound
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017).
_MR_BASES = _TRIAL_PRIMES[:13]
MR_EXACT_LIMIT = 3_317_044_064_679_887_385_961_981
# Pollard-Brent steps one factorize call may spend, over all splits and
# restarts.  A step on a modulus of w 64-bit words is charged w**2 // 4
# steps (at least one), about what its modular products cost relative to
# 128 bits, so a refusal costs the same at any size: about 1.6 s on a
# 2-vCPU x86-64 VM with CPython 3.11, where a 128-bit step takes ~0.8 us.
RHO_STEP_BUDGET = 1 << 21
# Rho multiplies this many differences together between gcds.
_RHO_BATCH = 128


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
    import numpy as np

    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return PrimeTable(limit, tuple(int(p) for p in np.flatnonzero(is_prime)))


def factorize(n: int) -> Factorization:
    """Prime factorization of n >= 1.

    Trial division by the primes below 1000 comes first; what is left has
    only larger prime factors and goes to ``_factor_cofactor``.  Raises
    ResourceLimitError when that cofactor cannot be split or certified.
    """
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    value = n
    factors: list[tuple[int, int]] = []
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            mult = 0
            while n % p == 0:
                mult += 1
                n //= p
            factors.append((p, mult))
    if n >= _TRIAL_SQUARE:
        factors += _factor_cofactor(n)
    elif n > 1:
        factors.append((n, 1))
    return Factorization(value, tuple(factors))


def _factor_cofactor(n: int) -> list[tuple[int, int]]:
    """Sorted (prime, multiplicity) pairs of n, which has no prime factor below 1000.

    Each part is first reduced to the base of its largest perfect power;
    a base that passes Miller-Rabin is prime when it is below
    MR_EXACT_LIMIT, and a composite base is split by Pollard-Brent rho.
    """
    found: dict[int, int] = {}
    remaining = RHO_STEP_BUDGET
    parts = [(n, 1)]
    while parts:
        m, mult = parts.pop()
        m, power = _perfect_power_base(m)
        mult *= power
        if m < _TRIAL_SQUARE or _is_strong_probable_prime(m):
            if m >= MR_EXACT_LIMIT:
                raise ResourceLimitError(
                    f"cannot certify a {m.bit_length()}-bit probable prime: Miller-Rabin "
                    f"with the bases 2..41 is exact only below {MR_EXACT_LIMIT}",
                    limit=MR_EXACT_LIMIT,
                )
            found[m] = found.get(m, 0) + mult
            continue
        d, remaining = _pollard_brent(m, remaining)
        parts += [(d, mult), (m // d, mult)]
    return sorted(found.items())


def _perfect_power_base(m: int) -> tuple[int, int]:
    """(r, k) with m = r**k and k largest, for m without prime factors below 1000."""
    k = 1
    for q in _TRIAL_PRIMES:
        # r > 1000 whenever r**q = m with r > 1
        if 1000**q > m:
            break
        while True:
            ok, root = is_perfect_power(m, q)
            if not ok:
                break
            m, k = root, k * q
    return m, k


def _is_strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..41, for odd n > 41."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, remaining: int) -> tuple[int, int]:
    """A proper factor of the odd composite n and the steps left after finding it.

    Brent's cycle-finding variant of Pollard's rho on y -> y**2 + c (R. P.
    Brent, "An improved Monte Carlo factorization algorithm", BIT 20,
    1980), restarted with the next c whenever a gcd collapses to n.  Raises
    ResourceLimitError once more than ``remaining`` steps would be spent.
    """
    words = -(-n.bit_length() // 64)
    cost = max(1, words * words // 4)

    def spend(steps: int) -> None:
        nonlocal remaining
        remaining -= steps * cost
        if remaining < 0:
            raise ResourceLimitError(
                f"cannot split a {n.bit_length()}-bit composite within "
                f"{RHO_STEP_BUDGET} Pollard-Brent steps",
                limit=RHO_STEP_BUDGET,
            )

    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            spend(r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(_RHO_BATCH, r - k)
                spend(batch)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            # The batch's product hit 0 mod n: retrace it one difference at a time.
            spend(_RHO_BATCH)
            while True:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
                if g > 1:
                    break
        if g != n:
            return g, remaining


def mobius(d: int) -> int:
    """Moebius function: 0 on non-squarefree d, else (-1)**(#prime factors)."""
    if d < 1:
        raise ValueError(f"mobius expects d >= 1, got {d}")
    fact = factorize(d)
    if any(m > 1 for _, m in fact.factors):
        return 0
    return -1 if len(fact.factors) % 2 else 1


def mobius_sieve(limit: int) -> numpy.ndarray:
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
    need = limit * SIEVE_BYTES_PER_ENTRY
    if need > DEFAULT_SIEVE_BUDGET:
        raise ResourceLimitError(
            f"Moebius sieve limit {limit} needs {need} bytes ({SIEVE_BYTES_PER_ENTRY} per entry), "
            f"which exceeds memory budget {DEFAULT_SIEVE_BUDGET} bytes",
            limit=DEFAULT_SIEVE_BUDGET // SIEVE_BYTES_PER_ENTRY,
        )
    import numpy as np

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
        import numpy as np

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
        import numpy as np

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
