"""Exact integer arithmetic primitives.

Prime sieving, factorization, the Moebius function, exact integer roots
and perfect-power tests.  Everything operates on Python's
arbitrary-precision integers; nothing here goes through floating point,
so results are safe to use at box edges where rounding would corrupt
exact counts.

``prime_divisors`` walks the primes of n lazily: trial division by the
primes below 1000, then, only if the caller reads on, a perfect-power
split, deterministic Miller-Rabin and Pollard-Brent rho on the cofactor.
``factorize`` counts multiplicities along it.  Neither guesses: a factor
rho cannot find within its step budget, or a probable prime too large
for the Miller-Rabin bases to certify, raises ResourceLimitError.

``sieve_primes`` and ``_iter_primes`` are pure Python: an odd-only
bytearray sieve walked one fixed-size window at a time, so a prime walk
holds about 0.6 MB at any limit.  Only the primes become ints: ``compress``
picks a prime's offset from a tuple built once per walk, and one addition
makes the prime.  The Euler product and the grid marker walk
``_iter_primes`` and never hold the primes as a tuple of ints; the Moebius
sieve keeps the primes up to the square root of its limit, which every
window reads.  Sieved mu has one form, the windows of
``mobius_windows``: MOBIUS_WINDOW signed bytes each, sieved with bytes
operations when the caller reaches it.  ``mobius_table`` joins them into
a list, and ``Mertens`` sums them window by window into its table of M,
so no full-length buffer of mu is ever held.  The table has one form at
every size, an int32 ``array``.  numpy is imported only to fill and sum
a table of PURE_SIEVE_LIMIT entries or more, through a view of the same
array, so the predicates, prime sieves and sums without a tail never
load it, and ``array`` is imported only when a table is built.

All functions are pure.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from typing import Iterator

from .errors import ResourceLimitError

# A prime walk past this limit is refused; it holds one window, so the limit
# bounds its time (about 5 s on a 2-vCPU x86-64 VM).  A Moebius sieve or
# Mertens table is refused when its arrays would pass this many bytes.
DEFAULT_SIEVE_BUDGET = 200_000_000

# Odd candidates per window of the prime sieve, one byte each: 256 KB.
PRIME_SEGMENT = 1 << 18
# Odd candidates per chunk of a window that the prime walk hands out at once.
PRIME_CHUNK = 1 << 12

# Bytes per entry that a Moebius sieve is charged against
# DEFAULT_SIEVE_BUDGET.  A Mertens table holds an int32 of M per entry at
# every size, and a walk of the windows holds one window, but the charge
# stays 6, and with it the limits that the refusal messages quote: it
# bounds a walk's time and keeps every log sum of the window sieve below
# its marker byte (see ``mobius_windows``).
SIEVE_BYTES_PER_ENTRY = 6

# Values of mu per window of the Moebius walk, one byte each: 128 KB.
MOBIUS_WINDOW = 1 << 17
# A window's slices are translated this many bytes at a time, so each copy
# a translation makes stays at 16 KB, where a whole slice for p = 2 took
# 64 KB.  Pieces of 1 KB made the walk to 9.3e6 slower (best of 15: 90 ms
# against 74 ms).
MOBIUS_PIECE = 1 << 14
# Entries of M that a pure-Python table fill turns into ints at a time: a
# few tens of KB of ints and pointers.
_FILL_CHUNK = 1 << 10

# Mertens tables below this limit are filled and summed in plain Python,
# without importing numpy (about 0.1 s and 14 MB of start-up); from here on
# through a numpy view of the same int32 array.  Measured end to end on
# `bvis density --b 1,1` (median CPU of 10 alternating runs, 2-vCPU x86-64
# VM), plain Python wins at 6.8e5 entries (N = 2e8: 0.271 s against 0.284 s),
# the two tie near 7.9e5 (N = 2.5e8: 0.336 s against 0.326 s), and numpy
# wins from 9.0e5 on (N = 3e8: 0.306 s against 0.343 s).  While the
# pure-Python tables were lists of ints, the tie was near 4.3e5.
PURE_SIEVE_LIMIT = 800_000


def sieve_primes(limit: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes: every prime <= limit, ascending.

    Raises ResourceLimitError when ``limit`` exceeds DEFAULT_SIEVE_BUDGET.
    """
    return tuple(_iter_primes(limit))


def _check_sieve_limit(limit: int) -> None:
    """Refuse a prime sieve limit below 1 or above DEFAULT_SIEVE_BUDGET."""
    if limit < 1:
        raise ValueError(f"sieve limit must be >= 1, got {limit}")
    if limit > DEFAULT_SIEVE_BUDGET:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds memory budget {DEFAULT_SIEVE_BUDGET}"
        )


def _iter_primes(limit: int) -> Iterator[int]:
    """The primes <= limit in ascending order, sieved one window at a time.

    A segmented sieve of Eratosthenes (Bays & Hudson, "The segmented sieve
    of Eratosthenes and primes in arithmetic progressions to 10**12", BIT
    17, 1977) over the odd numbers: the odd primes up to isqrt(limit) are
    sieved first, by this same walk, and then each window of PRIME_SEGMENT
    odd candidates, one byte each, has every such prime's multiples cleared
    with one slice assignment from a zero buffer.  A window is sieved only
    when the caller reaches it, so memory stays at one window and the base
    primes whatever the limit.  An int is made only for each prime,
    not for each candidate (see ``_odd_prime_windows``).  The limit is
    checked before anything is allocated.
    """
    _check_sieve_limit(limit)
    if limit < 2:
        return iter(())
    base = tuple(_iter_primes(math.isqrt(limit)))[1:]
    return itertools.chain((2,), itertools.chain.from_iterable(_odd_prime_windows(limit, base)))


def _odd_prime_windows(limit: int, base: tuple[int, ...]) -> Iterator[Iterator[int]]:
    """The odd primes <= limit, one iterator per chunk of PRIME_CHUNK odd candidates.

    ``base`` holds the odd primes up to isqrt(limit), ascending.  The
    windows of PRIME_SEGMENT odd candidates are sieved one at a time and
    handed out in chunks: a chunk's primes are its first candidate plus the
    even offsets that ``compress`` picks from one tuple, built once per walk,
    so ints are made only for primes, not for every candidate.
    """
    segment, chunk = PRIME_SEGMENT, PRIME_CHUNK
    # odd index i stands for 2 * i + 1
    size = (limit + 1) // 2
    offsets = tuple(range(0, 2 * min(chunk, size), 2))
    # p = 3 clears the most bytes of a window
    zeros = memoryview(bytes(min(segment, size) // 3 + 1))
    for lo in range(0, size, segment):
        hi = min(lo + segment, size)
        block = bytearray(b"\1") * (hi - lo)
        for p in base:
            # p**2 is the first multiple left to clear, and its index is p // 2 mod p
            start = p * p // 2
            if start >= hi:
                break
            if start < lo:
                start = lo + (p // 2 - lo) % p
            block[start - lo :: p] = zeros[: (hi - 1 - start) // p + 1]
        if lo == 0:
            block[0] = 0
        for i in range(0, hi - lo, chunk):
            first = itertools.repeat(2 * (lo + i) + 1)
            yield map(operator.add, itertools.compress(offsets, block[i : i + chunk]), first)
        del block  # before the next window is sieved


_TRIAL_PRIMES = sieve_primes(999)
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


def prime_divisors(n: int) -> Iterator[int]:
    """The distinct primes of n >= 1, ascending, each found when the caller reads on.

    The primes below 1000 come first, by trial division; the cofactor they
    leave goes to ``_factor_cofactor`` only if the walk gets past them.
    """
    if n < 1:
        raise ValueError(f"factorization expects n >= 1, got {n}")
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            yield p
            while n % p == 0:
                n //= p
    if n >= _TRIAL_SQUARE:
        yield from _factor_cofactor(n)
    elif n > 1:
        yield n


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1: its (prime, multiplicity) pairs.

    The primes ascend, and n = 1 has none.  They come from
    ``prime_divisors``, and so do its ValueError and ResourceLimitError.
    """
    factors = []
    for p in prime_divisors(n):
        mult = 0
        while n % p == 0:
            mult += 1
            n //= p
        factors.append((p, mult))
    return tuple(factors)


def _factor_cofactor(n: int) -> list[int]:
    """The distinct primes of n, ascending, for n without prime factors below 1000.

    Each part is first reduced to the base of its largest perfect power;
    a base that passes Miller-Rabin is prime when it is below
    MR_EXACT_LIMIT, and a composite base is split by Pollard-Brent rho.
    """
    found = set()
    remaining = RHO_STEP_BUDGET
    parts = [n]
    while parts:
        m = _perfect_power_base(parts.pop())
        if m < _TRIAL_SQUARE or _is_strong_probable_prime(m):
            if m >= MR_EXACT_LIMIT:
                raise ResourceLimitError(
                    f"cannot certify a {m.bit_length()}-bit probable prime: Miller-Rabin "
                    f"with the bases 2..41 is exact only below {MR_EXACT_LIMIT}"
                )
            found.add(m)
            continue
        d, remaining = _pollard_brent(m, remaining)
        parts += [d, m // d]
    return sorted(found)


def _perfect_power_base(m: int) -> int:
    """The r with m = r**k and k largest, for m without prime factors below 1000."""
    for q in _TRIAL_PRIMES:
        # r > 1000 whenever r**q = m with r > 1
        if 1000**q > m:
            break
        while (root := iroot(m, q)) ** q == m:
            m = root
    return m


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
                f"{RHO_STEP_BUDGET} Pollard-Brent steps"
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
    """Moebius function: 0 on non-squarefree d, else (-1)**(#prime factors).

    Not exported: the pointwise reference the tests check the mu windows against."""
    if d < 1:
        raise ValueError(f"mobius expects d >= 1, got {d}")
    factors = factorize(d)
    if any(m > 1 for _, m in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def mobius_windows(limit: int) -> Iterator[memoryview]:
    """Moebius values mu[0..limit] (mu[0] = 0) in consecutive windows, lowest first.

    Each window holds MOBIUS_WINDOW signed bytes (format 'b', the last one
    fewer), sieved on its own with bytes operations when the caller reaches
    it, so memory stays at one window and the primes up to r = isqrt(limit).
    While it is sieved, bit 7 of n's byte holds a sign and bits 0-6 the log
    sum of n, the weights c_p = round(4 * log2(p)) of its primes p <= r:
    each such p adds 0x80 + c_p to its multiples with one ``translate``, and
    writes the marker 0xFF, which every table keeps, on the multiples of
    p**2.  The weights of w distinct primes sum to within w / 2 of 4 * log2
    of their product, which is at least 2**w.  A squarefree n <= limit <
    (r + 1)**2 has at most one prime factor q above r.  Without one, its log
    sum is at least 4 * log2(n) - w / 2 >= 4 * log2(n) - 2 * log2(r + 1);
    with one, n / q < r + 1 and the log sum is at most 4 * log2(n / q) +
    w / 2 < 4 * log2(n) - 2 * log2(r + 1).  So the least t >= 0 with
    n**4 <= 2**t * (r + 1)**2 splits the two cases in exact integers, and
    over each run of n that shares t one ``translate`` maps the bytes to mu.
    The marker is never a sum: below the budget's limit of about 3.3e7, n
    has w <= 8 primes and a log sum of at most 4 * log2(n) + w / 2 < 104.
    The limit is checked when this is called, before anything is allocated.
    """
    if limit < 0:
        raise ValueError(f"mobius sieve expects limit >= 0, got {limit}")
    need = limit * SIEVE_BYTES_PER_ENTRY
    if need > DEFAULT_SIEVE_BUDGET:
        raise ResourceLimitError(
            f"Moebius sieve limit {limit} needs {need} bytes ({SIEVE_BYTES_PER_ENTRY} per entry), "
            f"which exceeds memory budget {DEFAULT_SIEVE_BUDGET} bytes"
        )
    r = math.isqrt(limit)
    weights = [(p, _log_weight(p)) for p in sieve_primes(max(r, 1))]
    ident = bytes(range(256))
    # byte b to b + 0x80 + c mod 256, but the marker 0xFF to itself
    adds = {c: ident[0x80 + c :] + ident[: 0x7F + c] + b"\xff" for _, c in weights}
    step = MOBIUS_WINDOW
    windows = range(0, limit + 1, step)
    return (_mobius_window(lo, min(lo + step, limit + 1), r, weights, adds) for lo in windows)


def _log_weight(p: int) -> int:
    """round(4 * log2(p)), exactly: p**8 has floor(8 * log2(p)) + 1 bits."""
    return (p**8).bit_length() // 2


def _mobius_window(lo: int, hi: int, r: int, weights, adds) -> memoryview:
    """mu[lo..hi-1] as signed bytes, for hi - 1 <= limit and r = isqrt(limit) (see ``mobius_windows``).

    Slices are translated MOBIUS_PIECE values at a time, so the copies a
    translation makes stay at two pieces.
    """
    size = hi - lo
    sums = bytearray(size)
    marks = memoryview(b"\xff" * (size // 4 + 1))
    for p, c in weights:
        # -lo % q is the offset of the first multiple of q at or above lo
        span = p * MOBIUS_PIECE
        for a in range(-lo % p, size, span):
            sums[a : a + span : p] = sums[a : a + span : p].translate(adds[c])
        q = p * p
        start = -lo % q
        sums[start::q] = marks[: (size - 1 - start) // q + 1]
    square = (r + 1) ** 2
    n = max(lo, 1)
    while n < hi:
        # t for n, then the first n past the run that shares it
        t = (-(-(n**4) // square) - 1).bit_length()
        end = min(hi, math.isqrt(math.isqrt(square << t)) + 1)
        # a log sum below t has a prime factor above r; the marker is 0
        table = b"\xff" * t + b"\1" * (0x80 - t) + b"\1" * t + b"\xff" * (0x7F - t) + b"\0"
        for a in range(n - lo, end - lo, MOBIUS_PIECE):
            b = min(a + MOBIUS_PIECE, end - lo)
            sums[a:b] = sums[a:b].translate(table)
        n = end
    if lo == 0:
        sums[0] = 0
    return memoryview(sums).cast("b")


def mobius_table(limit: int) -> list[int]:
    """Sieved Moebius values mu[0..limit] (mu[0] unused, set to 0)."""
    return list(itertools.chain.from_iterable(mobius_windows(limit)))


class Mertens:
    """The Mertens function M(x) = mu(1) + ... + mu(x) for 0 <= x <= table_limit**2.

    M is tabulated up to ``table_limit`` by summing the windows of
    ``mobius_windows`` one at a time; mu itself is not kept.  A sum without
    a tail builds no Mertens at all.  Above the table the identity
    sum_{d=1..x} M(x // d) = 1 is solved for M(x), grouping the d that
    share a quotient (Deleglise & Rivat, "Computing the summation of the
    Moebius function", Experimental Math. 5(4), 1996); the results are
    memoized, at most ``counting.plan``'s memo bound of them for a box
    sum.  The table is one int32 ``array``, 4 bytes per entry at every
    size, allocated once and filled in place window by window; a window is
    dropped before the next one is sieved.  Below PURE_SIEVE_LIMIT it is
    filled and summed in plain Python, _FILL_CHUNK entries at a time; from
    there on through a numpy view of the same buffer.  A table past the
    sieve budget raises ResourceLimitError before anything is allocated.
    """

    def __init__(self, table_limit: int):
        from array import array

        self.table_limit = table_limit
        windows = mobius_windows(table_limit)
        # |M(x)| <= x <= table_limit, so int32 is exact
        self.table = table = array("i", [0]) * (table_limit + 1)
        lo = carry = 0
        if table_limit < PURE_SIEVE_LIMIT:
            for window in windows:
                for start in range(0, len(window), _FILL_CHUNK):
                    sums = list(itertools.accumulate(window[start : start + _FILL_CHUNK], initial=carry))
                    del sums[0]  # the carry, M(lo - 1)
                    carry = sums[-1]
                    # packed straight into the table: building an array of
                    # the sums first took about twice as long
                    struct.pack_into(f"{len(sums)}i", table, 4 * lo, *sums)
                    lo += len(sums)
                del window, sums  # before the next window is sieved
        else:
            import numpy as np

            self._view = view = np.frombuffer(table, dtype=np.int32)
            for window in windows:
                part = view[lo : lo + len(window)]
                # cast in place: a cumsum that casts int8 to int32 holds a
                # cast copy of the whole window
                part[:] = np.frombuffer(window, dtype=np.int8)
                part[0] += carry
                np.cumsum(part, out=part)
                carry = int(part[-1])
                lo += len(window)
                del window, part  # before the next window is sieved
        self._memo: dict[int, int] = {}

    def __call__(self, x: int) -> int:
        if x <= self.table_limit:
            if x < 0:
                raise ValueError(f"Mertens expects x >= 0, got {x}")
            return self.table[x]
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
        big = x // (r + 1)
        split = min(big, x // (self.table_limit + 1))
        total = 1 - self._table_terms(x, r, split, big)
        for d in range(2, split + 1):
            total -= self(x // d)
        self._memo[x] = total
        return total

    def _table_terms(self, x: int, r: int, split: int, big: int) -> int:
        """The identity's terms read from the table: v <= r, and split < d <= big.

        The terms for v <= r are summed by parts, as sum_{v <= r} (x // v) *
        mu(v) - (x // (r+1)) * M(r), with mu(v) = M(v) - M(v - 1) read from
        the table.
        """
        table = self.table
        boundary = x // (r + 1) * table[r]
        if self.table_limit < PURE_SIEVE_LIMIT:
            quotients = map(operator.floordiv, itertools.repeat(x), range(1, r + 1))
            mu = map(operator.sub, table[1 : r + 1], table[:r])
            far = sum(table[x // d] for d in range(split + 1, big + 1))
            return sum(map(operator.mul, quotients, mu)) - boundary + far
        import numpy as np

        view = self._view
        quotients = np.arange(1, r + 1, dtype=np.int64)
        np.floor_divide(x, quotients, out=quotients)
        d = np.arange(split + 1, big + 1, dtype=np.int64)
        np.floor_divide(x, d, out=d)
        return int(quotients @ np.diff(view[: r + 1])) - boundary + int(view[d].sum(dtype=np.int64))


def iroot(x: int, k: int) -> int:
    """Exact floor k-th root of x >= 0 via Newton's method on integers."""
    if x < 0 or k < 1:
        raise ValueError(f"iroot needs x >= 0 and k >= 1, got ({x}, {k})")
    if k == 1 or x in (0, 1):
        return x
    if k == 2:
        return math.isqrt(x)
    if x.bit_length() <= k:
        # x < 2**k; Newton would build r**(k-1), millions of digits for huge k
        return 1
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
