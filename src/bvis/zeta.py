"""Riemann zeta values for integer s >= 2, with certified error bounds.

zeta(s) is evaluated by Euler–Maclaurin summation in exact rationals: the
head sum over n < N, the integral term N**(1-s)/(s-1), the half term
N**-s/2 and M Bernoulli correction terms.  For real s > 1 the remainder is
bounded in absolute value by the first omitted correction term (Edwards,
*Riemann's Zeta Function* §6.4; Johansson, arXiv:1309.2877), which gives a
rational enclosure [lo, hi] about 1e-26 wide at s = 2.  That enclosure is
then widened outward to doubles, so [value, value + tail_bound] genuinely
contains zeta(s).  The Euler product over primes serves as an independent
cross-check; it approaches zeta(s) from below as the prime limit grows.
Its float value stops changing at a prime cut that depends on s alone:
past iroot(2**56, floor(s)) every factor 1/(1 - p**-s) rounds to exactly
1.0, so the product sieves and multiplies only the primes up to the cut
(about 4e5 at s = 3, 2.4e3 at s = 5) and is bit-identical to the full one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache
from typing import NamedTuple

from .arith import _check_sieve_limit, _iter_primes, iroot

# Below this tolerance double precision can no longer back the certificate.
MIN_TOL = 1e-12
# Euler–Maclaurin split point and number of Bernoulli correction terms.
_EM_N = 16
_EM_M = 12
# From here on zeta(s) - 1 is under half an ulp of 1.0, and the exact sum,
# whose integers grow linearly with s, would only cost time and memory.
_EXACT_S_LIMIT = 64
# A prime p with p**floor(s) > 2**_EULER_EXP has a float Euler factor of
# exactly 1.0; from floor(s) = _EULER_EXP + 1 on that holds for every prime.
_EULER_EXP = 56


class ZetaValue(NamedTuple):
    """A certified evaluation: zeta(s) lies in [value, value + tail_bound].

    ``value`` is the largest double at or below the exact Euler–Maclaurin
    lower bound, and ``terms`` counts the head and Bernoulli terms evaluated.
    """

    s: int
    value: float
    tail_bound: float
    terms: int


@cache
def _bernoulli_factorial_ratios() -> tuple[Fraction, ...]:
    """B_2k/(2k)! for k = 1..M+1; the last one sizes the remainder bound."""
    b = [Fraction(1)]
    for m in range(1, 2 * _EM_M + 3):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return tuple(b[2 * k] / math.factorial(2 * k) for k in range(1, _EM_M + 2))


def _validate(s: int, tol: float) -> None:
    if s <= 1:
        raise ValueError(f"zeta series diverges for s <= 1, got s={s}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if tol == math.inf:
        # the tail bound carries 1% of tol, and JSON has no infinity
        raise ValueError("tolerance must be finite, got inf")
    if tol < MIN_TOL:
        raise ValueError(f"tolerance {tol} below double-precision floor {MIN_TOL}")


def _round_down(x: Fraction) -> float:
    out = float(x)
    return math.nextafter(out, -math.inf) if Fraction(out) > x else out


def _round_up(x: Fraction) -> float:
    out = float(x)
    return math.nextafter(out, math.inf) if Fraction(out) < x else out


@lru_cache(maxsize=64)
def zeta(s: int, tol: float = 1e-9) -> ZetaValue:
    """Euler–Maclaurin enclosure with a tail bound guaranteed to be <= tol.

    The exact enclosure is far narrower than any tol above MIN_TOL; the
    recorded tail_bound is its upper end minus the rounded-down value,
    rounded up, plus 1% of tol as the float allowance kept for callers.
    """
    _validate(s, tol)
    if s >= _EXACT_S_LIMIT:
        # 0 < zeta(s) - 1 <= 2**-s + (integral of x**-s from 2) <= 3 * 2**-s <= 2**-62
        return ZetaValue(s=s, value=1.0, tail_bound=2.0**-62 + 0.01 * tol, terms=1)
    n = _EM_N
    head = sum(Fraction(1, k**s) for k in range(1, n))
    total = head + Fraction(1, (s - 1) * n ** (s - 1)) + Fraction(1, 2 * n**s)
    # Term k is B_2k/(2k)! * s(s+1)...(s+2k-2) / N**(s+2k-1); the M+1st is the first omitted.
    corrections = []
    rising, power = s, n ** (s + 1)
    for k, ratio in enumerate(_bernoulli_factorial_ratios(), 1):
        corrections.append(ratio * Fraction(rising, power))
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        power *= n * n
    *kept, omitted = corrections
    total += sum(kept)
    remainder = abs(omitted)
    value = _round_down(total - remainder)
    tail = _round_up(total + remainder - Fraction(value))
    return ZetaValue(s=s, value=value, tail_bound=tail + 0.01 * tol, terms=(n - 1) + _EM_M)


def inv_zeta(s: int) -> float:
    """1/zeta(s), the reciprocal of the certified ``zeta(s).value``.

    That value does not depend on zeta's tolerance.  zeta(s) >= 1 lies in
    [value, value + tail_bound] with tail_bound <= 1e-9, so the reciprocal
    is within 1e-9 of 1/zeta(s).
    """
    return 1.0 / zeta(s).value


def zeta_euler_product(s: int, prime_limit: int) -> float:
    """prod(1/(1 - p**-s)) over primes p <= prime_limit, in ascending p.

    A lower approximation to zeta(s), nondecreasing in prime_limit; the
    empty product (prime_limit < 2) is 1.  A prime_limit above the sieve
    budget raises ResourceLimitError for every s, before any sieve exists.

    Only primes up to cut = iroot(2**56, floor(s)) are sieved and
    multiplied in.  A prime p above the cut has p**s >= p**floor(s) > 2**56,
    so a faithfully rounded ``float(p) ** -s`` is at most 2**-56, below
    half an ulp of 1.0 from beneath (2**-54).  Under IEEE round-to-nearest
    ``1.0 - x`` is then exactly 1.0 and dividing by it changes nothing, so
    the result is bit-identical to the product over every prime up to
    prime_limit.  Real s > 1 keeps that bound through floor(s).
    """
    if s <= 1:
        raise ValueError(f"zeta series diverges for s <= 1, got s={s}")
    if prime_limit < 1:
        raise ValueError(f"prime_limit must be >= 1, got {prime_limit}")
    _check_sieve_limit(prime_limit)
    # The root is 1 from k = _EULER_EXP + 1 on; capping k keeps it cheap for huge s.
    cut = iroot(2**_EULER_EXP, min(math.floor(s), _EULER_EXP + 1))
    if cut < 2:
        return 1.0  # no factor to evaluate, and -float(s) overflows past float range
    # math.pow(p, -float(s)) is the libm pow that float(p) ** -s calls
    out, pow_, neg = 1.0, math.pow, -float(s)
    for p in _iter_primes(min(prime_limit, cut)):
        out /= 1.0 - pow_(p, neg)
    return out
