"""Visibility predicates for lattice points under exponent vectors.

A point n = (n1,...,nk) of positive integers is *visible* for an exponent
vector b = (b1,...,bk) when no scaling factor 0 < t < 1 maps
(n1*t**b1, ..., nk*t**bk) onto another positive integer lattice point.
Three families of exponent vectors are supported:

* positive integers — visible iff no prime p has p**ei | ni for all i;
* positive rationals bi/ai — points live on the restricted lattice of
  perfect-power coordinates and are represented by their base tuple;
  visibility reduces to the integer predicate on the numerators;
* signed rationals — the scaling runs the other way, over t > 1, which
  shrinks exactly the coordinates with negative exponents; so only those
  decide: invisible iff some prime p has p**ej dividing the base
  coordinate of every negative-exponent position j.  For b = (1, -2),
  (5, 4) is invisible, since t = 2 maps it to (10, 1), while (5, 6) is
  visible, although t = 1/5 maps it to the lattice point (1, 150).

One gcd rule serves all three families: ei = |numerator of bi| // G, with
G the gcd of the numerators.  Visibility is unchanged when b becomes b / G,
since t -> t**G maps (0, 1) and (1, oo) onto themselves.  For rational b
this goes past the paper's gcd-one condition; ``bvis verify`` checks it.

``constrained_exponents`` turns a vector of any family into one
``Constraint`` (which positions constrain, with which exponents), and
``witness_prime`` answers every family through it.

``find_parametric_witness`` is the oracle: an independent brute-force
implementation of the defining search over scaled image points, used to
cross-check the divisibility characterizations of every family, on the
expanded point under the integer vector alpha * b.  It never reasons
about primes; a point is visible iff it finds no witness.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .arith import factorize, iroot, is_perfect_power
from .errors import ResourceLimitError, UsageError

# Ceiling on the conceptual witness-search box of the parametric oracle.
DEFAULT_ORACLE_BOX_LIMIT = 100_000_000
# Ceiling on a bound for the bits of the powers the oracle builds (8 MiB); a
# huge exponent would otherwise make it build a huge power.
ORACLE_BIT_BUDGET = 1 << 26

LatticePoint = tuple[int, ...]
RationalPoint = tuple[int, ...]


def as_exponent_vector(b, signed: bool = False) -> tuple[int, ...]:
    """b as positive (nonzero if ``signed``) integer exponents (b1,...,bk), k >= 1, or a UsageError."""
    items = tuple(b)
    try:
        entries = tuple(int(x) for x in items)
    except (ValueError, OverflowError):  # nan, inf, "x"
        entries = None
    # int() truncates 3/2 to 1, where box_edges reads the same entry as 3/2
    if entries is None or (entries != items and any(Fraction(x) != e for x, e in zip(items, entries))):
        raise UsageError(f"integer exponents must be whole numbers, got {items}")
    if not entries:
        raise UsageError("exponent vector must have at least one entry")
    if not all(entries) if signed else any(e < 1 for e in entries):
        raise UsageError(f"integer exponents must be {'nonzero' if signed else '>= 1'}, got {entries}")
    return entries


def as_rational_exponent_vector(b) -> tuple[Fraction, ...]:
    """b as nonzero rational exponents bi/ai, k >= 1, or a UsageError.

    Entries are anything ``Fraction`` reads, such as ints or "p/q" strings;
    a Fraction is in lowest terms with ai > 0.
    """
    items = tuple(b)
    try:
        fracs = tuple(Fraction(x) for x in items)
    except (ValueError, OverflowError):  # nan, inf, "x"
        raise UsageError(f"rational exponents must be finite rationals, got {items}") from None
    if not fracs:
        raise UsageError("exponent vector must have at least one entry")
    if not all(fracs):
        raise UsageError("rational exponents must be nonzero")
    return fracs


def _as_point(point: Sequence[int], k: int) -> tuple[int, ...]:
    coords = tuple(int(x) for x in point)
    if any(c < 1 for c in coords):
        raise UsageError(f"lattice coordinates must be >= 1, got {coords}")
    if len(coords) != k:
        raise UsageError(f"point has {len(coords)} coordinates, exponent vector has {k}")
    return coords


@lru_cache(maxsize=4096)
def _prime_factors(g: int) -> tuple[int, ...]:
    """The primes of g, remembered: the points of a box share few gcds.

    A ResourceLimitError propagates uncached, so the refusal repeats.
    """
    return tuple(p for p, _ in factorize(g))


class Constraint(NamedTuple):
    """A validated vector's test for points of dimension k.

    A point is invisible iff some prime p has p**exps[j] dividing its
    coordinate at positions[j] for every j.
    """

    k: int
    positions: Sequence[int]
    exps: tuple[int, ...]

    def witness(self, coords: tuple[int, ...]) -> int | None:
        """Smallest witness prime of a point that ``_as_point`` already checked.

        Such a prime divides every constraining coordinate, hence their
        gcd; it suffices to test the prime factors of the gcd.  This runs
        once per point of the brute-force sweeps, so it reads no more fields
        than it needs.
        A power p**e with e * (bits(p) - 1) >= bits(c) exceeds c, so it is
        never built: for b = (10**9, 1) it would take gigabytes.
        """
        exps = self.exps
        if len(exps) < len(coords):
            if not exps:
                return None
            coords = tuple(coords[j] for j in self.positions)
        g = math.gcd(*coords)
        if g == 1:
            return None
        for p in _prime_factors(g):
            low = p.bit_length() - 1
            if all(e * low < c.bit_length() and c % p**e == 0 for c, e in zip(coords, exps)):
                return p
        return None


def constrained_exponents(kind: str, b) -> Constraint:
    """Validate b once for a family and return its ``Constraint``.

    This is the library's one family dispatch and its one gcd rule: the
    exponents are |numerator| // G, with G the gcd of all the numerators.
    "int" and "rat" constrain every position, "signed" its negative
    positions.  Any other ``kind`` is a UsageError.
    """
    if kind == "int":
        nums = as_exponent_vector(b)
    elif kind in ("rat", "signed"):
        nums = tuple(f.numerator for f in as_rational_exponent_vector(b))
        if kind == "rat" and any(n < 0 for n in nums):
            raise UsageError("positive-rational predicate got negative exponents; use the signed predicate")
    else:
        raise UsageError(f"unknown case {kind!r}; expected int, rat, or signed")
    g = math.gcd(*nums)
    positions = tuple(j for j, n in enumerate(nums) if n < 0) if kind == "signed" else range(len(nums))
    return Constraint(len(nums), positions, tuple(abs(nums[j]) // g for j in positions))


def witness_prime(point: Sequence[int], kind: str, b) -> int | None:
    """Smallest prime certifying that the point is invisible for b, or None.

    ``kind`` names the family of b: "int", "rat" or "signed".
    """
    constraint = constrained_exponents(kind, b)
    return constraint.witness(_as_point(point, constraint.k))


def witness_prime_int(point: Sequence[int], b) -> int | None:
    """Smallest prime certifying invisibility of the point, or None."""
    return witness_prime(point, "int", b)


def is_visible_int(point: Sequence[int], b) -> bool:
    """Integer-exponent visibility via the prime-power characterization."""
    return witness_prime(point, "int", b) is None


def witness_prime_rat(point: Sequence[int], b) -> int | None:
    return witness_prime(point, "rat", b)


def is_visible_rat(point: Sequence[int], b) -> bool:
    """Positive-rational visibility of a base tuple on the restricted lattice.

    The point argument is the base tuple (l1,...,lk) standing for the
    lattice point (l1**(alpha/a1), ..., lk**(alpha/ak)); visibility equals
    integer visibility of the base tuple under the numerators divided by
    their gcd.
    """
    return witness_prime(point, "rat", b) is None


def witness_prime_signed(point: Sequence[int], b) -> int | None:
    return witness_prime(point, "signed", b)


def is_visible_signed(point: Sequence[int], b) -> bool:
    """Signed-rational visibility of a base tuple.

    Only the negative-exponent coordinates matter: invisible iff some prime
    p has p**(|bj's numerator| // G) dividing the base coordinate at every
    negative position, with G the gcd of all the numerators.
    With no negative entries the condition is vacuous and every point is
    visible (the positive-rational predicate is the meaningful one there).
    """
    return witness_prime(point, "signed", b) is None


def base_from_expanded(coords: Sequence[int], b) -> RationalPoint:
    """Convert expanded lattice coordinates to the base tuple.

    Coordinate i must be an exact (alpha/ai)-th power; anything else is off
    the restricted lattice and rejected.
    """
    fracs = as_rational_exponent_vector(b)
    expanded = _as_point(coords, len(fracs))
    alpha = math.lcm(*(f.denominator for f in fracs))
    base = []
    for i, (c, f) in enumerate(zip(expanded, fracs)):
        exp = alpha // f.denominator
        ok, root = is_perfect_power(c, exp)
        if not ok:
            raise UsageError(
                f"coordinate {c} at position {i} is not a perfect {exp}-th power; "
                "the point is off the restricted lattice"
            )
        base.append(root)
    return tuple(base)


def find_parametric_witness(point: Sequence[int], b) -> LatticePoint | None:
    """Brute-force search for a smaller integer image of the point.

    b holds nonzero integer exponents.  An image is the integer point
    (ni * t**bi) for one t != 1: t < 1 when every bi > 0, so that every
    coordinate shrinks, else t > 1, which shrinks the negative positions.
    The pivot p is the smallest shrinking coordinate.  Each pivot image
    w < n_p fixes t, and coordinate i's image is then ni * (w/n_p)**(u/v),
    u/v = bi/b_p in lowest terms: an integer iff ni**v * w**u / n_p**u is
    an integer v-th power (for u < 0, w and n_p trade places), which
    ``iroot`` decides exactly.  Ascending w meets the values of t in one
    order for every choice of pivot, so the first witness found does not
    depend on it.

    This search is deliberately independent of the prime characterization
    and covers irrational t, since it enumerates image points rather than
    scaling factors.  Returns the first witness found, or None.  A search
    box past DEFAULT_ORACLE_BOX_LIMIT points, or powers whose bound
    sum c * (L/|bi|) * bits(c) over the coordinates (L = lcm(b)) passes
    ORACLE_BIT_BUDGET, raise ResourceLimitError before anything is built.
    """
    entries = as_exponent_vector(b, signed=True)
    coords = _as_point(point, len(entries))
    box = math.prod(coords)
    if box > DEFAULT_ORACLE_BOX_LIMIT:
        raise ResourceLimitError(
            f"witness search box of {box} points exceeds limit {DEFAULT_ORACLE_BOX_LIMIT}"
        )
    negative = any(e < 0 for e in entries)
    pivot = min((i for i, e in enumerate(entries) if (e < 0) == negative), key=coords.__getitem__)
    n_p, b_p = coords[pivot], entries[pivot]
    if n_p == 1:
        # the scaling shrinks this coordinate strictly, so no image point exists
        return None
    lcm_b = math.lcm(*entries)
    # no power below has more than (L/|bi|) * bits(ci) + (L/|b_p|) * bits(n_p) bits
    bits = sum(c * (lcm_b // abs(e)) * c.bit_length() for c, e in zip(coords, entries))
    if bits > ORACLE_BIT_BUDGET:
        raise ResourceLimitError(
            f"witness search powers of up to {bits} bits exceed budget {ORACLE_BIT_BUDGET}"
        )
    # (u, v, top, bottom) per other coordinate, in order: its image is the
    # v-th root of top * w**u / bottom for u > 0, of top / w**-u for u < 0
    terms = []
    for i, (c, e) in enumerate(zip(coords, entries)):
        if i != pivot:
            g = math.gcd(e, b_p) * (1 if b_p > 0 else -1)  # with b_p's sign, so v > 0
            u, v = e // g, b_p // g
            terms.append((u, v, c**v * n_p ** max(-u, 0), n_p ** max(u, 0)))
    for w in range(1, n_p):
        image = []
        for u, v, top, bottom in terms:
            q, r = divmod(top * w**u, bottom) if u > 0 else divmod(top, w**-u)
            root = 0 if r else iroot(q, v)
            if not root or root**v != q:
                break
            image.append(root)
        else:
            image.insert(pivot, w)
            return tuple(image)
    return None
