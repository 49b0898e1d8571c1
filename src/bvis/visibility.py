"""Visibility predicates for lattice points under exponent vectors.

A point n = (n1,...,nk) of positive integers is *visible* for an exponent
vector b = (b1,...,bk) when no scaling factor 0 < t < 1 maps
(n1*t**b1, ..., nk*t**bk) onto another positive integer lattice point.
For rational bi/ai, points live on the restricted lattice of perfect-power
coordinates and are represented by their base tuple (l1,...,lk), standing
for (l1**(alpha/a1), ..., lk**(alpha/ak)) with alpha = lcm(ai).

One rule covers every nonzero rational vector.  When every bi > 0, every
coordinate shrinks as t falls below 1, so every position constrains: n is
invisible iff some prime p has p**ei | ni for all i.  When some bi < 0,
the scaling runs the other way, over t > 1, which shrinks exactly the
coordinates with negative exponents; so only those constrain.  For
b = (1, -2), (5, 4) is invisible, since t = 2 maps it to (10, 1), while
(5, 6) is visible, although t = 1/5 maps it to the lattice point (1, 150).

One gcd rule gives the exponents: ei = |numerator of bi| // G, with G the
gcd of the numerators.  Visibility is unchanged when b becomes b / G,
since t -> t**G maps (0, 1) and (1, oo) onto themselves.  For rational b
this goes past the paper's gcd-one condition; ``bvis verify`` checks it.

``constrained_exponents`` turns a vector into its ``Constraint`` (which
positions constrain, with which exponents), and ``witness_prime`` and
``is_visible`` answer every vector through it.  "int", "rat" and "signed"
survive only as the label ``family`` prints; the ``*_int``, ``*_rat`` and
``*_signed`` predicates are other names for those two functions and read
every nonzero rational vector.

``find_parametric_witness`` is the oracle: an independent brute-force
implementation of the defining search over scaled image points, used to
cross-check the divisibility characterization on the expanded point of a
base tuple, for every nonzero rational vector.  It never reasons about
primes; a point is visible iff it finds no witness.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .arith import iroot, is_perfect_power, prime_divisors
from .errors import ResourceLimitError, UsageError

# Ceiling on the conceptual witness-search box of the parametric oracle.
DEFAULT_ORACLE_BOX_LIMIT = 100_000_000
# Ceiling on a bound for the bits of the powers the oracle builds (8 MiB); a
# huge exponent would otherwise make it build a huge power.
ORACLE_BIT_BUDGET = 1 << 26


def as_rational_exponent_vector(b) -> tuple[Fraction, ...]:
    """b as nonzero rational exponents bi/ai, k >= 1, or a UsageError.

    Entries are anything ``Fraction`` reads, such as ints or "p/q" strings;
    each comes back a Fraction (lowest terms, ai > 0), a Fraction entry as
    the same object, so a vector this returned reads again cheaply.
    """
    items = tuple(b)
    try:
        fracs = tuple([x if type(x) is Fraction else Fraction(x) for x in items])
    except (ValueError, OverflowError, ZeroDivisionError):  # nan, inf, "x", "1/0"
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


class Constraint(NamedTuple):
    """A validated vector's test for points of dimension k.

    A point is invisible iff some prime p has p**exps[j] dividing its
    coordinate at positions[j] for every j; positions is never empty.
    """

    k: int
    positions: Sequence[int]
    exps: tuple[int, ...]

    def witness(self, coords: tuple[int, ...]) -> int | None:
        """Smallest witness prime of a point that ``_as_point`` already checked.

        Such a prime divides every constraining coordinate, hence their gcd; it
        suffices to walk its primes in ascending order with ``prime_divisors``,
        which factors no more of the gcd than the walk reaches.  This runs once
        per point of the brute-force sweeps, so it reads no more fields than it needs.
        A power p**e with e * (bits(p) - 1) >= bits(c) exceeds c, so it is
        never built: for b = (10**9, 1) it would take gigabytes.
        """
        exps = self.exps
        if len(exps) < len(coords):
            coords = tuple(coords[j] for j in self.positions)
        g = math.gcd(*coords)
        if g == 1:
            return None
        for p in prime_divisors(g):
            low = p.bit_length() - 1
            if all(e * low < c.bit_length() and c % p**e == 0 for c, e in zip(coords, exps)):
                return p
        return None


def constrained_exponents(b) -> Constraint:
    """Validate b once and return its ``Constraint``: the library's one visibility rule.

    b's negative positions constrain, or every position if it has none,
    with exponents |numerator| // G, G the gcd of all the numerators.
    """
    nums = tuple(f.numerator for f in as_rational_exponent_vector(b))
    g = math.gcd(*nums)
    positions = tuple(j for j, n in enumerate(nums) if n < 0) or range(len(nums))
    return Constraint(len(nums), positions, tuple(abs(nums[j]) // g for j in positions))


def family(b) -> str:
    """The label output gives b: "signed" if an entry is negative, "int" if all are whole, else "rat"."""
    fracs = as_rational_exponent_vector(b)
    if any(f < 0 for f in fracs):
        return "signed"
    return "int" if all(f.denominator == 1 for f in fracs) else "rat"


def witness_prime(point: Sequence[int], b) -> int | None:
    """Smallest prime certifying that the point (a base tuple) is invisible for b, or None."""
    constraint = constrained_exponents(b)
    return constraint.witness(_as_point(point, constraint.k))


def _witness_image(point: Sequence[int], b, prime: int) -> tuple[int, ...]:
    """The point with the powers of its witness ``prime`` divided out, for positive integer b."""
    return tuple(c // prime**e for c, e in zip(point, constrained_exponents(b).exps))


def is_visible(point: Sequence[int], b) -> bool:
    """Whether the point (a base tuple) is visible for b: no prime witnesses it."""
    return witness_prime(point, b) is None


# Other names for the two predicates, kept for callers that name a family;
# perfbench's tracer wraps them by name.
witness_prime_int = witness_prime_rat = witness_prime_signed = witness_prime
is_visible_int = is_visible_rat = is_visible_signed = is_visible


def expansion_powers(fracs: Sequence[Fraction]) -> list[int]:
    """The powers alpha // ai, alpha = lcm(ai), that expand a base tuple of a read vector: li -> li**powers[i]."""
    alpha = math.lcm(*(f.denominator for f in fracs))
    return [alpha // f.denominator for f in fracs]


def base_from_expanded(coords: Sequence[int], b) -> tuple[int, ...]:
    """Convert expanded lattice coordinates to the base tuple.

    Coordinate i must be an exact ``expansion_powers`` power; anything else
    is off the restricted lattice and rejected.
    """
    fracs = as_rational_exponent_vector(b)
    expanded = _as_point(coords, len(fracs))
    base = []
    for i, (c, exp) in enumerate(zip(expanded, expansion_powers(fracs))):
        ok, root = is_perfect_power(c, exp)
        if not ok:
            raise UsageError(
                f"coordinate {c} at position {i} is not a perfect {exp}-th power; "
                "the point is off the restricted lattice"
            )
        base.append(root)
    return tuple(base)


def find_parametric_witness(point: Sequence[int], b) -> tuple[int, ...] | None:
    """Brute-force search for a smaller integer image of the point.

    The point is in lattice coordinates, not a base tuple.  With alpha the
    lcm of b's denominators, b and alpha * b trace the same curve
    (t -> t**alpha maps (0, 1) and (1, oo) onto themselves), so b below is
    the integer vector alpha * b.  An image is the integer point
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
    fracs = as_rational_exponent_vector(b)
    coords = _as_point(point, len(fracs))
    box = math.prod(coords)
    if box > DEFAULT_ORACLE_BOX_LIMIT:
        raise ResourceLimitError(
            f"witness search box of {box} points exceeds limit {DEFAULT_ORACLE_BOX_LIMIT}"
        )
    entries = [f.numerator * power for f, power in zip(fracs, expansion_powers(fracs))]
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
