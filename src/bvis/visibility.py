"""Visibility predicates for lattice points under exponent vectors.

A point n = (n1,...,nk) of positive integers is *visible* for an exponent
vector b = (b1,...,bk) when no scaling factor 0 < t < 1 maps
(n1*t**b1, ..., nk*t**bk) onto another positive integer lattice point.
Three families of exponent vectors are supported:

* positive integers — visible iff no prime p has p**bi | ni for all i,
  after dividing b through by its gcd (the verdict is invariant under
  that reduction, while the prime characterization requires gcd(b) = 1);
* positive rationals bi/ai — points live on the restricted lattice of
  perfect-power coordinates and are represented by their base tuple;
  visibility reduces to the integer predicate on the numerators;
* signed rationals — the scaling runs the other way, over t > 1, which
  shrinks exactly the coordinates with negative exponents; so only those
  decide: invisible iff some prime p has p**|bj| dividing the base
  coordinate of every negative-exponent position j.  For b = (1, -2),
  (5, 4) is invisible, since t = 2 maps it to (10, 1), while (5, 6) is
  visible, although t = 1/5 maps it to the lattice point (1, 150).

``constrained_exponents`` turns a vector of any family into one
``Constraint`` (which positions constrain, with which exponents), and
``witness_prime`` answers every family through it.

``oracle_visible_parametric`` is an independent brute-force implementation
of the defining search over scaled image points, used to cross-check the
divisibility characterizations.  It never reasons about primes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence

from .arith import factorize, is_perfect_power
from .errors import PreconditionError, ResourceLimitError, UsageError

# Ceiling on the conceptual witness-search box of the parametric oracle.
DEFAULT_ORACLE_BOX_LIMIT = 100_000_000

LatticePoint = tuple[int, ...]
RationalPoint = tuple[int, ...]


@dataclass(frozen=True)
class ExponentVector:
    """Positive integer exponents (b1,...,bk), k >= 1."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) < 1:
            raise UsageError("exponent vector must have at least one entry")
        if any(b < 1 for b in self.entries):
            raise UsageError(f"integer exponents must be >= 1, got {self.entries}")

    @cached_property
    def g(self) -> int:
        return math.gcd(*self.entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class RationalExponentVector:
    """Nonzero rational exponents bi/ai in lowest terms, ai > 0."""

    numerators: tuple[int, ...]
    denominators: tuple[int, ...]

    def __post_init__(self):
        if len(self.numerators) < 1 or len(self.numerators) != len(self.denominators):
            raise UsageError("numerators and denominators must align, k >= 1")
        for b, a in zip(self.numerators, self.denominators):
            if b == 0:
                raise UsageError("rational exponents must be nonzero")
            if a < 1:
                raise UsageError(f"denominators must be positive, got {a}")
            if math.gcd(abs(b), a) != 1:
                raise UsageError(f"exponent {b}/{a} is not in lowest terms")

    @classmethod
    def from_fractions(cls, items: Iterable) -> "RationalExponentVector":
        fracs = [Fraction(item) for item in items]
        return cls(
            numerators=tuple(f.numerator for f in fracs),
            denominators=tuple(f.denominator for f in fracs),
        )

    @cached_property
    def denominator_lcm(self) -> int:
        return math.lcm(*self.denominators)

    @cached_property
    def negative_indices(self) -> frozenset[int]:
        return frozenset(i for i, b in enumerate(self.numerators) if b < 0)

    @property
    def fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(b, a) for b, a in zip(self.numerators, self.denominators))

    def __len__(self):
        return len(self.numerators)

    def __iter__(self):
        return iter(self.fractions)


def as_exponent_vector(b) -> ExponentVector:
    if isinstance(b, ExponentVector):
        return b
    items = tuple(b)
    entries = tuple(int(x) for x in items)
    # int() truncates 3/2 to 1, where box_edges reads the same entry as 3/2
    if entries != items and any(Fraction(x) != e for x, e in zip(items, entries)):
        raise UsageError(f"integer exponents must be whole numbers, got {items}")
    return ExponentVector(entries)


def as_rational_exponent_vector(b) -> RationalExponentVector:
    if isinstance(b, RationalExponentVector):
        return b
    return RationalExponentVector.from_fractions(b)


def _as_point(point: Sequence[int], k: int | None = None) -> tuple[int, ...]:
    coords = tuple(int(x) for x in point)
    if any(c < 1 for c in coords):
        raise UsageError(f"lattice coordinates must be >= 1, got {coords}")
    if k is not None and len(coords) != k:
        raise UsageError(f"point has {len(coords)} coordinates, exponent vector has {k}")
    return coords


def reduce_b(b) -> ExponentVector:
    """Divide the exponent vector through by its gcd.

    Visibility verdicts are identical for b and b/gcd(b), so predicates
    reduce internally; this is the canonical form with gcd 1.
    """
    vec = as_exponent_vector(b)
    # not vec.g: a cached_property takes a lock on first use, and most
    # vectors reaching here are built for one predicate call
    g = math.gcd(*vec.entries)
    if g == 1:
        return vec
    return ExponentVector(tuple(e // g for e in vec.entries))


def gcd_is_one_rational(b) -> bool:
    """Does some integer combination of the rational exponents equal 1?

    With alpha = lcm(ai), the integer span of {bi/ai} is (g/alpha)*Z for
    g = gcd(bi*alpha/ai); it contains 1 exactly when g divides alpha.
    """
    vec = as_rational_exponent_vector(b)
    alpha = vec.denominator_lcm
    g = math.gcd(*(abs(n) * (alpha // a) for n, a in zip(vec.numerators, vec.denominators)))
    return alpha % g == 0


@lru_cache(maxsize=4096)
def _prime_factors(g: int) -> tuple[int, ...]:
    """The primes of g, remembered: the points of a box share few gcds.

    A ResourceLimitError propagates uncached, so the refusal repeats.
    """
    return factorize(g).primes()


def require_gcd_one(vec: RationalExponentVector) -> None:
    if not gcd_is_one_rational(vec):
        raise PreconditionError(
            f"exponent vector ({', '.join(str(f) for f in vec.fractions)}) violates "
            "the gcd-one condition: no integer combination of the entries equals 1"
        )


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
        once per point of a sieve, so it reads no more fields than it needs.
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
            if all(c % p**e == 0 for c, e in zip(coords, exps)):
                return p
        return None


def constrained_exponents(kind: str, b) -> Constraint:
    """Validate b once for a family and return its ``Constraint``.

    This is the library's one family dispatch.  For "int" every position
    constrains, with the gcd-reduced entries; for "rat" every position,
    with the numerators; for "signed" the negative positions, with
    |numerator|.  The rational families require the gcd-one condition.
    Any other ``kind`` is a UsageError.
    """
    if kind == "int":
        exps = reduce_b(b).entries
        return Constraint(len(exps), range(len(exps)), exps)
    if kind not in ("rat", "signed"):
        raise UsageError(f"unknown case {kind!r}; expected int, rat, or signed")
    vec = as_rational_exponent_vector(b)
    nums = vec.numerators
    if kind == "rat" and any(n < 0 for n in nums):
        raise UsageError("positive-rational predicate got negative exponents; use the signed predicate")
    require_gcd_one(vec)
    if kind == "rat":
        return Constraint(len(nums), range(len(nums)), nums)
    neg = tuple(sorted(vec.negative_indices))
    return Constraint(len(nums), neg, tuple(-nums[j] for j in neg))


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
    integer visibility of the base tuple under the numerator vector.
    Requires the gcd-one condition, without which the reduction to the
    integer case does not hold.
    """
    return witness_prime(point, "rat", b) is None


def witness_prime_signed(point: Sequence[int], b) -> int | None:
    return witness_prime(point, "signed", b)


def is_visible_signed(point: Sequence[int], b) -> bool:
    """Signed-rational visibility of a base tuple.

    Only the negative-exponent coordinates matter: invisible iff some prime
    p has p**|bj| dividing the base coordinate at every negative position.
    With no negative entries the condition is vacuous and every point is
    visible (the positive-rational predicate is the meaningful one there).
    """
    return witness_prime(point, "signed", b) is None


def base_from_expanded(coords: Sequence[int], b) -> RationalPoint:
    """Convert expanded lattice coordinates to the base tuple.

    Coordinate i must be an exact (alpha/ai)-th power; anything else is off
    the restricted lattice and rejected.
    """
    vec = as_rational_exponent_vector(b)
    expanded = _as_point(coords, len(vec))
    alpha = vec.denominator_lcm
    base = []
    for i, (c, a) in enumerate(zip(expanded, vec.denominators)):
        exp = alpha // a
        ok, root = is_perfect_power(c, exp)
        if not ok:
            raise UsageError(
                f"coordinate {c} at position {i} is not a perfect {exp}-th power; "
                "the point is off the restricted lattice"
            )
        base.append(root)
    return tuple(base)


def find_parametric_witness(
    point: Sequence[int], b, box_limit: int = DEFAULT_ORACLE_BOX_LIMIT
) -> LatticePoint | None:
    """Brute-force search for a smaller integer image of the point.

    Enumerates candidate image points w with 1 <= wi < ni and checks that
    all coordinates share one scaling factor t in (0,1), i.e. that
    (wi/ni)**(1/bi) agree for all i.  Equality is tested exactly through
    cross powers with L = lcm(b): wi**(L/bi) * nj**(L/bj) must equal
    wj**(L/bj) * ni**(L/bi).  Because each wj**(L/bj) is strictly
    increasing in wj, at most one wj can match a given w1, found by
    bisection over precomputed power tables.

    This search is deliberately independent of the prime characterization
    and covers irrational t, since it enumerates image points rather than
    scaling factors.  Returns the first witness found, or None.
    """
    vec = as_exponent_vector(b)
    coords = _as_point(point, len(vec))
    box = math.prod(coords)
    if box > box_limit:
        raise ResourceLimitError(
            f"witness search box of {box} points exceeds limit {box_limit}", limit=box_limit
        )
    if any(c == 1 for c in coords):
        # t < 1 shrinks every coordinate strictly, so no image point exists.
        return None
    k = len(coords)
    lcm_b = math.lcm(*vec.entries)
    exps = [lcm_b // e for e in vec.entries]
    coord_pows = [c**e for c, e in zip(coords, exps)]
    # tables[j][w-1] = w**exps[j] for w in 1..coords[j]-1, strictly increasing
    tables = [[w ** exps[j] for w in range(1, coords[j])] for j in range(k)]
    for w0 in range(1, coords[0]):
        head = tables[0][w0 - 1]
        image = [w0]
        for j in range(1, k):
            num = head * coord_pows[j]
            if num % coord_pows[0]:
                break
            target = num // coord_pows[0]
            idx = bisect_left(tables[j], target)
            if idx < len(tables[j]) and tables[j][idx] == target:
                image.append(idx + 1)
            else:
                break
        else:
            return tuple(image)
    return None


def oracle_visible_parametric(
    point: Sequence[int], b, box_limit: int = DEFAULT_ORACLE_BOX_LIMIT
) -> bool:
    """Defining-search verdict: visible iff no smaller integer image exists."""
    return find_parametric_witness(point, b, box_limit=box_limit) is None
