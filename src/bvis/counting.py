"""Exact counts of visible points in finite boxes, plus density reports.

The workhorse is Moebius inclusion-exclusion over the invisibility events
"p**ei divides li for every i" (one event per prime p):

    V = sum_{d >= 1} mu(d) * prod_i floor(Mi / d**ei)

The sum truncates at the depth D = min_i iroot(Mi, ei): past that point
some factor floor(Mi / d**ei) is zero in every term.  Up to the head
min(D, max_i iroot(Mi, ei + 1)) the terms are added one d at a time.  Past
the head, d runs over stretches where every floor(Mi / d**ei) is constant;
such a run [d1, d2] adds its product times M(d2) - M(d1 - 1), a difference
of Mertens values (Deleglise & Rivat, 1996).  arith.Mertens tabulates M up
to about 2 * D**(2/3) and recurses above that, so a count costs about
max(head, D**(2/3)) time instead of D; for b = (1, 1) the head is sqrt(D).
A table past the sieve budget raises ResourceLimitError (CLI exit 4)
before anything is allocated.

``count_box`` is the one path from a box to a count for all three
families: ``density_report``, ``count_visible_int`` and ``bvis count`` all
go through it, with the box from ``box_edges``.  This module reads no
family name: ``visibility.constrained_exponents`` checks it and decides
which coordinates constrain, and ``box_edges`` is one formula for every
family.

Counts are exact big integers; only the empirical proportion inside a
DensityReport touches floating point.  Two routes that use no Moebius
inversion are kept as independent cross-checks of the identity:
``mark_box`` strikes the invisible points out of a box, a sieve that
``bvis sieve`` lists from, and brute-force enumeration tests every point
with a predicate.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .arith import Mertens, floor_root, iroot
from .errors import ResourceLimitError, UsageError
from .visibility import (
    Constraint,
    as_rational_exponent_vector,
    constrained_exponents,
)
from .zeta import inv_zeta

DEFAULT_BRUTE_LIMIT = 10_000_000

# The head of a Moebius sum reads mu in slices of this many values, so its
# Python list never outgrows the sieve's own arrays.
HEAD_CHUNK = 1 << 16

# Density comparisons happen at 1e-2..1e-3 scale; 1e-6 on the zeta side is
# three orders finer than any of them.
DENSITY_ZETA_TOL = 1e-6


@dataclass(frozen=True)
class BoxSpec:
    """Per-coordinate upper bounds (N1,...,Nk); the box is [1,N1]x...x[1,Nk].

    Density boxes always have every edge >= 1; a zero edge (empty box) is
    tolerated for brute-force cross-checks and counts as zero points.
    """

    edges: tuple[int, ...]

    def __post_init__(self):
        if len(self.edges) < 1:
            raise UsageError("box needs at least one edge")
        if any(e < 0 for e in self.edges):
            raise UsageError(f"box edges must be >= 0, got {self.edges}")

    @property
    def volume(self) -> int:
        return math.prod(self.edges)


@dataclass(frozen=True)
class DensityReport:
    """Exact count over a box next to the limiting density 1/zeta(s).

    ``theoretical`` is None when no finite density applies (exponent sum
    below 2, or a signed vector with no negative entries).  ``empirical``
    and ``abs_error`` are the only floating-point quantities; abs_error is
    defined on the already-rounded floats so that consumers can reproduce
    it exactly from a serialized report.
    """

    box: BoxSpec
    visible_count: int
    total: int
    exponent_sum: int
    theoretical: float | None

    def __post_init__(self):
        if self.total < 1:
            raise UsageError("density reports need a nonempty box")
        if not 0 <= self.visible_count <= self.total:
            raise UsageError(
                f"count {self.visible_count} outside [0, {self.total}]"
            )

    @property
    def empirical(self) -> float:
        return float(Fraction(self.visible_count, self.total))

    @property
    def abs_error(self) -> float | None:
        if self.theoretical is None:
            return None
        return abs(self.empirical - self.theoretical)


def _mertens_table_limit(pairs, depth: int, head: int) -> int:
    """Sieve limit L for the Mertens values of a box sum.

    At least the head and 2 * depth**(2/3), at most the depth.  Every value
    of M needed above L has the form iroot(m // j, e) for some edge m with
    exponent e (run ends are, and floor division by d keeps the form), so
    at most sum m // (L+1)**e of them get memoized; L doubles until that
    is below L / 256, about where a memoized value costs what the sieve
    spends on 256 table entries.
    """
    limit = min(depth, max(head, 2 * iroot(depth * depth, 3)))
    while limit < depth and 256 * sum(m // (limit + 1) ** e for m, e in pairs) > limit:
        limit = min(depth, 2 * limit)
    return limit


def mobius_box_count(edges: Sequence[int], exps: Sequence[int]) -> int:
    """Tuples l in the box with no prime p dividing as p**exps[i] | l[i] for all i."""
    edges = tuple(int(m) for m in edges)
    exps = tuple(int(e) for e in exps)
    if len(edges) != len(exps) or not edges:
        raise UsageError("edges and exponents must align, k >= 1")
    if any(e < 1 for e in exps):
        raise UsageError(f"exponents must be >= 1, got {exps}")
    if any(m < 0 for m in edges):
        raise UsageError(f"edges must be >= 0, got {edges}")
    if any(m == 0 for m in edges):
        return 0
    pairs = tuple(zip(edges, exps))
    depth = min(iroot(m, e) for m, e in pairs)
    head = min(depth, max(iroot(m, e + 1) for m, e in pairs))
    mertens = Mertens(_mertens_table_limit(pairs, depth, head))
    signs = mertens.mu[: head + 1]
    total = 0
    for lo in range(1, head + 1, HEAD_CHUNK):
        for d, sign in enumerate(signs[lo : lo + HEAD_CHUNK].tolist(), lo):
            if sign:
                term = sign
                for m, e in pairs:
                    term *= m // d**e
                total += term
    d, before = head + 1, mertens(head)
    while d <= depth:
        quotients = [m // d**e for m, e in pairs]
        end = min(iroot(m // q, e) for (m, e), q in zip(pairs, quotients))
        after = mertens(end)
        if after != before:
            total += (after - before) * math.prod(quotients)
        d, before = end + 1, after
    return total


def box_edges(N: int, b) -> tuple[int, ...]:
    """The box a density is measured on, for exponents bi/ai of any family.

    Edge i is Mi = floor(N**(ai/alpha)) with alpha = lcm(ai): the base
    tuples whose expanded coordinates stay <= N.  Integer entries have
    ai = 1, so their box is [1,N]^k.
    """
    if N < 1:
        raise UsageError(f"N must be >= 1, got {N}")
    vec = as_rational_exponent_vector(b)
    alpha = vec.denominator_lcm
    return tuple(floor_root(N, a, alpha) for a in vec.denominators)


def count_box(kind: str, vec, edges: Sequence[int]) -> tuple[int, int]:
    """(visible points in the box, exponent sum s of the limit 1/zeta(s)).

    Every family reduces to one Moebius count over the positions of its
    ``Constraint``: all of them with the gcd-reduced entries for "int" and
    the numerators for "rat", the negative positions J with |bj| for
    "signed".  The other edges only multiply the count.  A signed vector
    with J empty has every point visible and s = 0, meaning no finite
    density.
    """
    return _count_constrained(constrained_exponents(kind, vec), edges)


def _count_constrained(constraint: Constraint, edges: Sequence[int]) -> tuple[int, int]:
    """``count_box`` for a vector that ``constrained_exponents`` already validated."""
    k, positions, exps = constraint
    if len(edges) != k:
        raise UsageError(f"box has {len(edges)} edges, exponent vector has {k}")
    if not positions:
        return math.prod(edges), 0
    free = math.prod(m for j, m in enumerate(edges) if j not in positions)
    constrained = mobius_box_count([edges[j] for j in positions], exps)
    return free * constrained, sum(exps)


def count_visible_int(N: int, b) -> int:
    """Number of b-visible points in [1,N]^k, exactly (b reduced by its gcd)."""
    # b is read once, so an iterator serves both calls; a bad vector is
    # reported before a bad N, as in density_report
    vec = as_rational_exponent_vector(b)
    constraint = constrained_exponents("int", vec)
    return _count_constrained(constraint, box_edges(N, vec))[0]


def mark_box(edges: Sequence[int], rows: Iterable[Sequence[int]]) -> bytearray:
    """One byte per point of the box [1,M1]x...x[1,Mk], in lexicographic order.

    A row q holds one modulus per coordinate, 1 where a coordinate is free;
    a point n gets 0 when some row has q[i] | n[i] at every i, else 1.  For
    each row the multiples along the first k-1 axes are walked, and each
    line they reach along the last axis is cleared by one strided slice
    assignment.  No Moebius inversion is involved.
    """
    edges = tuple(int(m) for m in edges)
    grid = bytearray(b"\1") * math.prod(edges)
    if not grid:
        return grid
    *outer, last = edges
    strides = [math.prod(edges[i + 1 :]) for i in range(len(outer))]
    for *heads, q in rows:
        zeros = bytes(last // q)
        if not zeros:
            continue
        lines = itertools.product(
            *(range((h - 1) * s, m * s, h * s) for h, m, s in zip(heads, outer, strides))
        )
        for offsets in lines:
            base = sum(offsets)
            grid[base + q - 1 : base + last : q] = zeros
    return grid


def count_visible_box(edges: Sequence[int], rows: Iterable[Sequence[int]]) -> int:
    """Points of the box that no row of ``mark_box`` strikes out."""
    return mark_box(edges, rows).count(1)


def brute_force_limit(limit: int | None = None) -> int:
    """Ceiling on brute-force box volume: ``limit`` (the CLI's --limit) if
    given, else BVIS_BRUTE_LIMIT if set, else DEFAULT_BRUTE_LIMIT.

    A ceiling that is not an integer >= 1 is a UsageError naming its source.
    """
    name, value = "--limit", limit
    if limit is None:
        name, value = "BVIS_BRUTE_LIMIT", os.environ.get("BVIS_BRUTE_LIMIT")
        if not value:
            return DEFAULT_BRUTE_LIMIT
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise UsageError(f"{name} must be an integer >= 1, got {value!r}")
    return cap


def count_visible_bruteforce(
    box: BoxSpec | Iterable[int],
    predicate: Callable[[tuple[int, ...]], bool],
    limit: int | None = None,
) -> int:
    """Full enumeration of the box, counting points where predicate holds.

    Independent of the Moebius identity; used to cross-validate it.  The
    box volume must stay within the configured limit.
    """
    spec = box if isinstance(box, BoxSpec) else BoxSpec(tuple(int(e) for e in box))
    cap = brute_force_limit(limit)
    if spec.volume > cap:
        raise ResourceLimitError(
            f"brute-force box of {spec.volume} points exceeds limit {cap}", limit=cap
        )
    if spec.volume == 0:
        return 0
    ranges = [range(1, e + 1) for e in spec.edges]
    return sum(1 for point in itertools.product(*ranges) if predicate(point))


def brute_prefix_counts(n_max: int, b) -> list[int]:
    """counts[N] = visible points of [1,N]^k by enumeration, for every N <= n_max.

    One sweep of the largest box, bucketed by max coordinate, covers all
    the nested boxes at once.  b is validated once; each point is then
    tested for a witness prime on its own.
    """
    constraint = constrained_exponents("int", b)
    witness = constraint.witness
    buckets = [0] * (n_max + 1)
    for point in itertools.product(range(1, n_max + 1), repeat=constraint.k):
        if witness(point) is None:
            buckets[max(point)] += 1
    return list(itertools.accumulate(buckets))


def density_report(N: int, b, case: str) -> DensityReport:
    """Count + empirical proportion + theoretical 1/zeta density, one call.

    ``case`` names the exponent family, exactly "int", "rat" or "signed";
    ``constrained_exponents`` checks it.  The box is ``box_edges(N, b)``
    for every family, and s is the exponent sum of ``count_box``.
    """
    # b is read once, so an iterator serves both calls; a bad vector is
    # reported before a bad N
    vec = as_rational_exponent_vector(b)
    constraint = constrained_exponents(case, vec)
    edges = box_edges(N, vec)
    visible, s = _count_constrained(constraint, edges)
    return DensityReport(
        box=BoxSpec(edges),
        visible_count=visible,
        total=math.prod(edges),
        exponent_sum=s,
        theoretical=inv_zeta(s, DENSITY_ZETA_TOL) if s >= 2 else None,
    )
