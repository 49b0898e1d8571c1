"""Exact counts of visible points in finite boxes, plus density reports.

The workhorse is Moebius inclusion-exclusion over the invisibility events
"p**ei divides li for every i" (one event per prime p):

    V = sum_{d >= 1} mu(d) * prod_i floor(Mi / d**ei)

The sum truncates at the depth D = min_i iroot(Mi, ei): past that point
some factor floor(Mi / d**ei) is zero in every term.  Up to the head
min(D, max_i iroot(Mi, ei + 1)) every d has its own term; they are summed
HEAD_CHUNK values of mu at a time, by C-level iterators over exact ints.
Past the head, d runs over stretches where every floor(Mi / d**ei) is
constant; such a run [d1, d2] adds its product times M(d2) - M(d1 - 1), a
difference of Mertens values (Deleglise & Rivat, 1996).  ``plan`` sizes
a sum before any work: its depth, its head, the limit up to which
arith.Mertens tabulates M (about 2 * D**(2/3), and at least the head) in
one int32 array, 4 bytes per entry at every size, and a bound on the
values of M memoized above it.  So a count costs about
max(head, D**(2/3)) time instead of D; for b = (1, 1) the head is
sqrt(D).  Every head reads mu from arith.mobius_windows one bytes window
at a time.  A sum whose head reaches the depth, as for unequal
exponents, has no tail: it holds no table of M and never imports numpy.
A table or head past the sieve budget raises ResourceLimitError (CLI
exit 4) before anything is allocated, the table's refusal first.

``count_box(edges, constraint)`` is the one path from a box to a count
for every vector.  It takes the box edges and the ``Constraint`` that
``visibility.constrained_exponents`` builds for a vector, and
``density_report``, ``count_visible_int`` and ``bvis count`` all call it.
``constrained_exponents`` decides which coordinates constrain, and
``box_edges`` is one formula for every vector.

Counts are exact big integers; only the empirical proportion inside a
DensityReport touches floating point.  Two routes that use no Moebius
inversion are kept as independent cross-checks of the identity:
``mark_box`` strikes the invisible points out of a box, a sieve that
``bvis sieve`` lists from, and ``brute_prefix_counts`` tests every point
of a cube for a witness prime, counting all the nested cubes in one sweep.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Sequence

from .arith import Mertens, _iter_primes, floor_root, iroot, mobius_windows
from .errors import UsageError
from .visibility import Constraint, as_rational_exponent_vector, constrained_exponents

# The head of a Moebius sum is summed this many values of mu at a time, so
# each list a chunk builds (its squarefree d, their quotients) stays at a
# few tens of KB of pointers.
HEAD_CHUNK = 1 << 12


class DensityReport:
    """Exact count over a box next to the limiting density 1/zeta(s).

    ``theoretical`` is None when no finite density applies (exponent sum
    below 2).  ``empirical`` and ``abs_error`` are the only floating-point
    quantities; abs_error is defined on the already-rounded floats so that
    consumers can reproduce it exactly from a serialized report.
    """

    __slots__ = ("box", "visible_count", "exponent_sum", "theoretical")

    def __init__(self, box: tuple[int, ...], visible_count: int, exponent_sum: int, theoretical: float | None):
        self.box = box
        self.visible_count = visible_count
        self.exponent_sum = exponent_sum
        self.theoretical = theoretical
        if self.total < 1:
            raise UsageError("density reports need a nonempty box")
        if not 0 <= self.visible_count <= self.total:
            raise UsageError(
                f"count {self.visible_count} outside [0, {self.total}]"
            )

    @property
    def total(self) -> int:
        return math.prod(self.box)

    @property
    def empirical(self) -> float:
        return float(Fraction(self.visible_count, self.total))

    @property
    def abs_error(self) -> float | None:
        if self.theoretical is None:
            return None
        return abs(self.empirical - self.theoretical)


def plan(pairs) -> tuple[int, int, int | None, int]:
    """(depth, head, table_limit, memo_bound) of the sum over pairs (Mi, ei), all Mi >= 1.

    A sum whose head reaches the depth has no tail, table (None) or memo.
    Otherwise the table limit L is at least the head, so that M(head),
    where the tail starts, and the short runs just past it are read from
    the table, and 2 * depth**(2/3), at most the depth.  Every value of M
    needed above L has the form iroot(m // j, e) > L for some edge m with
    exponent e (run ends are, and floor division by d keeps the form), so
    at most memo_bound = sum m // (L+1)**e of them get memoized; L doubles
    until that is below L / 256, about where a memoized value costs what
    the sieve spends on 256 table entries.
    """
    depth = min(iroot(m, e) for m, e in pairs)
    head = min(depth, max(iroot(m, e + 1) for m, e in pairs))
    if head == depth:
        return depth, head, None, 0
    limit = min(depth, max(head, 2 * iroot(depth * depth, 3)))
    while limit < depth and 256 * sum(m // (limit + 1) ** e for m, e in pairs) > limit:
        limit = min(depth, 2 * limit)
    return depth, head, limit, sum(m // (limit + 1) ** e for m, e in pairs)


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
    depth, head, table_limit, _ = plan(pairs)
    if table_limit is not None:
        # before the head, so that a table past the budget is refused first
        mertens = Mertens(table_limit)
    total = _head_sum(pairs, mobius_windows(head))
    if table_limit is None:
        return total
    d, before = head + 1, mertens(head)
    while d <= depth:
        quotients = [m // d**e for m, e in pairs]
        end = min(iroot(m // q, e) for (m, e), q in zip(pairs, quotients))
        after = mertens(end)
        if after != before:
            total += (after - before) * math.prod(quotients)
        d, before = end + 1, after
    return total


def _head_sum(pairs, windows) -> int:
    """sum_d mu(d) * prod_i floor(Mi / d**ei), for (Mi, ei) in pairs, over the d that windows of mu cover.

    The windows hold mu(0), mu(1), ... in order.  Each HEAD_CHUNK of them is
    summed by C-level iterators over exact ints: ``compress`` keeps the
    squarefree d and their signs, and ``map`` forms the quotients.
    floor(M / d**e) is taken as e nested floor divisions by d, each by a
    one-digit int (d <= head, which the sieve budget keeps below 2**30), and
    the pairs of one edge share the divisions they have in common.  Only
    values read twice, the d or a level of quotients, are kept in a list.
    """
    # edge -> {exponent: number of pairs}, exponents ascending
    exps_by_edge: dict[int, dict[int, int]] = {}
    for m, e in sorted(pairs):
        counts = exps_by_edge.setdefault(m, {})
        counts[e] = counts.get(e, 0) + 1
    divisions = sum(max(counts) for counts in exps_by_edge.values())
    total = 0
    lo = 0
    for window in windows:
        signs = memoryview(window)
        for start in range(0, len(signs), HEAD_CHUNK):
            chunk = signs[start : start + HEAD_CHUNK]
            ds = itertools.compress(range(lo + start, lo + start + len(chunk)), chunk)
            if divisions > 1:
                ds = list(ds)
            terms = itertools.compress(chunk, chunk)
            for m, counts in exps_by_edge.items():
                quotients, divided, top = itertools.repeat(m), 0, max(counts)
                for e, n in counts.items():
                    for _ in range(divided, e):
                        quotients = map(operator.floordiv, quotients, ds)
                    divided = e
                    if n + (e < top) > 1:
                        quotients = list(quotients)
                    for _ in range(n):
                        terms = map(operator.mul, terms, quotients)
            total += sum(terms)
        lo += len(signs)
    return total


def box_edges(N: int, b) -> tuple[int, ...]:
    """The box a density is measured on, for nonzero rational exponents bi/ai.

    Edge i is Mi = floor(N**(ai/alpha)) with alpha = lcm(ai): the base
    tuples whose expanded coordinates stay <= N.  Integer entries have
    ai = 1, so their box is [1,N]^k.  N is read like an integer exponent:
    a whole int, float or Fraction becomes that int.
    """
    try:
        n = int(N)
        whole = Fraction(N) == n
    except (TypeError, ValueError, OverflowError):  # None, nan, inf, "x"
        whole = False
    if not whole:
        raise UsageError(f"N must be a whole number, got {N}")
    if n < 1:
        raise UsageError(f"N must be >= 1, got {n}")
    fracs = as_rational_exponent_vector(b)
    alpha = math.lcm(*(f.denominator for f in fracs))
    return tuple(floor_root(n, f.denominator, alpha) for f in fracs)


def count_box(edges: Sequence[int], constraint: Constraint) -> int:
    """Visible points in the box [1,M1]x...x[1,Mk] for a validated vector.

    Every vector reduces to one Moebius count over the positions of its
    ``Constraint``, with the numerators divided by their gcd: the negative
    positions, or all of them when there are none.  The other edges only
    multiply the count.
    """
    k, positions, exps = constraint
    if len(edges) != k:
        raise UsageError(f"box has {len(edges)} edges, exponent vector has {k}")
    free = math.prod(m for j, m in enumerate(edges) if j not in positions)
    return free * mobius_box_count([edges[j] for j in positions], exps)


def count_visible_int(N: int, b) -> int:
    """Number of b-visible points in the box ``box_edges(N, b)``, exactly: [1,N]^k for integer b."""
    # b is read once, so an iterator serves both calls; a bad vector is
    # reported before a bad N, as in density_report
    vec = as_rational_exponent_vector(b)
    return count_box(box_edges(N, vec), constrained_exponents(vec))


def mark_box(edges: Sequence[int], constraint: Constraint) -> bytearray:
    """One byte per point of the box [1,M1]x...x[1,Mk], in lexicographic order.

    A point n gets 0 when some prime p up to the depth min_j iroot(M_j, e_j)
    has p**e_j | n[j] at every constrained position j, else 1.  For each
    prime the marker clears along the axis with the most multiples of its
    modulus p**e_j (1 on a free axis), the last such axis on a tie, whose
    stride is the smallest.  It walks the multiples along the other axes,
    and each line they reach is cleared by one strided slice assignment, so
    a long axis never sets the number of slices.  A box with only one edge
    above 1 is a single line, and when its depth reaches its edge one slice
    clears every coordinate above 1.  No Moebius inversion is involved.
    """
    edges = tuple(int(m) for m in edges)
    k, positions, exps = constraint
    if len(edges) != k:
        raise UsageError(f"box has {len(edges)} edges, exponent vector has {k}")
    grid = bytearray(b"\1") * math.prod(edges)
    if not grid:
        return grid
    # exponent of each coordinate; a free one gets 0, so its modulus is 1
    powers = [0] * k
    for j, e in zip(positions, exps):
        powers[j] = e
    strides = [math.prod(edges[i + 1 :]) for i in range(k)]
    # an axis of edge 1 holds one coordinate at offset 0, so no walk needs it
    axes = [(m, e, t) for m, e, t in zip(edges, powers, strides) if m > 1]
    depth = min(iroot(edges[j], e) for j, e in zip(positions, exps))
    # a line whose depth reaches its edge (only exponent 1 on it, and no
    # constrained edge of 1): every coordinate above 1 has a prime factor up
    # to the depth
    if len(axes) == 1 and depth == axes[0][0]:
        grid[1:] = bytes(len(grid) - 1)
        return grid
    # the edge, exponent and stride of every axis but one, for each choice of the one
    others = [axes[:j] + axes[j + 1 :] for j in range(len(axes))]
    for p in _iter_primes(depth):
        multiples = [m // p**e for m, e, _ in axes]
        most = max(multiples)
        axis = len(axes) - 1 - multiples[::-1].index(most)
        m, e, t = axes[axis]
        step = p**e * t
        zeros = bytes(most)
        lines = [range((p**f - 1) * u, n * u, p**f * u) for n, f, u in others[axis]]
        for base in map(sum, itertools.product(*lines)):
            grid[base + step - t : base + m * t : step] = zeros
    return grid


def count_visible_box(edges: Sequence[int], constraint: Constraint) -> int:
    """Points of the box that ``mark_box`` leaves standing."""
    return mark_box(edges, constraint).count(1)


def brute_prefix_counts(n_max: int, b) -> list[int]:
    """counts[N] = visible points of [1,N]^k by enumeration, for every N <= n_max.

    The points are base tuples, so for rational b the cube is not the
    ``box_edges`` box.  One sweep of the largest cube, bucketed by max
    coordinate, covers all the nested cubes at once.
    """
    constraint = constrained_exponents(b)
    witness = constraint.witness
    buckets = [0] * (n_max + 1)
    for point in itertools.product(range(1, n_max + 1), repeat=constraint.k):
        if witness(point) is None:
            buckets[max(point)] += 1
    return list(itertools.accumulate(buckets))


def density_report(N: int, b) -> DensityReport:
    """Count + empirical proportion + theoretical 1/zeta density, one call.

    The box is ``box_edges(N, b)``, and s is the sum of the constraint's
    exponents.
    """
    from .zeta import inv_zeta

    # b is read once, so an iterator serves both calls; a bad vector is
    # reported before a bad N
    vec = as_rational_exponent_vector(b)
    constraint = constrained_exponents(vec)
    edges = box_edges(N, vec)
    s = sum(constraint.exps)
    return DensityReport(
        box=edges,
        visible_count=count_box(edges, constraint),
        exponent_sum=s,
        theoretical=inv_zeta(s) if s >= 2 else None,
    )
