import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvis import arith, counting
from bvis.arith import Mertens, factorize, iroot, mobius, mobius_table, mobius_windows
from bvis.counting import (
    DensityReport,
    box_edges,
    brute_prefix_counts,
    count_box,
    count_visible_box,
    count_visible_int,
    density_report,
    mark_box,
    mobius_box_count,
)
from bvis.errors import ResourceLimitError, UsageError
from bvis.zeta import inv_zeta
from bvis.visibility import (
    Constraint,
    as_rational_exponent_vector,
    constrained_exponents,
    is_visible_int,
    is_visible_rat,
    is_visible_signed,
    witness_prime,
)


# ---------------------------------------------------------------- box / report


def count_by_enumeration(edges, predicate):
    """Points of the box [1,M1]x...x[1,Mk] where predicate holds, tested one by one."""
    return sum(1 for pt in itertools.product(*(range(1, m + 1) for m in edges)) if predicate(pt))


def test_box_spec():
    # a box is its edges tuple; a zero edge is an empty box
    # (1, 1, -9) constrains the last coordinate alone, and 2**9 > 5 strikes nothing
    assert count_box((3, 4, 5), constrained_exponents((1, 1, -9))) == 60
    assert count_box((7, 0), constrained_exponents((1, 1))) == 0


def test_density_report_fields():
    report = DensityReport(
        box=(10, 10),
        visible_count=63,
        exponent_sum=2,
        theoretical=0.6079271018540267,
    )
    assert report.total == 100
    assert report.empirical == 0.63
    assert report.abs_error == pytest.approx(0.63 - 0.6079271018540267, abs=1e-15)
    no_limit = DensityReport(box=(10,), visible_count=10, exponent_sum=0, theoretical=None)
    assert no_limit.abs_error is None
    with pytest.raises(UsageError) as exc:
        DensityReport(box=(10,), visible_count=11, exponent_sum=1, theoretical=None)
    assert str(exc.value) == "count 11 outside [0, 10]"
    with pytest.raises(UsageError) as exc:
        DensityReport(box=(10, 0), visible_count=0, exponent_sum=2, theoretical=None)
    assert str(exc.value) == "density reports need a nonempty box"


def test_density_report_reads_a_whole_n_as_an_int():
    report = density_report(1e3, (1, 1))
    assert report.box == (1000, 1000)
    assert all(type(m) is int for m in report.box)
    assert report.empirical == 0.608383
    assert report.abs_error == abs(0.608383 - report.theoretical)
    assert count_visible_int(1e3, (1, 1)) == 608383
    assert box_edges(Fraction(64), ["2/3", "1/2"]) == (8, 4)


def test_density_report_refuses_a_fractional_n():
    for N in (10.5, Fraction(21, 2), math.inf, math.nan, "x"):
        with pytest.raises(UsageError) as exc:
            density_report(N, (1, 1))
        assert str(exc.value) == f"N must be a whole number, got {N}"
    # wholeness is checked before the lower bound
    with pytest.raises(UsageError) as exc:
        count_visible_int(0.5, (1, 1))
    assert str(exc.value) == "N must be a whole number, got 0.5"
    with pytest.raises(UsageError) as exc:
        count_visible_int(0.0, (1, 1))
    assert str(exc.value) == "N must be >= 1, got 0"


# ---------------------------------------------------------------- mobius sum


def test_mobius_box_count_examples():
    # coprime pairs in [1,10]^2
    assert mobius_box_count((10, 10), (1, 1)) == 63
    # squarefree integers up to 100
    assert mobius_box_count((100,), (2,)) == 61
    assert mobius_box_count((0, 5), (1, 1)) == 0
    assert mobius_box_count((1, 1), (1, 1)) == 1


def _naive_box_count(edges, exps, extra=0):
    """sum_{d <= depth + extra} mu(d) * prod_i floor(Mi / d**ei), one term per d."""
    bound = min(iroot(m, e) for m, e in zip(edges, exps)) + extra
    mu = mobius_table(bound)
    return sum(mu[d] * math.prod(m // d**e for m, e in zip(edges, exps)) for d in range(1, bound + 1))


def test_mobius_truncation_is_sound():
    cases = [
        ((100, 100), (1, 1)),
        ((100, 100), (1, 2)),
        ((64, 64), (2, 3)),
        ((30, 40, 50), (1, 1, 1)),
        ((81, 16), (2, 2)),
    ]
    for edges, exps in cases:
        assert mobius_box_count(edges, exps) == _naive_box_count(edges, exps, 50)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=5000), st.integers(min_value=1, max_value=3)),
        min_size=1,
        max_size=3,
    )
)
def test_mobius_box_count_matches_naive_sum(box):
    edges = tuple(m for m, _ in box)
    exps = tuple(e for _, e in box)
    expected = _naive_box_count(edges, exps)
    # Mertens tables filled and summed in plain Python, then through numpy
    for pure_limit in (arith.DEFAULT_SIEVE_BUDGET, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "PURE_SIEVE_LIMIT", pure_limit)
            assert mobius_box_count(edges, exps) == expected, pure_limit


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=600), st.integers(min_value=1, max_value=3)),
        min_size=1,
        max_size=3,
    ),
    st.sampled_from((1, 7, 64)),
    st.sampled_from((1, 7, 64)),
)
def test_mobius_box_count_in_small_chunks_and_windows(box, chunk, window):
    # chunks and windows of mu that end inside the head, with Mertens tables
    # filled and summed both ways; the box again with one edge throughout, whose exponents
    # share quotients
    exps = tuple(e for _, e in box)
    for edges in (tuple(m for m, _ in box), (box[0][0],) * len(box)):
        expected = _naive_box_count(edges, exps)
        for pure_limit in (arith.DEFAULT_SIEVE_BUDGET, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(counting, "HEAD_CHUNK", chunk)
                mp.setattr(arith, "MOBIUS_WINDOW", window)
                mp.setattr(arith, "PURE_SIEVE_LIMIT", pure_limit)
                assert mobius_box_count(edges, exps) == expected, (edges, pure_limit)


@pytest.mark.parametrize(
    "edge, count, budget",
    [
        # head = depth = 100872 values of mu, one window; a whole Mertens
        # table read in 65536-value slices peaked at 2.9 MB
        (10175172344, 86130807922539665546, 1 << 20),
    ],
)
def test_a_sum_without_a_tail_holds_a_window_of_mu(edge, count, budget):
    tracemalloc.start()
    try:
        got = mobius_box_count((edge, edge), (1, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == count
    assert peak < budget


# Growth of a fresh process's peak RSS (VmHWM) across one count, then the
# count or the ResourceLimitError's text.  VmHWM starts anew at exec, where
# ru_maxrss carries over the spawning process's peak.
_PEAK_RSS_PROBE = """
import sys
from bvis.counting import mobius_box_count
from bvis.errors import ResourceLimitError

def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

edges, exps = (tuple(map(int, arg.split(","))) for arg in sys.argv[1:])
before = peak_kb()
try:
    result = mobius_box_count(edges, exps)
except ResourceLimitError as exc:
    result = exc
print((peak_kb() - before) * 1024, result)
"""


def peak_rss_growth(edges, exps) -> tuple[int, str]:
    """Bytes of peak RSS that ``mobius_box_count(edges, exps)`` adds in a fresh child, and what it printed.

    The count runs untraced: tracemalloc would trace every int the head
    makes, which made the 10**12 sum about 40 times slower.
    """
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [",".join(map(str, values)) for values in (edges, exps)]
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_PROBE, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    growth, result = out.stdout.rstrip("\n").split(" ", 1)
    return int(growth), result


def test_a_sum_without_a_tail_at_1e12_holds_a_window_of_mu():
    # head = depth = 10**6, eight windows; a whole table peaked at 6.0 MB
    growth, count = peak_rss_growth((10**12, 10**12), (1, 2))
    assert count == "831907372580730277919216"
    assert growth < 2 << 20


@pytest.mark.parametrize(
    "edges, exps, text",
    [
        # a table of 43088692 entries, refused before the head of 316227
        ((10**11, 10**11), (1, 1), "Moebius sieve limit 43088692 needs 258532152 bytes"),
        # no tail: a head of 10**8 values of mu
        ((10**16, 10**16), (1, 2), "Moebius sieve limit 100000000 needs 600000000 bytes"),
    ],
)
def test_a_refused_count_allocates_nothing(edges, exps, text):
    growth, error = peak_rss_growth(edges, exps)
    assert error == f"{text} (6 per entry), which exceeds memory budget 200000000 bytes"
    assert growth < 1 << 20


def test_mobius_box_count_head_tail_splits():
    # The head (d with unit-width runs) ends at min(depth, max_i iroot(Mi, ei+1));
    # these boxes put it at the depth, far below it, and between.
    against_naive = [
        ((10**10, 10**10), (1, 2)),  # head == depth == 1e5
        ((10**5, 10**5), (1, 1)),  # head 316, Mertens values above an 8616 table
        ((10**6, 10**4), (1, 1)),  # unequal edges: head 1000, depth 1e4
        ((10**9, 10**9, 10**9), (3, 3, 3)),  # head 177, table 800, depth 1000
        ((7 * 10**7, 10**5, 9 * 10**4), (2, 1, 1)),
    ]
    for edges, exps in against_naive:
        assert mobius_box_count(edges, exps) == _naive_box_count(edges, exps), (edges, exps)
    # Frozen values from the per-d loop this sum replaced.
    frozen = {
        ((2977976, 2977976), (1, 1)): 5391305835907,
        ((10**12, 3 * 10**9), (2, 1)): 2495722117763315780539,
        ((5 * 10**9, 7 * 10**8, 10**12), (1, 1, 2)): 3233784410292738446858708078945,
    }
    for (edges, exps), count in frozen.items():
        assert mobius_box_count(edges, exps) == count, (edges, exps)


def test_mobius_box_count_coprime_pairs_frozen():
    # OEIS A018805: ordered coprime pairs in [1, n]^2.
    assert mobius_box_count((10**6, 10**6), (1, 1)) == 607927104783
    assert mobius_box_count((10**7, 10**7), (1, 1)) == 60792712854483


def test_mertens_matches_oeis():
    # OEIS A084237: M(10^k) for k = 1..9.
    mertens = Mertens(2 * 10**6)
    values = [mertens(10**k) for k in range(1, 10)]
    assert values == [-1, 1, 2, -23, -48, 212, 1037, 1928, -222]


def test_mertens_recursion_matches_running_sum(monkeypatch):
    # a 100-entry table with recursion up to 100**2, against pointwise mu,
    # filled and summed in plain Python and then through numpy
    running = list(itertools.accumulate(mobius(x) if x else 0 for x in range(10_001)))
    for pure_limit in (arith.DEFAULT_SIEVE_BUDGET, 0):
        monkeypatch.setattr(arith, "PURE_SIEVE_LIMIT", pure_limit)
        mertens = Mertens(100)
        assert mertens.table.typecode == "i"
        assert [mertens(x) for x in range(10_001)] == running, pure_limit
        with pytest.raises(ValueError):
            mertens(101**2)


def test_mertens_tables_on_both_sides_of_the_crossover():
    # OEIS A084237: M(10^7) = 1037, M(10^8) = 1928, both above the table
    limit = arith.PURE_SIEVE_LIMIT
    below, above = Mertens(limit - 1), Mertens(limit)
    assert below.table.typecode == above.table.typecode == "i"
    assert below.table == above.table[:limit]
    for mertens in (below, above):
        assert [mertens(10**7), mertens(10**8)] == [1037, 1928]


def test_mertens_budgets():
    with pytest.raises(ResourceLimitError):
        Mertens(10**9)  # 6e9 bytes of sieve
    over = arith.DEFAULT_SIEVE_BUDGET // arith.SIEVE_BYTES_PER_ENTRY + 1
    with pytest.raises(ResourceLimitError):
        mobius_windows(over)


@st.composite
def planned_boxes(draw):
    """k = 1..3 pairs (edge up to 10**12, exponent 1..4); the first holds the depth to at most 10**6."""
    e = draw(st.integers(min_value=1, max_value=4))
    depth = min(draw(st.integers(min_value=1, max_value=10**6)), iroot(10**12, e))
    first = draw(st.integers(min_value=depth**e, max_value=min(10**12, (depth + 1) ** e - 1)))
    rest = []
    for f in draw(st.lists(st.integers(min_value=1, max_value=4), max_size=2)):
        # the first edge again, or any edge from depth**f up to 10**12
        other = st.integers(min_value=min(depth**f, 10**12), max_value=10**12)
        rest.append((draw(st.just(first) | other), f))
    return draw(st.permutations([(first, e), *rest]))


@settings(max_examples=100, deadline=None)
@given(planned_boxes())
# depth 3, where 2 * iroot(3**2, 3) = 4 passes the depth
@example([(3, 1), (3, 1)])
def test_the_plan_bounds_each_count(box):
    edges, exps = tuple(m for m, _ in box), tuple(e for _, e in box)
    depth, head, table_limit, memo_bound = counting.plan(tuple(box))
    built = []

    class Recorded(Mertens):
        def __init__(self, table_limit):
            super().__init__(table_limit)
            built.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "Mertens", Recorded)
        count = mobius_box_count(edges, exps)
    assert 1 <= head <= depth <= 10**6
    if table_limit is None:
        assert head == depth and memo_bound == 0 and not built
    else:
        assert head <= table_limit <= depth and head < depth
        assert table_limit == depth or 256 * memo_bound <= table_limit
        (mertens,) = built
        assert mertens.table_limit == table_limit
        assert len(mertens._memo) <= memo_bound
    if depth <= 10**4:
        assert count == _naive_box_count(edges, exps)


def test_a_mertens_table_holds_four_bytes_per_entry():
    # an int32 of M per entry, summed window by window: no buffer of mu as
    # long as the table is ever held.  The peak adds what sieving one window
    # takes, the window, its square markers and pieces of its slices, about
    # 1.8 windows; it was 5.3 while whole slices were translated, a cumsum
    # cast each window to int32 and the previous window was held.
    import numpy  # noqa: F401  before tracing starts, so that its import is not counted

    limit, window = 4_000_000, arith.MOBIUS_WINDOW
    tracemalloc.start()
    try:
        mertens = Mertens(limit)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mertens.table.typecode == "i"
    assert held <= 4 * limit + window
    assert peak <= 4 * limit + 2 * window
    below = Mertens(arith.PURE_SIEVE_LIMIT - 1).table
    assert mertens.table[: len(below)] == below


def test_a_mertens_table_below_the_crossover_holds_four_bytes_per_entry():
    # the same int32 array, filled in plain Python a chunk at a time, with a
    # peak of about 2 windows above it; a list of Python ints held about 22.5
    # bytes per entry
    limit, window = arith.PURE_SIEVE_LIMIT, arith.MOBIUS_WINDOW
    tracemalloc.start()
    try:
        mertens = Mertens(limit - 1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mertens.table.typecode == "i"
    assert held <= 4 * limit + window
    assert peak <= 4 * limit + 3 * window


def test_a_table_past_the_budget_is_refused_before_the_head(monkeypatch):
    # b = (1, 1) at N = 1e11: a head of 316227 and a table of 43088692 entries
    def head_sum(pairs, windows):
        raise AssertionError("the head was summed before the table was refused")

    monkeypatch.setattr(counting, "_head_sum", head_sum)
    with pytest.raises(ResourceLimitError, match="limit 43088692 "):
        mobius_box_count((10**11, 10**11), (1, 1))


def test_count_visible_int_frozen():
    assert count_visible_int(1, (1, 1)) == 1
    assert count_visible_int(10, (1, 1)) == 63
    assert count_visible_int(10, (2, 3)) == 98
    assert count_visible_int(100, (1, 1)) == 6087


def test_count_visible_int_reduces_gcd():
    for N in (1, 7, 25, 60):
        assert count_visible_int(N, (2, 4)) == count_visible_int(N, (1, 2))
        assert count_visible_int(N, (3, 3)) == count_visible_int(N, (1, 1))


def test_count_visible_int_matches_bruteforce():
    for b in [(1, 1), (1, 2), (2, 3), (1, 1, 1)]:
        k = len(b)
        for N in (1, 2, 5, 10, 25):
            brute = count_by_enumeration(
                (N,) * k, lambda pt: is_visible_int(pt, b)
            )
            assert count_visible_int(N, b) == brute


def test_b_is_read_once():
    # a generator is used up by its first read, so a second read would fail
    assert density_report(10, (x for x in [1, 1])).visible_count == 63
    assert count_visible_int(10, (x for x in [1, 1])) == 63
    assert brute_prefix_counts(10, (x for x in [1, 1]))[10] == 63


def test_brute_prefix_counts_match_mobius():
    for b in [(1, 1), (2, 4), (1, 1, 1)]:
        expected = [0] + [count_visible_int(n, b) for n in range(1, 13)]
        assert brute_prefix_counts(12, b) == expected


def test_count_visible_int_monotone():
    previous = 0
    for N in range(1, 81):
        current = count_visible_int(N, (1, 2))
        assert previous <= current <= N**2
        previous = current


def test_density_converges_for_coprime_pairs():
    coarse = density_report(100, [1, 1])
    fine = density_report(1000, [1, 1])
    assert fine.abs_error < coarse.abs_error + 0.001
    assert fine.abs_error < 0.002


# ---------------------------------------------------------------- rational


def test_rational_box_edges():
    vec = as_rational_exponent_vector(["2/3", "1/2"])
    assert box_edges(64, vec) == (8, 4)
    assert box_edges(63, vec) == (7, 3)
    same_alpha = as_rational_exponent_vector(["1/2", "1/2"])
    assert box_edges(100, same_alpha) == (100, 100)
    # one formula for every family, from plain lists as well as vectors
    assert box_edges(64, ["2/3", "1/2"]) == (8, 4)
    assert box_edges(7, [2, 4]) == (7, 7)
    assert box_edges(5, [1, -2]) == (5, 5)


def test_count_visible_rat_frozen():
    report = density_report(64, ["2/3", "1/2"])
    assert report.box == (8, 4)
    assert report.visible_count == 28
    assert report.total == 32
    assert report.exponent_sum == 3

    # a common denominator makes the base box the full [1,N]^k box
    halved = density_report(100, ["1/2", "1/2"])
    assert halved.box == (100, 100)
    assert halved.visible_count == count_visible_int(100, (1, 1))

    unit = density_report(10, ["1/1", "1/1"])
    assert unit.visible_count == 63


def test_count_visible_rat_matches_predicate():
    report = density_report(64, ["2/3", "1/2"])
    brute = count_by_enumeration(
        report.box, lambda pt: is_visible_rat(pt, ["2/3", "1/2"])
    )
    assert report.visible_count == brute


def test_count_visible_rat_no_density_below_two():
    # exponent sum 1/2 + 1/3 has numerator sum 1 + 1 = 2; use 1/2 alone (sum 1)
    report = density_report(50, ["1/2"])
    assert report.exponent_sum == 1
    assert report.theoretical is None
    assert report.abs_error is None


def test_count_visible_rat_errors():
    # numerators with gcd 2 are no error: (2/3, 2/3) reduces to (1/3, 1/3)
    fields = ("box", "visible_count", "exponent_sum", "theoretical")
    shared, reduced = density_report(100, ["2/3", "2/3"]), density_report(100, ["1/3", "1/3"])
    assert [getattr(shared, f) for f in fields] == [getattr(reduced, f) for f in fields]
    # a negative entry is no error either: the predicate and the report read it
    # by the one rule, over its negative position
    assert is_visible_rat((1, 1), ["1/2", "-1/2"]) == (witness_prime((1, 1), ["1/2", "-1/2"]) is None)
    signed = density_report(100, ["1/2", "-1/2"])
    assert signed.visible_count == count_by_enumeration(signed.box, lambda pt: is_visible_signed(pt, ["1/2", "-1/2"]))


# ---------------------------------------------------------------- signed


def test_count_visible_signed_frozen():
    report = density_report(100, [1, -2])
    assert report.box == (100, 100)
    assert report.visible_count == 6100
    assert report.exponent_sum == 2

    all_negative = density_report(10, [-1, -1])
    assert all_negative.visible_count == 63

    assert density_report(1, [1, -2]).visible_count == 1


def test_count_visible_signed_empty_j():
    # no negative entry: every position constrains, as for the rational vector it is
    report = density_report(50, ["1/2", "2/3"])
    assert report.visible_count == count_by_enumeration(report.box, lambda pt: is_visible_rat(pt, ["1/2", "2/3"]))
    assert report.visible_count < report.total
    assert report.exponent_sum == 3
    assert report.theoretical == inv_zeta(3)


def test_count_visible_signed_matches_bruteforce_k2():
    for N in (1, 2, 5, 10, 20, 50):
        report = density_report(N, [1, -2])
        brute = count_by_enumeration(
            report.box, lambda pt: is_visible_signed(pt, [1, -2])
        )
        assert report.visible_count == brute


def test_count_visible_signed_matches_bruteforce_k3():
    b = [3, -2, -3]
    for N in (1, 2, 5, 10, 20, 30):
        report = density_report(N, b)
        brute = count_by_enumeration(
            report.box, lambda pt: is_visible_signed(pt, b)
        )
        assert report.visible_count == brute


def test_signed_factorizes_over_negative_coordinates():
    # the free coordinate contributes a plain factor of its edge
    narrow = density_report(50, [1, -2]).visible_count
    squarefree = sum(
        1 for n in range(1, 51) if all(m == 1 for _, m in factorize(n))
    )
    assert narrow == 50 * squarefree


# ---------------------------------------------------------------- grid marker


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda k: st.tuples(
            st.tuples(*[st.integers(min_value=0, max_value=12)] * k),
            st.lists(st.integers(min_value=0, max_value=4), min_size=k, max_size=k).filter(any),
        )
    )
)
def test_mark_box_matches_its_definition(box):
    # exponent 0 leaves a coordinate free, and at least one constrains, as in
    # every Constraint; primes up to 11 cover every coordinate of at most 12
    edges, powers = box
    positions = tuple(j for j, e in enumerate(powers) if e)
    constraint = Constraint(len(edges), positions, tuple(powers[j] for j in positions))
    points = itertools.product(*(range(1, m + 1) for m in edges))
    expected = [
        0 if any(all(pt[j] % p ** powers[j] == 0 for j in positions) for p in (2, 3, 5, 7, 11)) else 1
        for pt in points
    ]
    assert list(mark_box(edges, constraint)) == expected


def test_mark_box_edge_cases():
    assert mark_box((0, 5), Constraint(2, (0, 1), (1, 1))) == bytearray()
    # a free axis beside a constrained edge of 1: nothing is struck out
    assert mark_box((3, 1), constrained_exponents((1, -2))) == bytearray(b"\1\1\1")
    # a prime power past an edge strikes nothing out
    assert mark_box((2, 3), Constraint(2, (0, 1), (2, 2))) == bytearray(b"\1") * 6
    # only the constrained first coordinate decides
    assert mark_box((2, 3), Constraint(2, (0,), (1,))) == bytearray(b"\1\1\1\0\0\0")
    with pytest.raises(UsageError) as exc:
        mark_box((2, 3, 4), Constraint(2, (0, 1), (1, 1)))
    assert str(exc.value) == "box has 3 edges, exponent vector has 2"


@pytest.mark.parametrize(
    "edges, positions, exps",
    [
        ((1000,), (0,), (1,)),  # the depth reaches the edge: everything above 1 goes at once
        ((1, 1000), (0, 1), (1, 1)),  # a constrained edge of 1 puts the depth at 1
        ((1000, 1), (0,), (1,)),
        ((1000,), (0,), (2,)),
        ((1, 1000), (1,), (3,)),
        ((1000, 1), *constrained_exponents((1, -2))[1:]),  # a free line beside a constrained edge of 1
        ((1,), (0,), (1,)),
    ],
)
def test_mark_box_on_a_line_matches_the_generic_marking(edges, positions, exps):
    # a free last axis of edge 2 sends the same line through the generic
    # marker; its even entries are the line's points
    line = mark_box(edges, Constraint(len(edges), positions, exps))
    generic = mark_box(edges + (2,), Constraint(len(edges) + 1, positions, exps))
    assert line == generic[::2]


@pytest.mark.parametrize(
    "edges, b, expected",
    [
        ((5_000_000, 2), (1, 1), mobius_box_count((5_000_000, 2), (1, 1))),
        # the first coordinate is free: each of its 100_000 values keeps the squarefree second ones
        ((100_000, 100), (1, -2), 100_000 * mobius_box_count((100,), (2,))),
    ],
    ids=["int-5000000x2", "signed-100000x100"],
)
def test_mark_box_is_fast_on_a_short_last_axis(edges, b, expected):
    # clearing along the last axis would take one slice per value of the long first one
    start = time.perf_counter()
    visible = count_visible_box(edges, constrained_exponents(b))
    elapsed = time.perf_counter() - start
    assert visible == expected
    assert elapsed < 1.0


# ---------------------------------------------------------------- brute force


def test_bruteforce_examples():
    assert count_by_enumeration((10, 10), lambda pt: is_visible_int(pt, (1, 1))) == 63
    assert count_by_enumeration((5, 5, 5), lambda pt: True) == 125
    assert count_by_enumeration((4, 0), lambda pt: True) == 0
    assert (
        count_by_enumeration((5, 5, 5), lambda pt: is_visible_int(pt, (1, 1, 1)))
        == mobius_box_count((5, 5, 5), (1, 1, 1))
    )


# ---------------------------------------------------------------- dispatcher


def test_density_report_dispatch():
    as_int = density_report(10, [2, 3])
    assert as_int.visible_count == 98
    assert as_int.exponent_sum == 5

    as_rat = density_report(64, ["2/3", "1/2"])
    assert as_rat.visible_count == 28

    as_signed = density_report(100, [1, -2])
    assert as_signed.visible_count == 6100

    # no function takes a family name: a third positional argument is refused
    with pytest.raises(TypeError):
        density_report(10, [1, 1], "complex")
    with pytest.raises(TypeError):
        density_report(10, [1, 1], "int")
    with pytest.raises(TypeError):
        witness_prime((2, 4), "rat", ["1/2", "1/2"])
    with pytest.raises(TypeError):
        constrained_exponents("signed", (1, 1))


def test_density_report_int_uses_reduced_exponent_sum():
    # (2,4) reduces to (1,2); the density is 1/zeta(3), not 1/zeta(6)
    report = density_report(1000, [2, 4])
    assert report.exponent_sum == 3
    assert report.abs_error < 0.005


@pytest.mark.parametrize(
    "b,N",
    [
        ([1, 1], 100),
        ([2, 4], 60),  # reduced to (1,2) before counting
        ([1, 2, 3], 20),
        (["2/3", "1/2"], 64),
        (["2/3", "3/2"], 1000),
        ([1, -2], 100),
        ([3, -2, -3], 30),
        (["1/2", "2/3"], 50),  # no negative entry: every position constrains, s = 3
        ([-1, -1], 40),  # every entry negative: every position constrains, through t > 1
    ],
)
def test_count_box_agrees_with_density_report(b, N):
    report = density_report(N, b)
    vec = as_rational_exponent_vector(b)
    edges = box_edges(N, vec)
    assert edges == report.box
    constraint = constrained_exponents(vec)
    assert count_box(edges, constraint) == report.visible_count
    assert sum(constraint.exps) == report.exponent_sum
    # count_visible_int reads every vector; the brute-force cube [1,N]^k
    # holds the base tuples of the box only for integer vectors
    assert count_visible_int(N, b) == report.visible_count
    if all(f.denominator == 1 for f in vec):
        assert brute_prefix_counts(N, b)[N] == report.visible_count


def test_count_box_empty_box():
    # density reports reject empty boxes; count_box just answers zero
    assert count_box((0, 5), constrained_exponents([1, 1])) == 0
    assert count_box((12, 0), constrained_exponents([-1, -1])) == 0
    with pytest.raises(UsageError) as exc:
        count_box((8,), constrained_exponents([1, -2]))
    assert str(exc.value) == "box has 1 edges, exponent vector has 2"
