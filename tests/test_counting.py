import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvis import arith
from bvis.arith import Mertens, factorize, iroot, mobius, mobius_sieve, mobius_table
from bvis.counting import (
    BoxSpec,
    DensityReport,
    box_edges,
    brute_force_limit,
    brute_prefix_counts,
    count_box,
    count_visible_bruteforce,
    count_visible_int,
    density_report,
    mark_box,
    mobius_box_count,
)
from bvis.errors import PreconditionError, ResourceLimitError, UsageError
from bvis.visibility import (
    as_exponent_vector,
    as_rational_exponent_vector,
    constrained_exponents,
    is_visible_int,
    is_visible_rat,
    is_visible_signed,
    witness_prime,
)


# ---------------------------------------------------------------- box / report


def test_box_spec():
    box = BoxSpec((3, 4, 5))
    assert box.volume == 60
    assert BoxSpec((7, 0)).volume == 0
    with pytest.raises(UsageError):
        BoxSpec((3, -1))
    with pytest.raises(UsageError):
        BoxSpec(())


def test_density_report_fields():
    report = DensityReport(
        box=BoxSpec((10, 10)),
        visible_count=63,
        total=100,
        exponent_sum=2,
        theoretical=0.6079271018540267,
    )
    assert report.empirical == 0.63
    assert report.abs_error == pytest.approx(0.63 - 0.6079271018540267, abs=1e-15)
    no_limit = DensityReport(
        box=BoxSpec((10,)), visible_count=10, total=10, exponent_sum=0, theoretical=None
    )
    assert no_limit.abs_error is None
    with pytest.raises(UsageError):
        DensityReport(
            box=BoxSpec((10,)), visible_count=11, total=10, exponent_sum=1, theoretical=None
        )


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
    # the bytes-sieve path, then the numpy one
    for pure_limit in (arith.DEFAULT_SIEVE_BUDGET, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "PURE_SIEVE_LIMIT", pure_limit)
            assert mobius_box_count(edges, exps) == expected, pure_limit


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
    # on the bytes-sieve path and then the numpy one
    running = list(itertools.accumulate(mobius(x) if x else 0 for x in range(10_001)))
    for pure_limit in (arith.DEFAULT_SIEVE_BUDGET, 0):
        monkeypatch.setattr(arith, "PURE_SIEVE_LIMIT", pure_limit)
        mertens = Mertens(100)
        assert isinstance(mertens.table, list) == bool(pure_limit)
        assert [mertens(x) for x in range(10_001)] == running, pure_limit
        with pytest.raises(ValueError):
            mertens(101**2)


def test_mertens_tables_on_both_sides_of_the_crossover():
    # OEIS A084237: M(10^7) = 1037, M(10^8) = 1928, both above the table
    limit = arith.PURE_SIEVE_LIMIT
    below, above = Mertens(limit - 1), Mertens(limit)
    assert below.mu.format == "b" and above.mu.dtype == "int8"
    assert below.table == above.table[:limit].tolist()
    for mertens in (below, above):
        assert [mertens(10**7), mertens(10**8)] == [1037, 1928]


def test_mertens_budgets(monkeypatch):
    with pytest.raises(ResourceLimitError):
        Mertens(10**9)  # 6e9 bytes of sieve
    over = arith.DEFAULT_SIEVE_BUDGET // arith.SIEVE_BYTES_PER_ENTRY + 1
    with pytest.raises(ResourceLimitError):
        mobius_sieve(over)
    monkeypatch.setattr(arith, "MERTENS_MEMO_CAP", 3)
    with pytest.raises(ResourceLimitError):
        Mertens(100)(10_000)


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
            brute = count_visible_bruteforce(
                (N,) * k, lambda pt: is_visible_int(pt, b)
            )
            assert count_visible_int(N, b) == brute


def test_b_is_read_once():
    # a generator is used up by its first read, so a second read would fail
    assert density_report(10, (x for x in [1, 1]), "int").visible_count == 63
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
    coarse = density_report(100, [1, 1], "int")
    fine = density_report(1000, [1, 1], "int")
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
    report = density_report(64, ["2/3", "1/2"], "rat")
    assert report.box.edges == (8, 4)
    assert report.visible_count == 28
    assert report.total == 32
    assert report.exponent_sum == 3

    # a common denominator makes the base box the full [1,N]^k box
    halved = density_report(100, ["1/2", "1/2"], "rat")
    assert halved.box.edges == (100, 100)
    assert halved.visible_count == count_visible_int(100, (1, 1))

    unit = density_report(10, ["1/1", "1/1"], "rat")
    assert unit.visible_count == 63


def test_count_visible_rat_matches_predicate():
    report = density_report(64, ["2/3", "1/2"], "rat")
    brute = count_visible_bruteforce(
        report.box, lambda pt: is_visible_rat(pt, ["2/3", "1/2"])
    )
    assert report.visible_count == brute


def test_count_visible_rat_no_density_below_two():
    # exponent sum 1/2 + 1/3 has numerator sum 1 + 1 = 2; use 1/2 alone (sum 1)
    report = density_report(50, ["1/2"], "rat")
    assert report.exponent_sum == 1
    assert report.theoretical is None
    assert report.abs_error is None


def test_count_visible_rat_errors():
    with pytest.raises(PreconditionError):
        density_report(100, ["2/3", "2/3"], "rat")
    with pytest.raises(UsageError):
        density_report(100, ["1/2", "-1/2"], "rat")


# ---------------------------------------------------------------- signed


def test_count_visible_signed_frozen():
    report = density_report(100, [1, -2], "signed")
    assert report.box.edges == (100, 100)
    assert report.visible_count == 6100
    assert report.exponent_sum == 2

    all_negative = density_report(10, [-1, -1], "signed")
    assert all_negative.visible_count == 63

    assert density_report(1, [1, -2], "signed").visible_count == 1


def test_count_visible_signed_empty_j():
    report = density_report(50, ["1/2", "2/3"], "signed")
    assert report.visible_count == report.total
    assert report.exponent_sum == 0
    assert report.theoretical is None


def test_count_visible_signed_matches_bruteforce_k2():
    for N in (1, 2, 5, 10, 20, 50):
        report = density_report(N, [1, -2], "signed")
        brute = count_visible_bruteforce(
            report.box, lambda pt: is_visible_signed(pt, [1, -2])
        )
        assert report.visible_count == brute


def test_count_visible_signed_matches_bruteforce_k3():
    b = [3, -2, -3]
    for N in (1, 2, 5, 10, 20, 30):
        report = density_report(N, b, "signed")
        brute = count_visible_bruteforce(
            report.box, lambda pt: is_visible_signed(pt, b)
        )
        assert report.visible_count == brute


def test_signed_factorizes_over_negative_coordinates():
    # the free coordinate contributes a plain factor of its edge
    narrow = density_report(50, [1, -2], "signed").visible_count
    squarefree = sum(
        1 for n in range(1, 51) if all(m == 1 for _, m in factorize(n).factors)
    )
    assert narrow == 50 * squarefree


# ---------------------------------------------------------------- grid marker


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda k: st.tuples(
            st.tuples(*[st.integers(min_value=0, max_value=12)] * k),
            st.lists(st.tuples(*[st.integers(min_value=1, max_value=15)] * k), max_size=4),
        )
    )
)
def test_mark_box_matches_its_definition(box):
    # moduli up to 15 pass every edge of at most 12; the row list may be empty
    edges, rows = box
    points = itertools.product(*(range(1, m + 1) for m in edges))
    expected = [
        0 if any(all(n % q == 0 for n, q in zip(pt, row)) for row in rows) else 1 for pt in points
    ]
    assert list(mark_box(edges, rows)) == expected


def test_mark_box_edge_cases():
    assert mark_box((0, 5), [(2, 2)]) == bytearray()
    assert mark_box((3,), []) == bytearray(b"\1\1\1")
    # rows whose moduli pass an edge strike nothing out
    assert mark_box((2, 3), [(3, 1), (1, 4)]) == bytearray(b"\1") * 6
    assert mark_box((2, 3), [(1, 1)]) == bytearray(6)


# ---------------------------------------------------------------- brute force


def test_bruteforce_examples():
    assert count_visible_bruteforce((10, 10), lambda pt: is_visible_int(pt, (1, 1))) == 63
    assert count_visible_bruteforce((5, 5, 5), lambda pt: True) == 125
    assert count_visible_bruteforce((4, 0), lambda pt: True) == 0
    assert (
        count_visible_bruteforce((5, 5, 5), lambda pt: is_visible_int(pt, (1, 1, 1)))
        == mobius_box_count((5, 5, 5), (1, 1, 1))
    )


def test_bruteforce_limit():
    with pytest.raises(ResourceLimitError):
        count_visible_bruteforce((10**4, 10**4), lambda pt: True)
    assert count_visible_bruteforce((10, 10), lambda pt: True, limit=100) == 100
    with pytest.raises(ResourceLimitError):
        count_visible_bruteforce((10, 10), lambda pt: True, limit=99)


def test_brute_force_limit_env(monkeypatch):
    monkeypatch.delenv("BVIS_BRUTE_LIMIT", raising=False)
    assert brute_force_limit() == 10_000_000
    monkeypatch.setenv("BVIS_BRUTE_LIMIT", "500")
    assert brute_force_limit() == 500
    with pytest.raises(ResourceLimitError):
        count_visible_bruteforce((30, 30), lambda pt: True)
    assert brute_force_limit(2000) == 2000  # explicit argument wins


@pytest.mark.parametrize(
    "limit,env,message",
    [
        (0, None, "--limit must be an integer >= 1, got 0"),
        (-1, "500", "--limit must be an integer >= 1, got -1"),
        (None, "abc", "BVIS_BRUTE_LIMIT must be an integer >= 1, got 'abc'"),
        (None, "2.5", "BVIS_BRUTE_LIMIT must be an integer >= 1, got '2.5'"),
        (None, "0", "BVIS_BRUTE_LIMIT must be an integer >= 1, got '0'"),
    ],
)
def test_brute_force_limit_rejects_a_bad_ceiling(monkeypatch, limit, env, message):
    monkeypatch.delenv("BVIS_BRUTE_LIMIT", raising=False)
    if env is not None:
        monkeypatch.setenv("BVIS_BRUTE_LIMIT", env)
    with pytest.raises(UsageError) as exc:
        brute_force_limit(limit)
    assert str(exc.value) == message


# ---------------------------------------------------------------- dispatcher


def test_density_report_dispatch():
    as_int = density_report(10, [2, 3], "int")
    assert as_int.visible_count == 98
    assert as_int.exponent_sum == 5

    as_rat = density_report(64, ["2/3", "1/2"], "rat")
    assert as_rat.visible_count == 28

    as_signed = density_report(100, [1, -2], "signed")
    assert as_signed.visible_count == 6100

    with pytest.raises(UsageError):
        density_report(10, [1, 1], "complex")

    # only "int", "rat" and "signed" name a family, everywhere
    unknown = "unknown case {!r}; expected int, rat, or signed"
    with pytest.raises(UsageError) as exc:
        count_box("integer", [1, 1], (10, 10))
    assert str(exc.value) == unknown.format("integer")
    with pytest.raises(UsageError) as exc:
        witness_prime((2, 4), "rational", ["1/2", "1/2"])
    assert str(exc.value) == unknown.format("rational")
    with pytest.raises(UsageError) as exc:
        constrained_exponents("", (1, 1))
    assert str(exc.value) == unknown.format("")


def test_density_report_int_uses_reduced_exponent_sum():
    # (2,4) reduces to (1,2); the density is 1/zeta(3), not 1/zeta(6)
    report = density_report(1000, [2, 4], "int")
    assert report.exponent_sum == 3
    assert report.abs_error < 0.005


@pytest.mark.parametrize(
    "kind,b,N",
    [
        ("int", [1, 1], 100),
        ("int", [2, 4], 60),  # reduced to (1,2) before counting
        ("int", [1, 2, 3], 20),
        ("rat", ["2/3", "1/2"], 64),
        ("rat", ["2/3", "3/2"], 1000),
        ("signed", [1, -2], 100),
        ("signed", [3, -2, -3], 30),
        ("signed", ["1/2", "2/3"], 50),  # J empty: s = 0
    ],
)
def test_count_box_agrees_with_density_report(kind, b, N):
    report = density_report(N, b, kind)
    vec = as_exponent_vector(b) if kind == "int" else as_rational_exponent_vector(b)
    edges = box_edges(N, vec)
    assert edges == report.box.edges
    assert count_box(kind, vec, edges) == (report.visible_count, report.exponent_sum)


def test_count_box_empty_box():
    # density reports reject empty boxes; count_box just answers zero
    assert count_box("int", as_exponent_vector([1, 1]), (0, 5)) == (0, 2)
    assert count_box("signed", as_rational_exponent_vector([-1, -1]), (12, 0)) == (0, 2)
    with pytest.raises(UsageError):
        count_box("signed", as_rational_exponent_vector([1, -2]), (8,))
