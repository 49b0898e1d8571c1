import itertools
import math
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvis import arith, visibility
from bvis.arith import factorize
from bvis.errors import ResourceLimitError, UsageError
from bvis.visibility import (
    as_rational_exponent_vector,
    base_from_expanded,
    constrained_exponents,
    find_parametric_witness,
    is_visible_int,
    is_visible_rat,
    is_visible_signed,
    witness_prime,
    witness_prime_int,
    witness_prime_signed,
)


# ---------------------------------------------------------------- vectors


def test_family_names_are_the_one_predicate():
    for kind in ("int", "rat", "signed"):
        assert getattr(visibility, f"witness_prime_{kind}") is visibility.witness_prime
        assert getattr(visibility, f"is_visible_{kind}") is visibility.is_visible


def test_reduce_b_examples():
    assert constrained_exponents((2, 4)).exps == (1, 2)
    assert constrained_exponents((1, 1, 1)).exps == (1, 1, 1)
    assert constrained_exponents((6, 9, 15)).exps == (2, 3, 5)


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=5))
def test_reduce_b_has_gcd_one(entries):
    assert math.gcd(*constrained_exponents(entries).exps) == 1


def test_exponent_vector_validation():
    with pytest.raises(UsageError):
        as_rational_exponent_vector(())
    with pytest.raises(UsageError, match="nonzero"):
        as_rational_exponent_vector((0, 1))
    # entries of either sign are read, for every caller
    assert as_rational_exponent_vector((1, -2)) == (1, -2)
    # a non-integral entry is read exactly, not truncated; integral values of
    # other types are read as the integer
    assert as_rational_exponent_vector([1.5, 1]) == (Fraction(3, 2), 1)
    assert as_rational_exponent_vector([Fraction(3, 2), 1]) == (Fraction(3, 2), 1)
    assert as_rational_exponent_vector([2.0, "3", Fraction(-4)]) == (2, 3, -4)
    assert all(type(f) is Fraction for f in as_rational_exponent_vector([2.0, "3", 1.5, 1]))
    # a Fraction entry is passed through, so a vector it returned reads back as itself
    half, minus_four = Fraction(1, 2), Fraction(-4)
    fracs = as_rational_exponent_vector([half, "3", minus_four])
    assert fracs[0] is half and fracs[2] is minus_four
    assert all(x is y for x, y in zip(as_rational_exponent_vector(fracs), fracs))
    with pytest.raises(UsageError, match="nonzero"):
        as_rational_exponent_vector([Fraction(0), 1])


@pytest.mark.parametrize("entry", [math.inf, math.nan, "1/0"])
def test_a_non_finite_exponent_is_a_usage_error(entry):
    from bvis.counting import box_edges, density_report

    b = [entry, 1]
    message = re.escape(f"rational exponents must be finite rationals, got ({entry!r}, 1)")
    for call in (
        lambda: as_rational_exponent_vector(b),
        lambda: witness_prime((2, 2), b),
        lambda: find_parametric_witness((2, 2), b),
        lambda: box_edges(10, b),
        lambda: density_report(10, b),
    ):
        with pytest.raises(UsageError, match=message):
            call()


def test_rational_vector_validation():
    with pytest.raises(UsageError):
        as_rational_exponent_vector(["1/2", "0/3"])
    with pytest.raises(UsageError) as exc:
        as_rational_exponent_vector([])
    assert str(exc.value) == "exponent vector must have at least one entry"
    fracs = as_rational_exponent_vector(["2/3", "1/2"])
    assert tuple(f.numerator for f in fracs) == (2, 1)
    assert tuple(f.denominator for f in fracs) == (3, 2)
    assert math.lcm(*(f.denominator for f in fracs)) == 6
    assert tuple(constrained_exponents(fracs).positions) == (0, 1)  # no negative entry: all of them
    assert fracs == (Fraction(2, 3), Fraction(1, 2))


def test_negative_indices():
    assert constrained_exponents([3, -2, -3]).positions == (1, 2)


# ---------------------------------------------------------------- integer case


def test_worked_example():
    assert not is_visible_int((4, 16, 40, 128), (2, 4, 3, 7))
    assert witness_prime_int((4, 16, 40, 128), (2, 4, 3, 7)) == 2
    assert is_visible_int((1, 1, 5, 1), (2, 4, 3, 7))


def test_visible_int_basics():
    assert not is_visible_int((2, 4), (2, 4))
    assert is_visible_int((3, 5), (1, 1))
    assert is_visible_int((1, 1, 1), (5, 9, 2))
    assert not is_visible_int((4, 8), (2, 3))
    assert not is_visible_int((8, 8), (2, 3))


def test_visible_int_k1():
    # for b=(1) only n=1 is visible: every n>1 has a prime divisor
    assert is_visible_int((1,), (1,))
    for n in range(2, 40):
        assert not is_visible_int((n,), (1,))
    # b=(3) reduces to (1), same verdicts
    assert not is_visible_int((5,), (3,))


def test_witness_prime_is_smallest():
    assert witness_prime_int((36, 36), (1, 1)) == 2
    assert witness_prime_int((9, 27), (1, 1)) == 3


def test_gcd_factorization_refusals_repeat(monkeypatch):
    # a refusal is remembered nowhere: each verdict that needs the cofactor asks again
    calls = []

    def refuse(n):
        calls.append(n)
        raise ResourceLimitError("refused")

    monkeypatch.setattr(arith, "_factor_cofactor", refuse)
    for _ in range(2):
        with pytest.raises(ResourceLimitError):
            witness_prime_int((10**6 + 3, 2 * (10**6 + 3)), (1, 1))
    assert calls == [10**6 + 3, 10**6 + 3]


def test_a_trial_prime_witness_needs_no_factorization_of_the_gcd():
    # q1 * q2 is a 128-bit composite that rho cannot split within its budget,
    # but 2 is tested before the gcd 2 * q1 * q2 is factored
    q = (2**64 - 59) * (2**64 - 83)
    for point in ((2 * q, 2 * q), (6 * q, 10 * q)):
        start = time.perf_counter()
        assert witness_prime(point, (1, 1)) == 2
        assert time.perf_counter() - start < 0.1
    # 2 divides the gcd but 2**2 does not: the rest of the gcd is factored
    p = 10**6 + 3
    assert witness_prime((2 * p**2, 2 * p**2), (1, 2)) == p


def test_int_input_validation():
    with pytest.raises(UsageError):
        is_visible_int((1, 2, 3), (1, 1))
    with pytest.raises(UsageError):
        is_visible_int((0, 2), (1, 1))
    with pytest.raises(UsageError):
        is_visible_int((-3, 2), (1, 1))


def test_is_visible_int_vs_gcd_for_ones():
    for pt in itertools.product(range(1, 30), repeat=2):
        assert is_visible_int(pt, (1, 1)) == (math.gcd(*pt) == 1)


# ---------------------------------------------------------------- oracle


def test_oracle_paper_examples():
    assert find_parametric_witness((2, 4), (2, 4)) == (1, 1)
    assert find_parametric_witness((4, 16, 40, 128), (2, 4, 3, 7)) == (1, 1, 5, 1)
    assert find_parametric_witness((3, 5), (1, 1)) is None
    assert find_parametric_witness((1, 1, 5, 1), (2, 4, 3, 7)) is None


def test_oracle_resource_limit(monkeypatch):
    # the budget charges the n_p - 1 values of the pivot, whatever the other coordinates
    for point in ((3, 10**8), (7, 10**7)):
        start = time.perf_counter()
        assert find_parametric_witness(point, (1, 1)) is None
        assert time.perf_counter() - start < 0.1, point
    assert find_parametric_witness((10**5, 10**4), (1, 1)) == (10, 1)
    # (n, n + 1) under (1, 1): powers of P = 38 bits, 2 digits, so n - 1
    # candidates of 2 * 38 * 2 = 152 bit-digits; n = 441506 is the largest under 2**26
    start = time.perf_counter()
    assert find_parametric_witness((441506, 441507), (1, 1)) is None
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="441506 candidates"):
        find_parametric_witness((441507, 441508), (1, 1))
    assert time.perf_counter() - start < 0.2
    # (3, 5) under (1, 1) charges 2 * (4 + 5) = 18, (4, 5) 3 * (6 + 6) = 36
    monkeypatch.setattr(visibility, "ORACLE_BIT_BUDGET", 18)
    assert find_parametric_witness((3, 5), (1, 1)) is None
    assert find_parametric_witness((3, 6), (1, 1)) == (1, 2)
    with pytest.raises(ResourceLimitError):
        find_parametric_witness((4, 5), (1, 1))


def test_oracle_power_budget():
    # (2, 2) under b = (10**8, 1) would build 2**(10**8); refused unbuilt
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as exc:
            find_parametric_witness((2, 2), (10**8, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.2
    assert peak < 1 << 20
    assert f"exceeds budget {visibility.ORACLE_BIT_BUDGET}" in str(exc.value)
    # one candidate, whose roots take time quadratic in the power's digits: the
    # largest power under the budget answers, and past it a 1-Mbit 7th root and
    # 4**(3 * 10**6), each seconds or more of work, are refused at once
    start = time.perf_counter()
    assert find_parametric_witness((2, 2 * 3**4042), (7, 1)) is None
    assert time.perf_counter() - start < 1.0
    for point, b in (((2, 2 * 3**4043), (7, 1)), ((2, 2 * 3**10**5), (7, 1)), ((4, 2), (1, 3 * 10**6))):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            find_parametric_witness(point, b)
        assert time.perf_counter() - start < 0.2
    # a coordinate 1 has no image and needs no table
    assert find_parametric_witness((1, 2), (10**12, 1)) is None


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.data())
def test_oracle_agrees_on_a_small_pivot_and_huge_coordinates(small, data):
    # huge coordinates cost the search only bits: it tries the pivot's values
    k = data.draw(st.integers(min_value=1, max_value=3))
    b = data.draw(st.lists(st.integers(min_value=1, max_value=4), min_size=k, max_size=k))
    others = st.one_of(
        st.integers(min_value=small, max_value=2**64),
        st.integers(min_value=1, max_value=2**40).map(lambda m: m * small**4),
    )
    point = data.draw(st.lists(others, min_size=k - 1, max_size=k - 1))
    point.insert(data.draw(st.integers(min_value=0, max_value=k - 1)), small)
    assert (find_parametric_witness(point, b) is None) == (witness_prime(point, b) is None)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=3),
    st.data(),
)
def test_oracle_agrees_with_characterization(point, data):
    b = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=4),
            min_size=len(point),
            max_size=len(point),
        )
    )
    assert (find_parametric_witness(point, b) is None) == is_visible_int(point, b)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=2, max_value=25), min_size=2, max_size=3),
    st.data(),
)
def test_witness_image_is_consistent(point, data):
    b = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=4),
            min_size=len(point),
            max_size=len(point),
        )
    )
    witness = find_parametric_witness(point, b)
    if witness is None:
        return
    assert all(1 <= w < n for w, n in zip(witness, point))
    lcm_b = math.lcm(*b)
    exps = [lcm_b // e for e in b]
    for i in range(len(point)):
        for j in range(i + 1, len(point)):
            left = witness[i] ** exps[i] * point[j] ** exps[j]
            right = witness[j] ** exps[j] * point[i] ** exps[i]
            assert left == right


def _scaled_constrained_witness(point, b, scale):
    """Witness search on the scaled representation m_i = n_i * scale**b_i.

    Candidate images are capped at the original point (that is exactly the
    image set of t in (0, 1/scale]); the original point itself corresponds
    to t = 1/scale and is excluded as in the unscaled search.
    """
    scaled = tuple(c * scale**e for c, e in zip(point, b))
    lcm_b = math.lcm(*b)
    exps = [lcm_b // e for e in b]
    scaled_pows = [c**x for c, x in zip(scaled, exps)]
    for image in itertools.product(*(range(1, c + 1) for c in point)):
        if image == point:
            continue
        pows = [c**x for c, x in zip(image, exps)]
        if all(
            pows[i] * scaled_pows[j] == pows[j] * scaled_pows[i]
            for i in range(len(point))
            for j in range(i + 1, len(point))
        ):
            return image
    return None


def test_function_independence_under_scaling():
    # witness existence is invariant under m_i = n_i * s**b_i with the
    # search restricted to images of t <= 1/s
    b = (1, 2)
    for scale in (2, 3):
        for point in itertools.product(range(1, 21), repeat=2):
            scaled_witness = _scaled_constrained_witness(point, b, scale)
            assert (scaled_witness is None) == (find_parametric_witness(point, b) is None)


def test_oracle_signed_examples():
    # t > 1 shrinks the negative positions: t = 2 maps (5, 4) to (10, 1) under (1, -2)
    assert find_parametric_witness((5, 4), (1, -2)) == (10, 1)
    assert find_parametric_witness((5, 6), (1, -2)) is None
    # an irrational t = sqrt(2) maps (1, 2) to (2, 1) under (2, -2)
    assert find_parametric_witness((1, 2), (2, -2)) == (2, 1)
    # a negative coordinate 1 cannot shrink
    assert find_parametric_witness((4, 1), (1, -2)) is None
    # every entry negative: every coordinate shrinks
    assert find_parametric_witness((4, 6), (-1, -1)) == (2, 3)


# ---------------------------------------------------------------- rational case


def test_visible_rat_examples():
    assert not is_visible_rat((2, 4), ["1/2", "1/2"])
    assert is_visible_rat((2, 3), ["1/2", "1/2"])
    assert is_visible_rat((1, 1), ["2/3", "1/2"])


def test_rat_reduction_consistency():
    for pt in itertools.product(range(1, 31), repeat=2):
        assert is_visible_rat(pt, ["1/2", "1/2"]) == is_visible_int(pt, (1, 1))


def test_rat_gcd_precondition():
    # numerators with gcd 2 reduce to (1/3, 1/3), as integer vectors do
    assert is_visible_rat((2, 3), ["2/3", "2/3"])


def test_rat_reads_negative_exponents():
    # no predicate refuses a vector for its family: a negative entry gets the one rule
    for b in (["1/2", "-1/2"], ["-1/2", "-1/2"], ["2/3", "-3"]):
        for pt in itertools.product(range(1, 13), repeat=2):
            assert is_visible_rat(pt, b) == (witness_prime(pt, b) is None)
    # only the negative position constrains, with exponent 1
    assert not is_visible_rat((3, 4), ["1/2", "-1/2"])
    assert is_visible_rat((4, 1), ["1/2", "-1/2"])


def test_base_from_expanded():
    # b=(2/3,1/2): alpha=6, lattice exponents (2,3)
    assert base_from_expanded((4, 8), ["2/3", "1/2"]) == (2, 2)
    assert base_from_expanded((1, 27), ["2/3", "1/2"]) == (1, 3)
    with pytest.raises(UsageError):
        base_from_expanded((4, 7), ["2/3", "1/2"])
    # alpha/a_i = 1: every point is on the lattice and is its own base
    assert base_from_expanded((4, 9), ["1/2", "1/2"]) == (4, 9)
    # b=(1,1/3): lattice exponents (3,1), so 64 = 4**3 and 17 = 17**1
    assert base_from_expanded((64, 17), [1, "1/3"]) == (4, 17)
    with pytest.raises(UsageError, match="not a perfect 2-th power"):
        base_from_expanded((40, 1), [1, "1/2"])


# ---------------------------------------------------------------- signed case


def test_visible_signed_examples():
    assert not is_visible_signed((5, 4), [1, -2])
    assert witness_prime_signed((5, 4), [1, -2]) == 2
    assert is_visible_signed((5, 6), [1, -2])
    assert is_visible_signed((1, 1), [1, -2])


def test_signed_empty_j_is_vacuously_visible():
    # no negative entry: every position constrains, as the oracle's t < 1 says
    assert witness_prime_signed((2, 2), (1, 1)) == 2
    assert find_parametric_witness((2, 2), (1, 1)) == (1, 1)
    for pt in [(1, 1), (4, 8), (100, 100)]:
        assert is_visible_signed(pt, ["1/2", "1/2"]) == is_visible_rat(pt, ["1/2", "1/2"])


def test_signed_matches_int_when_all_negative():
    for pt in itertools.product(range(1, 21), repeat=2):
        assert is_visible_signed(pt, [-1, -1]) == is_visible_int(pt, (1, 1))


def test_signed_ignores_non_j_coordinates():
    for b in ([1, -2], [-2, 1]):
        j = 0 if b[0] < 0 else 1
        for fixed in range(1, 31):
            point = [0, 0]
            point[j] = fixed
            verdicts = set()
            for other in range(1, 31):
                point[1 - j] = other
                verdicts.add(is_visible_signed(tuple(point), b))
            assert len(verdicts) == 1


def test_signed_matches_squarefree():
    def squarefree(n):
        return all(m == 1 for _, m in factorize(n))

    for ell in range(1, 101):
        assert is_visible_signed((7, ell), [1, -2]) == squarefree(ell)


def test_signed_gcd_precondition():
    # (-2, -4) reduces to (-1, -2)
    assert is_visible_signed((2, 3), [-2, -4])


# ---------------------------------------------------------------- family dispatch


@pytest.mark.parametrize(
    "b,positions,exps",
    [
        ((2, 4, 6), (0, 1, 2), (1, 2, 3)),
        (["2/3", "1/2"], (0, 1), (2, 1)),
        (["3", "-2", "-3"], (1, 2), (2, 3)),
        (["1", "2"], (0, 1), (1, 2)),  # no negative entry: every position constrains
    ],
)
def test_constraint_per_family(b, positions, exps):
    constraint = visibility.constrained_exponents(b)
    k, got_positions, got_exps = constraint  # unpacks as (k, positions, exponents)
    assert (k, tuple(got_positions), got_exps) == (len(b), positions, exps)
    for point in itertools.product(range(1, 9), repeat=len(b)):
        # the smallest prime dividing each constraining coordinate to its power
        expected = next(
            (
                p
                for p in (2, 3, 5, 7)
                if all(point[j] % p**e == 0 for j, e in zip(positions, exps))
            ),
            None,
        )
        assert visibility.witness_prime(point, b) == expected, point
        assert constraint.witness(point) == expected, point


def _expanded(base, b):
    """The lattice point over a base tuple of b."""
    alpha = math.lcm(*(f.denominator for f in b))
    return [c ** (alpha // f.denominator) for c, f in zip(base, b)]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 3)),
        min_size=1,
        max_size=3,
    ),
    st.integers(1, 6),
    st.integers(1, 6),
    st.data(),
)
def test_one_gcd_rule_is_scale_invariant(b, m, d, data):
    # lam = m/d, with the primes of alpha taken out of m and d cut to a divisor
    # of the numerators' gcd, keeps every denominator and so the restricted
    # lattice: the base tuples of b and lam*b name the same points.  (Another
    # lam names other points: (1/2, 1/3) and 6 * (1/2, 1/3) = (3, 2) do not
    # share their base tuples.)
    alpha = math.lcm(*(f.denominator for f in b))
    while (g := math.gcd(m, alpha)) > 1:
        m //= g
    scaled = [Fraction(m, math.gcd(d, *(f.numerator for f in b))) * f for f in b]
    assert [f.denominator for f in scaled] == [f.denominator for f in b]
    base = tuple(data.draw(st.lists(st.integers(1, 3), min_size=len(b), max_size=len(b))))
    assert constrained_exponents(scaled) == constrained_exponents(b)
    # every sign pattern, all-positive included, agrees with the oracle
    for vector in (b, scaled):
        point = _expanded(base, vector)
        assert (find_parametric_witness(point, vector) is None) == (witness_prime(base, b) is None)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4)),
        min_size=1,
        max_size=3,
    ),
    st.data(),
)
def test_oracle_reads_rational_vectors(b, data):
    # b and alpha * b trace the same curve, so the oracle answers a rational
    # vector on its expanded point as it answers the integer vector alpha * b
    base = tuple(data.draw(st.lists(st.integers(1, 6), min_size=len(b), max_size=len(b))))
    point = _expanded(base, b)
    alpha = math.lcm(*(f.denominator for f in b))
    integers = [int(f * alpha) for f in b]
    try:
        witness = find_parametric_witness(point, b)
    except ResourceLimitError:
        # a box past the limit, or powers past the bit budget, is refused under alpha * b too
        with pytest.raises(ResourceLimitError):
            find_parametric_witness(point, integers)
        return
    assert (witness is None) == (witness_prime(base, b) is None)
    assert witness == find_parametric_witness(point, integers)

