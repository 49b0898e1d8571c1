import math

import pytest

import bvis
from bvis._kernels import zeta_partial_sum
from bvis.arith import iroot, sieve_primes
from bvis.counting import count_visible_box, mobius_box_count


def test_backend_name():
    assert bvis.KERNEL_BACKEND == "python"


def test_package_exports():
    # a stale entry in __all__ fails here, not in a user's import
    assert len(set(bvis.__all__)) == len(bvis.__all__)
    for name in bvis.__all__:
        assert hasattr(bvis, name), name
    assert not hasattr(bvis, "count_visible_rat")
    assert not hasattr(bvis, "count_visible_signed")
    assert not callable(bvis.zeta)


# ---------------------------------------------------------------- zeta kernel


def test_zeta_partial_sum_small_values():
    assert zeta_partial_sum(2, 1) == 1.0
    assert zeta_partial_sum(3, 2) == pytest.approx(1 + 0.125, abs=1e-15)
    for s in (2, 3, 5):
        for m in (10, 1000, 123456):
            reference = math.fsum(n ** (-s) for n in range(1, m + 1))
            assert zeta_partial_sum(s, m) == pytest.approx(reference, abs=1e-13)


def test_zeta_partial_sum_spans_chunks():
    # exercise the multi-chunk path
    m = 10**7
    value = zeta_partial_sum(2, m)
    # zeta(2) minus the integral-bounded tail: 1/(m+1) < zeta(2)-sum < 1/m
    assert math.pi**2 / 6 - 1 / m < value < math.pi**2 / 6 - 1 / (m + 1)


# ---------------------------------------------------------------- grid marker


def _prime_rows(edges, exps):
    bound = min(iroot(m, e) for m, e in zip(edges, exps))
    return [tuple(p**e for e in exps) for p in sieve_primes(bound)]


def test_count_visible_box_against_mobius():
    cases = [
        ((10, 10), (1, 1)),
        ((100, 50), (2, 4)),
        ((64, 64), (2, 3)),
        ((20, 20, 20), (1, 1, 1)),
        ((100,), (2,)),
    ]
    for edges, exps in cases:
        rows = _prime_rows(edges, exps)
        assert count_visible_box(edges, rows) == mobius_box_count(edges, exps)


def test_count_visible_box_edge_cases():
    assert count_visible_box((5, 5), []) == 25
    assert count_visible_box((0, 5), [(2, 2)]) == 0
    assert count_visible_box((1, 1), [(2, 2)]) == 1


def test_count_visible_box_frozen():
    assert count_visible_box((100, 50), [(4, 16), (9, 81), (25, 625)]) == 4925
