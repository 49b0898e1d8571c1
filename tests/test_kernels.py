import doctest
import math
import re
from pathlib import Path

import pytest

import bvis
from bvis._kernels import zeta_partial_sum
from bvis.counting import count_visible_box, mobius_box_count
from bvis.visibility import Constraint, constrained_exponents


def test_backend_name():
    assert bvis.KERNEL_BACKEND == "python"


def test_package_exports():
    # a stale entry in __all__ fails here, not in a user's import
    assert len(set(bvis.__all__)) == len(bvis.__all__)
    for name in bvis.__all__:
        assert hasattr(bvis, name), name
    assert not hasattr(bvis, "count_visible_rat")
    assert not hasattr(bvis, "count_visible_signed")
    for name in ("ExponentVector", "RationalExponentVector"):
        assert not hasattr(bvis, name)
        assert not hasattr(bvis.visibility, name)
    assert not hasattr(bvis, "BoxSpec")
    assert not hasattr(bvis.counting, "BoxSpec")
    assert not callable(bvis.zeta)
    assert not hasattr(bvis.arith, "Factorization")
    assert not hasattr(bvis, "floor_root") and not hasattr(bvis.arith, "floor_root")
    assert not hasattr(bvis.counting, "_count_constrained")
    assert not hasattr(bvis.counting, "DENSITY_ZETA_TOL")
    assert not hasattr(bvis.ResourceLimitError("x"), "limit")
    assert len(bvis.__all__) == 24
    # one gcd rule for every family: no precondition, no separate reduction
    for name in ("PreconditionError", "gcd_is_one_rational", "reduce_b"):
        assert name not in bvis.__all__
        assert not hasattr(bvis.visibility, name) and not hasattr(bvis.errors, name)
    for name in ("count_visible_bruteforce", "oracle_visible_parametric", "brute_force_limit"):
        for module in (bvis, bvis.counting, bvis.visibility):
            assert not hasattr(module, name), (module.__name__, name)


def test_readme_library_examples():
    # doctest.testfile reads a closing fence right after an output line as
    # part of that output, so each ```python block is cut at its fence; the
    # blocks share one namespace, as in a single session
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    test = doctest.DocTestParser().get_doctest("\n".join(blocks), {}, "README.md", "README.md", 0)
    failed, attempted = doctest.DocTestRunner().run(test)
    assert (failed, attempted) == (0, 15)


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


def test_count_visible_box_against_mobius():
    cases = [
        ((10, 10), (1, 1)),
        ((100, 50), (2, 4)),
        ((64, 64), (2, 3)),
        ((20, 20, 20), (1, 1, 1)),
        ((100,), (2,)),
    ]
    for edges, exps in cases:
        # every position constrains, with exponents not reduced by their gcd
        constraint = Constraint(len(exps), range(len(exps)), exps)
        assert count_visible_box(edges, constraint) == mobius_box_count(edges, exps)


def test_count_visible_box_edge_cases():
    # (1, -3) constrains the second coordinate alone, and 2**3 > 5 strikes nothing
    assert count_visible_box((5, 5), constrained_exponents((1, -3))) == 25
    assert count_visible_box((0, 5), Constraint(2, (0, 1), (1, 1))) == 0
    assert count_visible_box((1, 1), Constraint(2, (0, 1), (1, 1))) == 1


def test_count_visible_box_frozen():
    assert count_visible_box((100, 50), Constraint(2, (0, 1), (2, 4))) == 4925
