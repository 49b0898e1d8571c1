"""Generalized lattice-point visibility.

A point n in N^k is b-visible for an exponent vector b when no scaling
t in (0,1) maps (n1*t**b1, ..., nk*t**bk) onto another lattice point.
This package provides the visibility predicates (integer, rational and
signed exponents), exact Moebius counts of visible points in finite
boxes, density reports against the limiting value 1/zeta(s), and a
certified zeta evaluator — plus a brute-force oracle implementing the
defining search, used to cross-check everything else.
"""

from .arith import (
    factorize,
    floor_root,
    iroot,
    is_perfect_power,
    mobius,
    mobius_table,
    sieve_primes,
)
from .counting import (
    BoxSpec,
    DensityReport,
    count_visible_bruteforce,
    count_visible_int,
    density_report,
    mobius_box_count,
)
from .errors import PreconditionError, ResourceLimitError, UsageError
from .visibility import (
    ExponentVector,
    RationalExponentVector,
    base_from_expanded,
    find_parametric_witness,
    gcd_is_one_rational,
    is_visible_int,
    is_visible_rat,
    is_visible_signed,
    oracle_visible_parametric,
    reduce_b,
    witness_prime_int,
    witness_prime_rat,
    witness_prime_signed,
)
# Not the function zeta: the name bvis.zeta stays the module.
from .zeta import ZetaValue, inv_zeta, zeta_euler_product

__version__ = "0.1.0"

# bvis._kernels has one implementation, its numpy reference loop; perfbench
# still records this name with its results.
KERNEL_BACKEND = "python"

__all__ = [
    "BoxSpec",
    "DensityReport",
    "ExponentVector",
    "KERNEL_BACKEND",
    "PreconditionError",
    "RationalExponentVector",
    "ResourceLimitError",
    "UsageError",
    "ZetaValue",
    "base_from_expanded",
    "count_visible_bruteforce",
    "count_visible_int",
    "density_report",
    "factorize",
    "find_parametric_witness",
    "floor_root",
    "gcd_is_one_rational",
    "inv_zeta",
    "iroot",
    "is_perfect_power",
    "is_visible_int",
    "is_visible_rat",
    "is_visible_signed",
    "mobius",
    "mobius_box_count",
    "mobius_table",
    "oracle_visible_parametric",
    "reduce_b",
    "sieve_primes",
    "witness_prime_int",
    "witness_prime_rat",
    "witness_prime_signed",
    "zeta_euler_product",
]
