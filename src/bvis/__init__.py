"""Generalized lattice-point visibility.

A point n in N^k is b-visible for an exponent vector b when no scaling
t in (0,1) maps (n1*t**b1, ..., nk*t**bk) onto another lattice point.
This package provides the visibility predicates (integer, rational and
signed exponents), exact Moebius counts of visible points in finite
boxes, density reports against the limiting value 1/zeta(s), and a
certified zeta evaluator — plus a brute-force oracle implementing the
defining search, used to cross-check everything else.
"""

from .errors import ResourceLimitError, UsageError

__version__ = "0.1.0"

# bvis._kernels has one implementation, its numpy reference loop; perfbench
# still records this name with its results.
KERNEL_BACKEND = "python"

# The public names of each submodule.  A submodule loads on first access to
# it or to one of its names (PEP 562), so `import bvis` loads only errors.
_EXPORTS = {
    "arith": ("factorize", "iroot", "mobius_table", "sieve_primes"),
    "counting": ("DensityReport", "count_visible_int", "density_report", "mobius_box_count"),
    "visibility": (
        "base_from_expanded",
        "find_parametric_witness",
        "is_visible_int",
        "is_visible_rat",
        "is_visible_signed",
        "witness_prime_int",
        "witness_prime_rat",
        "witness_prime_signed",
    ),
    # Not the function zeta: bvis.zeta is the module, from __getattr__ before
    # the first import of bvis.zeta and from that import's binding after it.
    "zeta": ("ZetaValue", "inv_zeta", "zeta_euler_product"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["KERNEL_BACKEND", "ResourceLimitError", "UsageError", *_HOME])


def __getattr__(name: str):
    """A submodule, or a public name from its submodule, loaded on first access."""
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value
