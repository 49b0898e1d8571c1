"""Exception taxonomy shared across the package.

The CLI maps these onto stable exit codes: usage errors exit 2,
resource-limit refusals exit 4.  Exit 3, once a gcd-one precondition on
rational exponents, has no cause left and stays reserved.
"""


class UsageError(ValueError):
    """Malformed input: bad exponent spec, dimension mismatch, bad flag combo."""


class ResourceLimitError(RuntimeError):
    """The request exceeds a configured memory or enumeration budget."""
