"""Exception taxonomy shared across the package.

The CLI maps these onto stable exit codes: usage errors exit 2,
precondition violations exit 3, resource-limit refusals exit 4.
"""


class UsageError(ValueError):
    """Malformed input: bad exponent spec, dimension mismatch, bad flag combo."""


class PreconditionError(ValueError):
    """A mathematical precondition does not hold (e.g. the gcd-one condition)."""


class ResourceLimitError(RuntimeError):
    """The request exceeds a configured memory or enumeration budget."""
