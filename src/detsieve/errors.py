"""Exception types shared across the package, and the one integer check."""

import operator


class ContractViolation(ValueError):
    """An argument failed a documented precondition."""


class HypothesisViolation(RuntimeError):
    """Input data does not satisfy the hypotheses a method needs.

    Distinct from ContractViolation: the call was well formed, but the
    mathematical assumptions (coprimality, shape of the defining
    polynomial, ...) do not hold, so the requested computation would
    be meaningless.  The command line maps this to exit code 2.
    """


class SoundnessError(AssertionError):
    """An internally produced certificate failed its own verification.

    This should never trigger; it indicates a bug, not bad input.
    """


def strict_int(v, what: str) -> int:
    """v as an int: any integer type (one with ``__index__``) but a bool,
    else ContractViolation.  The one rule for what counts as integer input."""
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise ContractViolation(f"{what} must be an integer, not {v!r}")
