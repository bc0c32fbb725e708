"""Exception types shared across the package, the one integer check and
the one real-number check, and ``Record``, the base of every immutable
result record (boxes, certificates, reports)."""

import math
import operator
from fractions import Fraction


class ContractViolation(ValueError):
    """An argument failed a documented precondition."""


class CapExceeded(ContractViolation):
    """A request is over one of the package's work caps; the command line
    reports it as a usage error."""


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


# every int of at most this many bits has under 4 300 decimal digits, the
# most that CPython's int-to-string conversion allows by default
_SHOWN_BITS = 14_000


def _shown(v) -> str:
    """repr(v), except that an int or Fraction of over _SHOWN_BITS bits, which
    repr may refuse, is named by its type and size, also inside a tuple."""
    if isinstance(v, tuple):
        return "(" + ", ".join(map(_shown, v)) + ("," if len(v) == 1 else "") + ")"
    if isinstance(v, (int, Fraction)):
        bits = max(v.numerator.bit_length(), v.denominator.bit_length())
        if bits > _SHOWN_BITS:
            return f"a {bits}-bit {type(v).__name__}"
    return repr(v)


def strict_int(v, what: str) -> int:
    """v as an int: any integer type (one with ``__index__``) but a bool,
    else ContractViolation.  The one rule for what counts as integer input."""
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise ContractViolation(f"{what} must be an integer, not {_shown(v)}")


def strict_point(p) -> tuple:
    """p as a tuple of three ints, if it is a sequence of three integers
    (``strict_int``), else ContractViolation naming p."""
    try:
        n = len(p)
    except TypeError:
        raise ContractViolation(f"point {_shown(p)} is not a triple") from None
    if n != 3:
        raise ContractViolation(f"point {_shown(tuple(p))} is not a triple")
    return tuple(x if type(x) is int else strict_int(x, "point coordinate") for x in p)


def strict_real(v, what: str, sign: str = ""):
    """v, if it is an int, a float or a Fraction but not a bool, and finite;
    sign "nonnegative" or "positive" also bounds it below.  Else
    ContractViolation.  Ints and Fractions of any size pass.  The one rule
    for what counts as real input."""
    if (isinstance(v, (int, Fraction)) and not isinstance(v, bool)
            or isinstance(v, float) and math.isfinite(v)):
        if not sign or v > 0 or v == 0 and sign == "nonnegative":
            return v
    rule = f"{sign} and finite" if sign else "a finite number"
    raise ContractViolation(f"{what} must be {rule}, not {_shown(v)}")


# the default of a Record field that has none
_REQUIRED = object()


class Record:
    """Base of an immutable record, with no code generated per class.

    A subclass lists its fields as annotations, in order; a class-level value
    on a field is its default.  A record is built from its fields by position
    or keyword, then ``__post_init__`` runs, which may normalise a field
    through ``object.__setattr__``.  After that, assigning or deleting any
    attribute raises AttributeError.  Records compare equal only to records
    of the same class with equal fields, hash by their fields and print as
    ``Name(field=value, ...)``.  There are no slots, so ``cached_property``
    works on a record.
    """

    _fields = {}  # field name -> default or _REQUIRED, in field order

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = {n: vars(cls).get(n, _REQUIRED) for n in cls.__annotations__}
        cls._fields = {**cls._fields, **own}

    def __init__(self, *args, **kwargs):
        fields = type(self)._fields
        if not args and kwargs.keys() == fields.keys():
            args = [kwargs[field] for field in fields]  # every field by keyword
        elif kwargs or len(args) != len(fields):
            name = type(self).__name__
            if len(args) > len(fields):
                raise TypeError(f"{name} takes {len(fields)} fields, not {len(args)}")
            values = {**fields, **kwargs}
            if len(values) > len(fields):
                unknown = next(k for k in kwargs if k not in fields)
                raise TypeError(f"{name} has no field {unknown!r}")
            for field, v in zip(fields, args):
                if field in kwargs:
                    raise TypeError(f"{name} got field {field!r} twice")
                values[field] = v
            for field, v in values.items():
                if v is _REQUIRED:
                    raise TypeError(f"{name} is missing field {field!r}")
            args = values.values()
        # one setattr per field, in field order, as CPython 3.11+ stores
        # them inline; writing through vars(self) would build a real dict
        # and make every later attribute read slower
        for field, v in zip(fields, args):
            object.__setattr__(self, field, v)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")

    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({inner})"
