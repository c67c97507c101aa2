"""Exception types shared across the library; require_int, the one
check of every integer argument (an order, a rule field, a zero count, a
modulus, a family index): an int and not a bool, or PreconditionViolated
naming the argument; and require_type, the one refusal of an argument of
the wrong type, naming the argument, the expected type and the given one."""


class FlatpartError(Exception):
    """Base class for all library-specific errors."""


class NonUnitConstantTerm(FlatpartError):
    """Euler factorization requires a constant term of 1."""


class CeilingExceeded(FlatpartError):
    """Brute-force enumeration was asked to exceed its configured ceiling."""


class InsufficientOrder(FlatpartError):
    """A series is too short for the requested analysis."""


class UnknownFamily(FlatpartError):
    """No registered identity under the requested name."""


class UnknownRecursion(FlatpartError):
    """No registered recursion under the requested name."""


class NotInProductClass(FlatpartError):
    """A bijection input lies outside the map's domain."""


class PreconditionViolated(FlatpartError, ValueError):
    """An input violates a documented precondition."""


class InvalidSpecialization(FlatpartError):
    """A two-variable specialization would produce negative exponents."""


def require_int(value, name: str, least: int | None = None) -> int:
    """The value itself; one that is not an int, is a bool, or is below
    least raises PreconditionViolated naming the argument."""
    if (not isinstance(value, int) or isinstance(value, bool)
            or least is not None and value < least):
        kind = "an integer" if least is None else "an int >= %d" % least
        raise PreconditionViolated("%s must be %s, got %r" % (name, kind, value))
    return value


def require_type(value, kind, name: str):
    """The value itself; one that is not an instance of kind (a type or a
    tuple of types) raises PreconditionViolated naming the argument, the
    expected types, and the type and repr of the value."""
    if not isinstance(value, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        wanted = " or ".join(("an %s" if k.__name__[0] in "AEIOU" else "a %s")
                             % k.__name__ for k in kinds)
        raise PreconditionViolated("%s must be %s, got %s %r"
                                   % (name, wanted, type(value).__name__, value))
    return value


def require_iterable(value, name: str, of: str):
    """An iterator over the value; one that is not iterable raises
    PreconditionViolated naming the argument and what it should hold."""
    try:
        return iter(value)
    except TypeError:
        raise PreconditionViolated("%s must be an iterable of %s, got %r"
                                   % (name, of, value)) from None
