"""Exception types shared across the library."""


class FlatpartError(Exception):
    """Base class for all library-specific errors."""


class NonUnitConstantTerm(FlatpartError):
    """Series division or factorization requires a constant term of +-1."""


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
