"""Exception hierarchy shared by all bigrade modules."""


class BigradeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(BigradeError):
    """An exponent vector has the wrong length for its ring."""


class RingMismatch(BigradeError):
    """Two operands live in different rings."""


class UnitIdeal(BigradeError):
    """The operation requires a proper ideal but got the unit ideal."""


class ZeroModule(BigradeError):
    """The operation is undefined on the zero module."""


class WrongBlock(BigradeError):
    """A generator crosses the x/y variable blocks where it must not."""


class BadProfile(BigradeError):
    """A hypersurface factor profile is malformed (e.g. a (0,0) factor)."""


class BadRing(BigradeError):
    """The ring is outside the operation's setting (e.g. m = 0 or n = 0)."""


class ParseError(BigradeError):
    """A text input failed to parse; carries the line number when known."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class PreconditionFailed(BigradeError):
    """A documented precondition of an operation does not hold."""


class InternalCheckFailed(BigradeError):
    """A theorem-backed runtime assertion failed; indicates a bug."""
