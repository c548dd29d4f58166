"""Exception types shared across the package."""


class TensormultError(Exception):
    """Base class for all library errors."""


class NonStandardWeight(TensormultError):
    """Weight vector does not correspond to a weakly decreasing diagram."""


class SizeMismatch(TensormultError):
    """Diagram size disagrees with the total degree of the query."""


class TooManyRows(TensormultError):
    """Diagram does not fit the row/hook constraints of the algebra."""


class ArityMismatch(TensormultError):
    """Polynomial operands carry different numbers of variables."""


class InvalidTruncation(TensormultError):
    """Series truncation bound is malformed."""


class NotClosed(TensormultError):
    """Root subset is not closed under the bracket-implied additions."""


class NonTerminating(TensormultError):
    """Greedy basis decomposition failed to reduce its residual."""
