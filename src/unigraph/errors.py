"""Exception types shared across the library."""


class UnigraphError(Exception):
    """Base class for all domain errors raised by this package."""


class NegativeDegree(UnigraphError):
    """A raw degree list contained a negative entry."""


class NotGraphical(UnigraphError):
    """The degree sequence is not realizable by any simple graph."""


class NotUnigraph(UnigraphError):
    """The operation is only defined for unigraph sequences."""


class InvalidPartition(UnigraphError):
    """The vertex partition is not a clique/stable-set split."""


class VariantUndefined(UnigraphError):
    """The inverse transform is only defined for split (paired) input."""


class ParamOutOfRange(UnigraphError):
    """Component parameters violate the catalog bounds."""


class TooLarge(UnigraphError):
    """Input exceeds the hard size guard of a brute-force routine."""


class Infeasible(UnigraphError):
    """No unigraph satisfies the requested generator constraints."""


class FormatError(UnigraphError, ValueError):
    """Malformed sequence or graph text, or input of the wrong type or shape."""
