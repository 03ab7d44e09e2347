"""Exception hierarchy with machine-readable rejection codes.

Every semantic rejection carries a ``code`` (stable identifier used by the
CLI's ``REJECT`` lines) and an optional ``witness`` value that demonstrates
the violation.
"""

from __future__ import annotations


class BasilicaError(Exception):
    """Base class for all kernel errors."""

    code = "Error"

    def __init__(self, message="", witness=None):
        if message != "" and not isinstance(message, str):
            message, witness = "", message
        if message == "" and witness is not None:
            message = f"{self.code} {witness}"
        super().__init__(message or self.code)
        self.witness = witness


class UnsupportedDenominator(BasilicaError):
    """Denominator is not of the form 2^a or 3*2^a."""

    code = "UnsupportedDenominator"


class NotAnArc(BasilicaError):
    """Endpoint pair is not a leaf of the Basilica lamination."""

    code = "NotAnArc"


class NotCentral(BasilicaError):
    """Arc does not border the central gap."""

    code = "NotCentral"


class LeafCountMismatch(BasilicaError):
    code = "LeafCountMismatch"


class ArcMismatch(BasilicaError):
    """Leaf correspondence fails to carry some domain arc onto a range arc."""

    code = "ArcMismatch"


class SlopeNotPowerOfTwo(BasilicaError):
    code = "SlopeNotPowerOfTwo"


class BreakpointNotArcEndpoint(BasilicaError):
    code = "BreakpointNotArcEndpoint"


class ArcNotPreserved(BasilicaError):
    code = "ArcNotPreserved"


class ImageNotStandard(BasilicaError):
    code = "ImageNotStandard"


class NotInRist(BasilicaError):
    code = "NotInRist"


class NotInStab(BasilicaError):
    code = "NotInStab"


class ParseError(BasilicaError):
    code = "ParseError"


def excerpt(text: str, limit: int = 40) -> str:
    """At most `limit` characters of the text, for quoting in an error message."""
    return text if len(text) <= limit else text[:limit - 3] + "..."
