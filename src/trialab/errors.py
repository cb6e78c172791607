"""Exception types shared across the package."""


class TrialabError(Exception):
    """Base class for all trialab errors."""


class WrongLength(TrialabError):
    """Vector length does not match 2**m."""


class EmptySetNotOne(TrialabError):
    """Empty-set entry of a binary function differs from 1."""


class IndexOutOfRange(TrialabError):
    """Bit insertion position outside 0..len."""


class DimensionMismatch(TrialabError):
    """Two vectors with different ground-set sizes."""


class SingularTransform(TrialabError):
    """Inverse transform requested at mu = 0, where the generator is singular."""


class PoleError(TrialabError):
    """Minor weight requested at the pole mu = 3 + 2*sqrt(2)."""


class NormalizationError(TrialabError):
    """Raw empty-set entry too small to renormalize; result exists only projectively."""


class InvalidMap(TrialabError):
    """Operation on a structure that is not a valid alternating dimap."""


class UnknownEdge(TrialabError):
    """Edge label not present in the dimap."""


class NonIntegerGenus(TrialabError):
    """Euler relation produced a non-integer genus; indicates a corrupted map."""


class InternalInvariantViolation(TrialabError):
    """A reduction produced an invalid map; indicates a case-rule bug."""


class CapExceeded(TrialabError):
    """Requested enumeration size above the configured cap."""


class NotMinorClosed(TrialabError):
    """Representation candidate whose class is not closed under reductions."""


class FileFormatError(TrialabError):
    """Malformed .bf or .adm file."""


class NonFiniteValue(TrialabError):
    """Vector holds a NaN or infinite entry where finite values are required."""
