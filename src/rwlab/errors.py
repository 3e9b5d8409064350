"""Exception hierarchy for rwlab.

Every failure mode that callers are expected to catch has its own class;
anything else is a plain bug and surfaces as a standard Python exception.
Warning classes mark decisions that change how a result was computed but
not whether it is valid.
"""


class RwlabError(Exception):
    """Base class for all rwlab errors."""


class ExpressionError(RwlabError):
    """Malformed or unsupported expression in the coefficient mini-grammar."""


class UndecidableTailError(RwlabError):
    """Zero-testing of a tail expression exceeds the decidable complexity cap."""


class MalformedChainError(RwlabError):
    """Chain coefficients violate the one-step transition constraints."""


class ChainHasKillingError(RwlabError):
    """Operation requires an honest chain but some kappa_j > 0."""


class PrecisionExhaustedError(RwlabError):
    """Estimated arithmetic error exceeds half the requested digits."""


class MethodsDisagreeError(RwlabError):
    """Independent numerical routes for one quantity disagree beyond tolerance."""


class NonpositiveQError(RwlabError):
    """Some Q_j at the supplied top support point is <= 0; the edge estimate
    is below the true edge and the caller should widen the bracket."""


class IdentityMismatchError(RwlabError):
    """Two exact routes to the same value disagree: arithmetic fault."""


class UndecidedLimitError(RwlabError):
    """Neither limit extrapolation nor a divergence verdict is available."""


class ZeroDenominatorError(RwlabError):
    """Denominator of a ratio functional vanishes (periodic chain, odd power)."""


class DivisionSentinelError(RwlabError):
    """A Q value that must be nonzero at the true edge vanished numerically;
    signals a bad edge estimate."""


class StieltjesBreakdownError(RwlabError):
    """Norm underflow in the recurrence-coefficient recursion; the measure
    cannot resolve that many coefficients."""


class InconsistentWeightError(RwlabError):
    """Supplied edge exponents contradict the constraints they claim to satisfy
    (alpha > beta under the admissibility conditions)."""


class InputError(RwlabError):
    """Bad file, config or CLI input."""


class NumericalRouteWarning(UserWarning):
    """A numerical stage left its default route for a safer, slower one
    (for example, the Stieltjes recursion fell back to full
    reorthogonalization) or set aside input it could not use (estimate_limit
    dropping non-finite entries); the result is still valid."""
