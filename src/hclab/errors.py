"""Exception hierarchy shared by all hclab modules.

Every error carries an ``exit_code`` so the command line front end can map
failures onto its documented exit-code contract (1 = parse, 2 = precondition,
3 = numerical, 4 = inconclusive).
"""


class HclabError(Exception):
    exit_code = 3


class SpecParseError(HclabError):
    """Malformed operator spec file or CLI parameters."""

    exit_code = 1


class PreconditionError(HclabError):
    """An operation was called outside its contract."""

    exit_code = 2


class NumericalError(HclabError):
    """Numerically ill-posed input (NaN, non-Hermitian, not PSD, ...)."""

    exit_code = 3


class InconclusiveError(HclabError):
    """Branch checks disagree; diagnostics attached, never silently resolved."""

    exit_code = 4


# -- matrix kernel ----------------------------------------------------------

class NonFinite(NumericalError):
    pass


class NotHermitian(NumericalError):
    pass


class NotPSD(NumericalError):
    pass


class EmptyInput(PreconditionError):
    pass


class NotContained(PreconditionError):
    pass


# -- operator zoo -----------------------------------------------------------

class ZeroWeight(PreconditionError):
    pass


class IndexOutOfRange(PreconditionError):
    pass


class NotProjection(PreconditionError):
    pass


class NotPositive(PreconditionError):
    pass


# -- commutation / chain analysis -------------------------------------------

class PreconditionViolated(PreconditionError):
    """A precondition of the structure theory fails on this model."""


class WindowExhausted(PreconditionViolated):
    pass


class NotHalfCentered(PreconditionViolated):
    pass


class NotInjectiveOnWindow(PreconditionViolated):
    pass


# -- spectral lab ------------------------------------------------------------

class NotCommuting(PreconditionError):
    pass


class ModuliTooSmall(PreconditionError):
    pass


# -- classifier ---------------------------------------------------------------

class NoRelationFound(InconclusiveError):
    pass


class NotSingleTriple(PreconditionError):
    pass


class PatternResidualTooLarge(InconclusiveError):
    pass
