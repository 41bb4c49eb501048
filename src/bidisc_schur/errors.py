"""Exception types, one per named precondition or certification failure.

The CLI reports failures by class name, so the names are part of the
external interface.
"""


class DomainError(Exception):
    """Base class for all precondition and verdict failures."""


class NonFiniteError(DomainError, ValueError):
    """An input holds NaN or an infinity.  Also a ValueError, so callers
    that catch ValueError keep working."""


# -- matrix utilities ------------------------------------------------------

class NonSquareError(DomainError):
    pass


class NonHermitianError(DomainError):
    pass


class NotPsdError(DomainError):
    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue    # of the Hermitian part


class PNotInvertibleError(DomainError):
    pass


class DeltaNotInvertibleError(DomainError):
    """The Schur complement S - R P^{-1} Q is (numerically) singular."""


# -- function representations ----------------------------------------------

class ZeroPolynomialError(DomainError):
    pass


class NearPoleError(DomainError):
    pass


# -- colligations ----------------------------------------------------------

class ResolventIllConditionedError(DomainError):
    pass


class NotStructuredError(DomainError):
    """The colligation lacks the structure an operation needs: it has the
    wrong number of variables, the lower-left coupling block of D is not
    (numerically) zero, or, for the proof sums, a diagonal D block has
    spectral radius >= 1 - tol, so its powers do not tend to zero."""


class ZeroOnBoundaryError(DomainError):
    pass


class NotDivisibleError(DomainError):
    pass


# -- Toeplitz truncations ---------------------------------------------------

class InsufficientTruncationError(DomainError):
    pass


class WindowTooLargeError(DomainError):
    pass


# -- kernels ----------------------------------------------------------------

class NotCoisometricError(DomainError):
    pass


class IdentityViolatedError(DomainError):
    """Internal consistency failure: a decomposition identity that should
    hold by construction does not; signals a bug or severe ill-conditioning."""


class GridMismatchError(DomainError):
    pass


class NotDbrError(DomainError):
    pass


class RankOverflowError(DomainError):
    pass


# -- factorization ----------------------------------------------------------

class OriginZeroError(DomainError):
    """The value at the origin vanishes; route through monomial stripping."""


class ConditionFailedError(DomainError):
    pass


class ClassMismatchError(DomainError):
    pass


class GridNotCompanionedError(DomainError):
    pass


class AxesOnlyGridError(DomainError):
    """Every grid point has a coordinate within EXACT_GUARD of 0, where the
    separability identity and the Agler factorization conditions hold for
    every f, so such a grid would test nothing."""


# -- CLI ---------------------------------------------------------------------

class ParseError(DomainError):
    pass


class SchemaError(DomainError):
    pass
