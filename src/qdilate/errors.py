"""Exception types shared across the package."""


class QDilateError(Exception):
    """Base class for all library errors."""


class NotHermitianError(QDilateError):
    pass


class NegativeEigenvalueError(QDilateError):
    pass


class NotContractionError(QDilateError):
    pass


class DimensionMismatchError(QDilateError):
    pass


class NotIsometricOnSourceError(QDilateError):
    pass


class MaxIterationsExceededError(QDilateError):
    pass


class NotUnimodularError(QDilateError):
    pass


class NotQCommutingError(QDilateError):
    pass


class MixedTwistError(QDilateError):
    pass


class NotReducingError(QDilateError):
    pass


class RankDeficiencyError(QDilateError):
    pass


class FiberMismatchError(QDilateError):
    pass


class NotQCommutantError(QDilateError):
    pass


class FundamentalEquationResidualError(QDilateError):
    pass


class NonUnitarySolutionError(QDilateError):
    pass


class SingularResolventError(QDilateError):
    pass


class NotCnuError(QDilateError):
    pass


class TailTooLargeError(QDilateError):
    pass


class NotModelFormError(QDilateError):
    pass


class NotIntertwinerError(QDilateError):
    pass


class ParseError(QDilateError):
    pass


class GeneratorError(QDilateError):
    pass
