"""Error taxonomy shared by the whole package.

Two families, mapped to process exit codes by the CLI:

* ``ValidationError`` (exit 2): the input violates a structural invariant,
  a precondition on shapes/parities/classes, or fails to parse.
* ``NumericalGateError`` (exit 3): the input is structurally fine but a
  numerical gate refuses it (singular body, convergence bound, norm bound).
"""


class ValidationError(Exception):
    exit_code = 2


class NumericalGateError(Exception):
    exit_code = 3


# -- validation family --------------------------------------------------------

class ConfigMismatch(ValidationError):
    """Operands belong to different algebra configurations."""


class LengthMismatch(ValidationError):
    """Parallel lists have different lengths."""


class ShapeMismatch(ValidationError):
    """Matrix shapes are incompatible for the requested operation."""


class ParityMismatch(ValidationError):
    """An operand has the wrong parity or parity class."""


class NotEven(ValidationError):
    """A matrix expected to be of even class is not."""


class NotGradedSymmetric(ValidationError):
    """Metric blocks fail A = A^T, B = -B^T or D = C^T."""


class OddDimensionOdd(ValidationError):
    """The odd dimension n must be even."""


class NotBodyReduced(ValidationError):
    """The canonical form must have +-1 diagonal entries for this operation."""


class NonZeroBody(ValidationError):
    """A zero-body matrix or supernumber was required."""


class NotUnipotent(ValidationError):
    """The body of the matrix is not the identity."""


class BasisDegenerate(ValidationError):
    """Coordinates over the given basis are not uniquely solvable."""


class NonZeroBodyOperator(ValidationError):
    """The adjoint operator must have zero body for the spectrum gate."""


class NotLieElement(ValidationError):
    """The matrix does not satisfy the linearized isometry conditions."""


class NotBodyIsometry(ValidationError):
    """The real matrix does not preserve the body of the canonical form."""


# -- numerical-gate family -----------------------------------------------------

class BodyNotInvertible(NumericalGateError):
    """Inversion requested for an element or matrix with singular body."""


class DegenerateBody(NumericalGateError):
    """A body block that must be invertible is (numerically) singular."""


class ConvergenceViolation(NumericalGateError):
    """A series gate (norm < 1, or exact representability) was refused."""


class NormBoundViolation(NumericalGateError):
    """The log 2 bound for the series composition gate failed."""


class CoefficientOverflow(NumericalGateError):
    """A float64 coefficient overflowed to infinity."""
