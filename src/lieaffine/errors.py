"""Exception types shared across the package."""


class LieToolError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(LieToolError):
    """Operands do not have the dimensions the operation requires."""


class SingularMatrixError(LieToolError):
    """A matrix that had to be invertible has determinant zero."""


class NotADerivationError(LieToolError):
    """A linear map violates the derivation identity on some basis pair."""


class NotInvariantError(LieToolError):
    """A linear map does not preserve the subspace it must preserve."""


class SingularOnDerivedError(LieToolError):
    """The restriction of a map to the derived subalgebra is singular."""


class NotLieAlgebraError(LieToolError):
    """Structure constants that violate the Jacobi identity on some basis triple."""


class NotClosedError(LieToolError):
    """A 2-form fails the cocycle condition."""


class DegenerateFormError(LieToolError):
    """An antisymmetric 2-form has determinant zero."""


class BadDimension(LieToolError):
    """Dimension outside the admissible range of an algebra family."""


class BadRange(LieToolError):
    """Index or shift parameter outside the admissible range."""


class WrongLambdaCount(LieToolError):
    """Lambda parameter list has the wrong length or vanishes entirely."""


class UnknownFamily(LieToolError):
    """Family identifier is not recognized."""


class SchemaError(LieToolError):
    """A JSON document does not match the expected schema."""


class NoStrategySucceeded(LieToolError):
    """No construction strategy produced an affine structure.

    Carries one failure reason per attempted strategy. This outcome only
    reports a failed search; it is never a proof that no structure exists.
    """

    def __init__(self, reasons):
        self.reasons = dict(reasons)
        detail = "; ".join(f"{name}: {why}" for name, why in self.reasons.items())
        super().__init__(f"no strategy produced an affine structure ({detail})")
