"""The package's typed errors, each importable also from the module that raises it.

ValueErrors are input the library cannot answer; RuntimeErrors are a failed
internal check.  The command line maps each to its exit code in cli.EXIT_CODES.
numerics keeps its two ArithmeticErrors beside QSqrt3.sqrt, whose one caller
catches them.
"""


class DimensionTooSmall(ValueError):
    """The construction needs n >= 4."""


class DimensionNotInteger(TypeError, ValueError):
    """n must be an integer, a numpy one too; a TypeError also, as range(5.0) raises."""


class AsymmetricInput(ValueError):
    """A Gram matrix must be symmetric."""


class SingularMatrix(ValueError):
    """The change-of-basis matrix must be invertible."""


class WrongSignature(ValueError):
    """Expected Lorentzian signature (n-1, 1)."""


class NotARepresentative(ValueError):
    """(lam, xi) is not one of the six canonical parameter pairs."""


class ZeroVector(ValueError):
    """The hyperbolic normal form needs a nonzero pair."""


class NotInGLambda(ValueError):
    """Expected last row (-lam, 0, ..., 0, 1) and last column e_n; lam = 0 is G_0."""


class NegativeT(ValueError):
    """The shear parameter t must be finite and nonnegative."""


class NoTableMatch(ValueError):
    """Restricted signatures match no row of the classification table."""


class AmbiguousNearWall(ValueError):
    """t lies in the wall band but too far from the wall to snap onto it.

    `candidates` holds the class off the wall and the wall class; `statistic`
    is the signed distance of t from the wall.
    """

    def __init__(self, candidates: tuple[tuple[int, str], tuple[int, str]], statistic: float):
        self.candidates = candidates
        self.statistic = statistic
        (lam, key), (_, wall) = candidates
        super().__init__(
            f"ambiguous near the wall xi = {wall}: t is {statistic:+.2e} from it, "
            f"so the class is ({lam}, {key}) or ({lam}, {wall})"
        )


class ClassificationMismatch(RuntimeError):
    """Witness pipeline and invariant classifier disagree."""


class NumericalBreakdown(RuntimeError):
    """A pivot or snap check failed; the caller may retry with a new factor."""


class EvidenceFailure(RuntimeError):
    """A recomputation that certifies a table failed."""


class OracleMismatch(RuntimeError):
    """Closed-form stabilizer dimension disagrees with the rank oracle."""
