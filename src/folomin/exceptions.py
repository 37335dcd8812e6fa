"""Exception hierarchy shared by all modules.

Two broad classes matter to callers: ``DataError`` (bad input data,
CLI exit code 3) and ``NumericalError`` (a computation degenerated,
CLI exit code 4). Everything derives from ``FolominError`` so library
users can catch one type.
"""


class FolominError(Exception):
    """Base class for all errors raised by this package."""


class DataError(FolominError):
    """Input data violates a domain or format contract."""


class DomainError(DataError):
    """A response value is outside the family's support.

    ``kind`` names the family, ``index`` is the offending cell's index as
    plain ints, ``value`` its value and ``expected`` the family's support.
    """

    def __init__(self, kind: str, index, value: float, expected: str):
        self.kind = kind
        self.index = tuple(int(i) for i in index)
        self.value = float(value)
        self.expected = expected
        super().__init__(self.at(f"index {self.index}"))

    def at(self, where: str) -> str:
        """The message, with the cell named by ``where``."""
        return f"{self.kind} response at {where} is {self.value}, expected {self.expected}"

    def __reduce__(self):
        # keep the extra attributes through pickling (worker processes)
        return (type(self), (self.kind, self.index, self.value, self.expected))


class NumericalError(FolominError):
    """A numerical procedure degenerated or failed to converge."""


class DegenerateRotationError(NumericalError):
    """A rotation matrix lost rank (zero row under the Gram constraint)."""


class DegenerateFitError(NumericalError):
    """The factor fit collapsed (rank-deficient iterate)."""


class OracleFitError(NumericalError):
    """A per-row convex solve did not converge (e.g. separable data)."""


class InsufficientSimpleStructureError(NumericalError):
    """Fewer disjoint candidate simple-row sets than latent dimensions."""

    def __init__(self, found: int, needed: int, message: str | None = None):
        self.found = found
        self.needed = needed
        super().__init__(
            message
            or f"found only {found} disjoint candidate sets of the required "
            f"size, need {needed}"
        )

    def __reduce__(self):
        # keep the extra attributes through pickling (worker processes)
        return (type(self), (self.found, self.needed, str(self)))


class CollinearAxesError(NumericalError):
    """The detected rotation axes are numerically collinear."""


class DegenerateSubproblemError(NumericalError):
    """The weighted eigen-subproblem selected near-identical columns."""


class IllConditionedCovarianceError(NumericalError):
    """A plug-in bread matrix is too ill-conditioned to invert."""


class DegenerateVarianceError(NumericalError):
    """A requested interval has nonpositive variance."""


class DegenerateTargetError(NumericalError):
    """The oblique procrustes normal matrix is singular."""
