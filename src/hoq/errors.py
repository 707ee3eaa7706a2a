"""Exception hierarchy for the hoq toolkit."""


class HoqError(Exception):
    """Base class for all errors raised by this package."""


class TypeSyntaxError(HoqError):
    """Type string could not be parsed.

    Carries the character position and a description of what was expected.
    """

    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} at position {position}"
                         + (f" (expected {', '.join(expected)})" if expected else ""))
        self.position = position
        self.expected = tuple(expected)


class UnknownSystem(HoqError):
    """A system label is not present in the registry."""

    def __init__(self, label):
        super().__init__(f"unknown system label {label!r}")
        self.label = label


class DuplicateSystem(HoqError):
    """A non-trivial system label occurs more than once in a type."""


class HatDimMismatch(HoqError):
    """The two hatted systems of a bidirectional pair have different dimensions."""

    def __init__(self, hat_in, hat_out, dim_in, dim_out):
        super().__init__(
            f"hatted systems must be isomorphic: dim({hat_in})={dim_in}, dim({hat_out})={dim_out}")
        self.hat_in, self.hat_out = hat_in, hat_out


class HatInStandardHierarchy(HoqError):
    """A hatted elementary type appeared where only hat-free types are allowed."""


class LabelCollision(HoqError):
    """Tensor product of operators with overlapping factor labels."""


class BadPermutation(HoqError):
    """Requested factor order is not a permutation of the operator's factors."""


class UnknownLabel(HoqError):
    """Referenced factor label not present in the operator."""


class DimMismatch(HoqError):
    """Shared factor labels carry different dimensions."""


class ShapeMismatch(HoqError):
    """Matrix data has the wrong shape for the declared factors."""


class NotHermitian(HoqError):
    """Operation requires a Hermitian input within tolerance."""


class NonFiniteOperator(HoqError):
    """Operator has NaN or infinite entries."""


class FactorMismatch(HoqError):
    """Operator factors do not match the systems of the type being checked."""


class NoHattedSystems(HoqError):
    """Classification requires a type containing at least one hatted pair."""


class NotAFunctional(HoqError):
    """Operator is not a deterministic functional on a bidirectional pair."""


class BadProbability(HoqError):
    """Probability parameter outside [0, 1]."""


class NotDensity(HoqError):
    """Operator is not a valid density operator."""


class BadLevels(HoqError):
    """Invalid basis-level parameters for a diagonal process constructor."""


class SizeLimit(HoqError):
    """Construction would exceed the configured total-dimension cap."""


class BlockCheckFailed(HoqError):
    """A network block failed its slot-type membership check."""

    def __init__(self, index, report):
        super().__init__(f"block {index} failed its slot-type check: residual "
                         f"{report.sector_residual:.3e}, psd {report.psd_text()}")
        self.index = index
        self.report = report


class MemoryDimMismatch(HoqError):
    """Adjacent network blocks disagree on a memory dimension."""


class NotANetwork(HoqError):
    """Operator fails the causally-ordered network characterization."""


class RankInstability(HoqError):
    """Support rank of a peeled marginal is numerically ambiguous."""


class RecursionLimit(HoqError):
    """Type nesting exceeds the configured recursion limit."""


class ConfigError(HoqError):
    """Configuration file is malformed or contains unknown keys."""
