"""Exception types shared across the package."""


class StrictGamesError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(StrictGamesError):
    """A game file, rational literal or payoff matrix is malformed."""


class EmptyGame(FormatError):
    """A payoff matrix has zero rows or zero columns: malformed input."""


class ShapeMismatch(FormatError):
    """The payoff matrices are not rectangular and equally shaped."""


class DimensionMismatch(StrictGamesError):
    """A strategy or profile does not match the game's action counts."""


class WeightOutOfRange(StrictGamesError):
    """A mixture weight lies outside [0, 1]."""


class AlphaNonpositiveError(StrictGamesError):
    """A scaling coefficient that must be positive is zero or negative."""


class NotZeroSum(StrictGamesError):
    """The game handed to the minimax solver is not zero-sum entrywise."""


class TooLarge(StrictGamesError):
    """Game dimensions exceed the support-enumeration size cap."""


class PivotBudgetExceeded(StrictGamesError):
    """The simplex made more pivots than its budget allows without reaching
    an optimum."""


class BadSpec(StrictGamesError):
    """A generator specification is invalid or unsatisfiable."""
