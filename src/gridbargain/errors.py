"""Exception types shared across the package."""


class GridBargainError(Exception):
    """Base class for all package errors."""


class InvariantViolation(GridBargainError):
    """A model or argument fails a structural invariant.

    Carries the full list of violations in ``violations`` so callers can
    report every problem at once.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DisconnectedGraph(GridBargainError):
    """The communication graph does not connect all nodes."""


class LengthMismatch(GridBargainError):
    """Series lengths disagree with the horizon or with each other."""


class TooFewScenarios(GridBargainError):
    """A scenario pool has fewer profiles than requested classes."""


class KindMismatch(GridBargainError):
    """A forecast vector does not match the scenario pool kind or size."""


class FileError(GridBargainError):
    """A referenced data file is missing or unreadable."""

    def __init__(self, path, reason="not found"):
        self.path = str(path)
        super().__init__(f"{self.path}: {reason}")


class Infeasible(GridBargainError):
    """The scheduling problem admits no feasible point."""


class SolverStall(GridBargainError):
    """The solver hit its iteration cap without meeting tolerance."""


class NoConvergence(GridBargainError):
    """An iterative routine exhausted its iteration budget."""


class NegativeGamma(GridBargainError):
    """A selfishness coefficient is negative."""


class ZeroIdealCost(GridBargainError):
    """An operation needs |D_i| > 0 but the ideal cost is zero."""
