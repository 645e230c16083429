"""Exception types shared across the package."""


class SensorPlaceError(Exception):
    """Base class for all errors raised by this package."""


class EmptyCloudError(SensorPlaceError):
    """A region-of-interest cloud is empty (or carries zero total criticality)."""


class BudgetExceededError(SensorPlaceError):
    """An exhaustive search would enumerate more candidates than allowed."""

    def __init__(self, count: int, budget: int):
        super().__init__(f"exhaustive search would enumerate {count} candidates (budget {budget})")
        self.count = count
        self.budget = budget


class SizeLimitError(SensorPlaceError, ValueError):
    """A problem lies outside a solver's size limits (qubits, sensor count);
    also a ValueError, as a value out of its constructor's range."""


class InfeasibleError(SensorPlaceError):
    """No selection can satisfy the problem constraints."""


class InsufficientSupportError(SensorPlaceError):
    """A measurement histogram does not contain enough feasible configurations."""


class MissingSideError(SensorPlaceError):
    """A whole-vehicle aggregate was requested without results for every side."""


class NoCriticalPointsError(SensorPlaceError):
    """No cloud point reaches the criticality threshold; the adherence fraction is undefined."""


class RoiParseError(SensorPlaceError):
    """A region-of-interest CSV row is malformed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EmptyFileError(SensorPlaceError):
    """A data file contains a header but no rows."""


class ConfigError(SensorPlaceError):
    """A run configuration is invalid (e.g. incompatible approach/solver pairing)."""
