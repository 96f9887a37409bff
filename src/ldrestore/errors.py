"""Exception hierarchy shared across the package."""


class LdrError(Exception):
    """Base class for all package errors."""


class DimensionError(LdrError):
    """Incompatible tensor/image shapes."""


class ParameterError(LdrError):
    """A numeric parameter is outside its valid range."""


class ConfigurationError(LdrError):
    """Invalid run or model configuration."""


class ContractViolation(LdrError):
    """An operation was called outside its contract (caller bug)."""


class FormatError(LdrError):
    """Malformed file content; carries a byte offset when known."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class TrainingError(LdrError):
    """Training aborted; carries diagnostic context."""

    def __init__(self, message, step=None, lr=None, loss_history=None):
        super().__init__(message)
        self.step = step
        self.lr = lr
        self.loss_history = list(loss_history or [])
