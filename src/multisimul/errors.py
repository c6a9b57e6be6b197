"""Exception hierarchy shared by all modules."""


class MultisimulError(Exception):
    """Base class for all package errors."""


class ContractError(MultisimulError, ValueError):
    """A caller violated a documented precondition."""


class InputError(MultisimulError):
    """Malformed or unreadable input data."""


class ParseError(InputError):
    """A file could not be parsed; carries location information in the message."""


class AlignmentMismatchError(InputError):
    """Line or index counts of supposedly parallel resources disagree."""


class ConfigError(MultisimulError):
    """Invalid experiment configuration."""


class DegenerateTableError(InputError):
    """A contingency table has a zero marginal and cannot be tested."""


class UnattainableWerError(MultisimulError):
    """The requested WER target cannot be reached by rescaling the model."""


class ModelFormatError(InputError):
    """A serialized noise model file is malformed or has an unknown version."""


class EngineError(MultisimulError):
    """The streaming decoding engine detected an internal inconsistency."""
