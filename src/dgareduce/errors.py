"""Exception and warning types shared across the package."""


class DgaError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(DgaError):
    """A table or file does not match the expected column schema."""


class EmptyDatasetError(DgaError):
    """No usable rows survived ingestion."""


class ValidationError(DgaError):
    """A value violates a domain invariant (negative ppm, bad decision, ...)."""


class ParameterError(DgaError, ValueError):
    """An argument is outside its admissible range."""


class ShapeError(DgaError):
    """Array widths or row counts do not line up."""


class DependencyDegenerateError(DgaError):
    """Degree of dependency of the full attribute set is zero; no reduct exists."""


class TrainingDivergedError(DgaError):
    """Training produced a non-finite loss."""


class PruneError(DgaError):
    """Reduced-error pruning lowered validation accuracy, which it must never do."""


class ConfigError(DgaError):
    """An experiment configuration file or block is invalid."""


class NoUncertaintyWarning(UserWarning):
    """Every input interval is degenerate; the rough network trains as a point network."""


class DegenerateSelectionWarning(UserWarning):
    """An attribute selector produced an empty selection (single-leaf tree)."""


class PruneSkippedWarning(UserWarning):
    """Pruning was skipped because the validation set is empty."""
