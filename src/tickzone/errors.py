"""Exception types raised across the package."""
import contextlib

# a longer field is shown by its head and its length, so one bad field cannot make a huge message
_FIELD_SHOWN = 40


def show_field(text: str, short=repr) -> str:
    """A field as a message shows it: ``short(text)``, or its quoted head and length if it is long."""
    if len(text) <= _FIELD_SHOWN:
        return short(text)
    return f"{text[:_FIELD_SHOWN] + '…'!r} ({len(text)} characters)"


class TickzoneError(Exception):
    """Base class for all package errors."""


@contextlib.contextmanager
def writing(path, doing: str = "write file"):
    """Turn an OSError in the block into ``TickzoneError("<path>: cannot <doing>: <strerror>")``."""
    try:
        yield
    except OSError as exc:
        raise TickzoneError(f"{path}: cannot {doing}: {exc.strerror or exc}") from None


class ParameterError(TickzoneError, ValueError):
    """An argument violates a documented precondition."""


class MissingFitError(ParameterError):
    """A forecast version needs fit coefficients that the scenario lacks."""


class TapeError(ParameterError):
    """A tape row breaks a tape rule; ``row`` is its index and ``message`` the rule."""

    def __init__(self, message: str, row: int):
        super().__init__(f"row {row}: {message}")
        self.message = message
        self.row = row


class DomainError(TickzoneError, ValueError):
    """A closed-form expression was evaluated outside its mathematical domain."""


class OffGridError(TickzoneError, ValueError):
    """A price is not representable on the asset's tick grid."""


class InsufficientDataError(TickzoneError):
    """Too few observations for the requested statistic."""


class DegenerateTapeError(InsufficientDataError):
    """No alternations in the tape, so the zone-width estimator is undefined."""


class CollinearityError(TickzoneError):
    """Regression design matrix is rank deficient."""


class PartialDataError(TickzoneError):
    """Required fields are missing from some rows."""

    def __init__(self, message: str, rows=None):
        super().__init__(message)
        self.rows = list(rows) if rows is not None else []


class IngestError(TickzoneError):
    """A trade file failed validation."""

    def __init__(self, message: str, path=None, line=None):
        if path is not None:
            message = f"{path}: {message}" if line is None else f"{path}:{line}: {message}"
        super().__init__(message)
        self.path = path
        self.line = line
