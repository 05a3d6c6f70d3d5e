"""Exceptions shared across the pipeline; the CLI maps them to exit codes."""

from contextlib import contextmanager


class ValidationError(ValueError):
    """Bad input, configuration, or precondition (exit code 1)."""


class MissingArtifactError(FileNotFoundError):
    """An upstream pipeline artifact is absent (exit code 2)."""


@contextmanager
def parsing(path):
    """Re-raise a parse error of the file at `path` as a `ValidationError`."""
    try:
        yield
    except ValidationError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: cannot parse: {exc}") from exc
