"""Common exception base for the toolkit.

Every error raised by omld's own logic derives from ToolkitError, so callers
(notably the CLI) can distinguish toolkit failures from programming errors.
"""

from pathlib import Path


class ToolkitError(Exception):
    pass


class NonFiniteResultError(ToolkitError):
    """An evaluation step whose value is not a finite real float."""


def read_utf8(path: Path) -> str:
    """The text of a UTF-8 file; a file that is not UTF-8 is a ToolkitError naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ToolkitError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
