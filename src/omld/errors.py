"""Common exception base for the toolkit.

Every error raised by omld's own logic derives from ToolkitError, so callers
(notably the CLI) can distinguish toolkit failures from programming errors.
"""

from pathlib import Path


class ToolkitError(Exception):
    pass


class NonFiniteResultError(ToolkitError):
    """An evaluation step whose value is not a finite real float."""


def decode_utf8(raw: bytes, path: Path) -> str:
    """The bytes of file ``path`` as text; bytes that are not UTF-8 are a ToolkitError naming it."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ToolkitError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def read_utf8(path: Path) -> str:
    """The text of a UTF-8 file, with each line ending read as ``\\n``; see ``decode_utf8``."""
    return decode_utf8(path.read_bytes(), path).replace("\r\n", "\n").replace("\r", "\n")
