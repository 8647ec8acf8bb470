"""Common exception base for the toolkit.

Every error raised by omld's own logic derives from ToolkitError, so callers
(notably the CLI) can distinguish toolkit failures from programming errors.
"""

from pathlib import Path


class ToolkitError(Exception):
    pass


class NonFiniteResultError(ToolkitError):
    """An evaluation step whose value is not a finite real float."""


def read_file(path: Path) -> tuple[bytes, str]:
    """The bytes of file ``path`` and their text.

    A file that cannot be read or is not UTF-8 is a ToolkitError whose
    message starts with the path.
    """
    try:
        raw = path.read_bytes()
        return raw, raw.decode("utf-8")
    except OSError as exc:
        raise ToolkitError(f"{path}: cannot read ({exc.strerror or exc})") from None
    except UnicodeDecodeError as exc:
        raise ToolkitError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def read_utf8(path: Path) -> str:
    """The text of a UTF-8 file, with each line ending read as ``\\n``; see ``read_file``."""
    return read_file(path)[1].replace("\r\n", "\n").replace("\r", "\n")
