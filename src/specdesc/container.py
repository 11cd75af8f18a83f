"""The one file layer: every file the pipeline reads or writes goes through
`read_file` (or `read_text`) and `write_file`, which name the file in any
failure and replace a file whole or not at all; also the binary container of
the spectrum cache and descriptor files, text tables and output directories."""

import itertools
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .errors import DataError, ParseError


def read_file(path, what: str) -> bytes:
    """The bytes of the `what` file at `path`."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read {what} file: {exc.strerror}") from exc


def read_text(path, what: str) -> str:
    """The `what` file at `path` as UTF-8 text, line ends as they are."""
    raw = read_file(path, what)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def write_file(path, chunks, mode: str = "w") -> None:
    """Write the str chunks (mode "w") or bytes-like chunks ("wb") to a temp
    file of this writer's own beside `path`, then move it into place, so no
    reader or concurrent writer sees half-written bytes. mkstemp makes the
    temp file 0600; it gets the mode a plain open() would give."""
    path = Path(path)
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
                os.fchmod(fd, 0o666 & ~umask)
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise DataError(f"{path}: cannot write: {exc.strerror}") from exc


class Container:
    """An 8-byte magic, a little-endian struct header, then raw bytes and float64
    values that end exactly at the end of the file; `what` names the kind."""

    def __init__(self, magic: bytes, fmt: str, what: str):
        self.magic, self.fmt, self.what = magic, fmt, what
        self.size = len(magic) + struct.calcsize(fmt)

    def write(self, path, header, *parts) -> None:
        """Bytes parts go in as they are, arrays as row-major float64."""
        write_file(path, [self.magic, struct.pack(self.fmt, *header),
                          *(p if isinstance(p, bytes) else np.ascontiguousarray(p, "<f8")
                            for p in parts)], "wb")

    def read(self, path) -> tuple[bytes, tuple]:
        """File bytes and header fields; the body starts at ``self.size``."""
        raw = read_file(path, self.what)
        if len(raw) < self.size or raw[: len(self.magic)] != self.magic:
            raise DataError(f"{path}: not a {self.what} file")
        return raw, struct.unpack_from(self.fmt, raw, len(self.magic))

    def floats(self, raw: bytes, offset: int, count: int, path) -> np.ndarray:
        """`count` float64 values from `offset` to the very end of the file."""
        if len(raw) != offset + 8 * count:
            raise DataError(f"{path}: truncated {self.what} file")
        values = np.frombuffer(raw, "<f8", count, offset).copy()
        if not np.isfinite(values).all():
            raise DataError(f"{path}: {self.what} file holds non-finite values")
        return values


def make_dir(path) -> Path:
    """`path` as a directory, made with its parents when missing; a path
    that cannot be one, such as an existing file, is a DataError naming it."""
    p = Path(path)
    try:
        p.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"{p}: cannot create directory: {exc.strerror}") from exc
    return p


def write_table(path, head, rows=(), sep: str = ",") -> None:
    """Write the `head` lines as given, then one line per row of `rows`, its
    cells joined by `sep`. Cells are Python scalars (rows come from
    ``.tolist()``) written with ``str``, which for a float is its shortest
    round-trip ``repr``, so equal values always give equal bytes. Every line
    ends in a newline."""
    write_file(path, itertools.chain((line + "\n" for line in head),
                                     (sep.join(map(str, row)) + "\n" for row in rows)))
