"""File formats shared across the package: the binary container of the
spectrum cache and the descriptor files, the writer of every text table and
the maker of every output directory."""

import struct
from pathlib import Path

import numpy as np

from .errors import DataError


class Container:
    """An 8-byte magic, a little-endian struct header, then raw bytes and float64
    values that end exactly at the end of the file; `what` names the kind."""

    def __init__(self, magic: bytes, fmt: str, what: str):
        self.magic, self.fmt, self.what = magic, fmt, what
        self.size = len(magic) + struct.calcsize(fmt)

    def pack(self, header, *parts) -> bytes:
        """Bytes parts go in as they are, arrays as row-major float64."""
        blobs = [p if isinstance(p, bytes) else np.asarray(p, "<f8").tobytes() for p in parts]
        return b"".join([self.magic, struct.pack(self.fmt, *header), *blobs])

    def read(self, path) -> tuple[bytes, tuple]:
        """File bytes and header fields; the body starts at ``self.size``."""
        if not Path(path).is_file():
            raise DataError(f"{self.what} file not found: {path}")
        raw = Path(path).read_bytes()
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
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in head)
        fh.writelines(sep.join(map(str, row)) + "\n" for row in rows)
