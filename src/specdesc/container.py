"""The one file layer: every file the pipeline reads goes through `read_file`
(or `read_text`), and every file it writes through `write_file` into the
staging directory of an `output_dir`, which commits a command's files whole;
also the binary container of the spectrum cache and descriptor files, and
text tables."""

import itertools
import logging
import os
import shutil
import struct
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError, ParseError

log = logging.getLogger("specdesc")


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
    """Write the str chunks (mode "w") or bytes-like chunks ("wb") to `path`."""
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise DataError(f"{path}: cannot write: {exc.strerror}") from exc


def _remove_stale_stages(out: Path, prefix: str) -> None:
    """Remove each PREFIX.PID.* staging directory in `out` whose process no
    longer runs, logging a removal that fails; leave every other one."""
    for stage in out.glob(prefix + "*"):
        pid, *suffix = stage.name[len(prefix):].split(".")
        try:
            if len(suffix) == 1 and pid.isdecimal():
                os.kill(int(pid), 0)
        except ProcessLookupError:  # no process has this pid
            try:
                shutil.rmtree(stage)
            except OSError as exc:
                log.warning("%s: cannot remove stale staging directory: %s", stage, exc.strerror)
        except (OverflowError, OSError):  # not a pid, or another user's process
            pass


@contextmanager
def output_dir(path):
    """Yield a staging directory, named after this host and process, made
    inside `path` (and `path` with its parents), for a command's files. When
    the block ends cleanly, each staged file replaces its namesake in `path`
    by an atomic rename, the manifest last, so no reader or concurrent writer
    sees half-written bytes and a manifest never lists a file that is not in
    place; a name taken by a directory in `path` fails before any file moves.
    Either way the files left staged and the staging directory go, and
    `path` too when this call made it and it is left empty. On entry, the
    staging directories that processes of this host left when they died go."""
    out = Path(path)
    made = not out.is_dir()
    prefix = f".staging.{os.uname().nodename}."
    try:
        out.mkdir(parents=True, exist_ok=True)
        _remove_stale_stages(out, prefix)
        stage = Path(tempfile.mkdtemp(prefix=f"{prefix}{os.getpid()}.", dir=out))
    except OSError as exc:
        raise DataError(f"{out}: cannot create directory: {exc.strerror}") from exc
    try:
        yield stage
        names = sorted(os.listdir(stage), key=lambda n: (n.startswith("manifest."), n))
        taken = [out / name for name in names if (out / name).is_dir()]
        if taken:
            raise DataError(f"{taken[0]}: cannot write: Is a directory")
        for name in names:
            try:
                os.replace(stage / name, out / name)
            except OSError as exc:
                raise DataError(f"{out / name}: cannot write: {exc.strerror}") from exc
    finally:
        shutil.rmtree(stage)
        if made and not any(out.iterdir()):
            out.rmdir()


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


def write_table(path, head, rows=(), sep: str = ",") -> None:
    """Write the `head` lines as given, then one line per row of `rows`, its
    cells joined by `sep`. Cells are Python scalars (rows come from
    ``.tolist()``) written with ``str``, which for a float is its shortest
    round-trip ``repr``, so equal values always give equal bytes. Every line
    ends in a newline."""
    write_file(path, itertools.chain((line + "\n" for line in head),
                                     (sep.join(map(str, row)) + "\n" for row in rows)))
