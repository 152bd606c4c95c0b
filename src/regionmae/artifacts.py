"""Crash-safe writes: every file the pipeline writes goes through here.

A writer fills a temporary file beside its target, which replaces the
target (``os.replace``) only once it is complete. An exception removes the
temporary file and leaves the target as it was, old bytes or absent; a
killed process may leave a hidden ``.tmp`` file, but never a partial
target. Nothing is fsynced: this guards against a crash of the process,
not of the machine.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import secrets
from pathlib import Path


@contextlib.contextmanager
def replace_on_success(path):
    """Yield a binary file beside ``path`` that replaces ``path`` once the block succeeds.

    ``open`` applies the umask as a direct write would (``mkstemp`` would
    make the file owner-only).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_bytes(path, data) -> None:
    with replace_on_success(path) as fh:
        fh.write(data)


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8, its line ends unchanged."""
    write_bytes(path, text.encode("utf-8"))


def write_csv(path, header, rows, lineterminator: str = "\r\n") -> None:
    """A header row and ``rows`` as ``csv.writer`` formats them."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=lineterminator)
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, buf.getvalue())
