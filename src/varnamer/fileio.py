"""Atomic replacement of the files the package writes, the one writer of
its row artifacts (JSON lines), and the reader of its whole-file text inputs."""

from __future__ import annotations

import contextlib
import json
import os


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w", **open_kwargs):
    """Open a temporary file beside ``path`` for writing; when the block
    exits normally, rename it over ``path``. If the block raises, the
    temporary file is removed and ``path`` keeps its previous contents.

    The temporary file lives in the same directory, so the final
    ``os.replace`` never crosses a filesystem and readers see either the
    old file or the complete new one.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_jsonl(path: str, rows) -> None:
    """Write each row (a JSON-serializable dict) as one JSON line, atomically."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def read_text(path: str, fail) -> str:
    """The text of ``path`` as UTF-8, each CR LF or lone CR read as LF, as
    text mode reads them. A byte that is not UTF-8 raises
    ``fail(line_no)``, with the 1-based line it is on."""
    with open(path, "rb") as fh:
        blob = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise fail(blob[:exc.start].count(b"\n") + 1) from None
