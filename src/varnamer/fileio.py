"""Atomic file replacement for the artifacts the package writes."""

from __future__ import annotations

import contextlib
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
