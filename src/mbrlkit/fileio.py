"""Crash-safe file writes: write a temporary file beside the target, then
rename it over the target, so a reader sees the old file or the new one and
never a torn one."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def replace_on_success(path):
    """Yields a temporary path in path's directory whose name ends with
    path's name (so np.savez keeps it as it is). When the block completes,
    os.replace moves it onto path; when the block raises, it is removed and
    path is left as it was."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".tmp{os.getpid()}-{tail}")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
