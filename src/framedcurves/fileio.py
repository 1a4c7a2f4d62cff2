"""Small deterministic file-writing helpers shared by exporters and the CLI."""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager


@contextmanager
def atomic_open(path):
    """Text handle on a temp file that replaces path only if the block succeeds.

    The temp file sits in path's directory, so the final rename is atomic; on
    any exception it is removed and an existing file at path is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text):
    """Write text to path atomically (temp file + rename, same directory)."""
    with atomic_open(path) as handle:
        handle.write(text)


def format_float(x):
    """Shortest round-trip decimal form; stable across runs."""
    return repr(float(x))
