"""All-or-nothing artifact writes.

Every artifact is written to a temporary file in its target's directory
and moved into place with ``os.replace`` only after the writer finished.
An interrupted or failing write therefore leaves any previous file at the
path untouched and removes its temporary file. The replace is atomic on
POSIX and Windows because source and target share a directory. Data is not
fsynced: this guards against interrupted commands, not against power loss.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_write(path, text: bool = False):
    """Yield a file object whose contents replace ``path`` on success.

    ``text=True`` opens it as UTF-8 text with "\\n" line endings, otherwise
    it is binary.
    """
    target = os.fspath(path)
    directory, name = os.path.split(target)
    temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        if text:
            fh = open(temp, "x", encoding="utf-8", newline="\n")
        else:
            fh = open(temp, "xb")
        with fh:
            yield fh
        os.replace(temp, target)
    except BaseException:
        try:
            os.unlink(temp)
        except FileNotFoundError:
            pass
        raise
