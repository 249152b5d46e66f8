"""Bounded reads for the binary artifact formats (EMB1, WHT1, FLW1).

A reader knows the total size of its stream before it reads anything, so
no read can ask for more bytes than remain. A loader compares the sizes a
header announces with what is left before it allocates an array of that
size, and reads arrays straight into their final buffers. A malformed
file therefore costs at most its own size to reject.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import CorpusFormatError


class BoundedReader:
    """Reads from a stream of ``size`` bytes; every shortfall raises
    CorpusFormatError "<label>: truncated <noun>"."""

    def __init__(self, fh, size: int, label, noun: str):
        self.fh = fh
        self.size = size
        self.pos = 0
        self.label = label
        self.noun = noun

    @property
    def remaining(self) -> int:
        return self.size - self.pos

    def truncated(self) -> CorpusFormatError:
        return CorpusFormatError(f"{self.label}: truncated {self.noun}")

    def _claim(self, n: int) -> None:
        if n > self.remaining:
            raise self.truncated()
        self.pos += n

    def take(self, n: int) -> bytes:
        self._claim(n)
        chunk = self.fh.read(n)
        if len(chunk) != n:
            raise self.truncated()
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, count: int, dtype: str) -> np.ndarray:
        dt = np.dtype(dtype)
        return np.frombuffer(self.take(count * dt.itemsize), dtype=dt)

    def read_into(self, out) -> None:
        """Fill the writable buffer ``out`` (a C-contiguous array or an
        anonymous map) from the stream, without a copy."""
        nbytes = memoryview(out).nbytes
        self._claim(nbytes)
        if self.fh.readinto(out) != nbytes:
            raise self.truncated()


@contextmanager
def open_bounded(path, noun: str):
    """Open ``path`` for reading; yields a BoundedReader sized by fstat."""
    with open(path, "rb") as fh:
        yield BoundedReader(fh, os.fstat(fh.fileno()).st_size, str(path), noun)
