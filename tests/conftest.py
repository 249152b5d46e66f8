import ctypes
import functools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from isoembed import EmbeddingCorpus, SynthParams, generate_anisotropic
from isoembed.store import KIND_CODES

KIND_NAMES = {code: kind for kind, code in KIND_CODES.items()}

# Canonical anisotropic corpus used by the whitening and acceptance tests:
# 4096 rows, 64 dims, strong shared offset, 4 outlier dimensions at 20x.
ANISO_PARAMS = SynthParams(
    n_queries=64,
    n_docs=448,
    tokens_per_query=8,
    tokens_per_doc=8,
    dim=64,
    offset_magnitude=10.0,
    outlier_dims=4,
    outlier_scale=20.0,
    seed=1234,
)


@functools.cache
def blas_core() -> str | None:
    """The OpenBLAS kernel numpy's matrix products run on (``"SkylakeX"``,
    ``"Haswell"``, ...), as the library bundled with numpy reports it; None
    when numpy links another BLAS. The recorded digests hold for one kernel."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_-*.so")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def pytest_report_header(config):
    """numpy's version and its BLAS kernel: the recorded digests were taken
    under numpy 2.4.6 on ``SkylakeX``."""
    return f"numpy {np.__version__}, blas core: {blas_core() or 'not the OpenBLAS bundled with numpy'}"


@pytest.fixture(scope="session")
def aniso_corpus():
    return generate_anisotropic(ANISO_PARAMS)


@pytest.fixture(scope="session")
def aniso_matrix(aniso_corpus) -> np.ndarray:
    return aniso_corpus.matrix


class TracedPeak:
    """``with TracedPeak() as traced:`` traces the allocations made inside
    the block, numpy's buffers included; afterwards ``traced.peak`` is
    their peak in bytes."""

    peak = 0

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc_info):
        self.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return TracedPeak


def table_corpus(matrix, table) -> EmbeddingCorpus:
    """A corpus over ``matrix`` whose sequence table is ``table``: a list of
    ``(id, kind, row_offset, token_count)`` tuples, ``kind`` a KIND_CODES
    name."""
    ids = [entry[0] for entry in table]
    kinds = np.array([KIND_CODES[entry[1]] for entry in table], dtype=np.uint8)
    offsets, counts = (np.array([entry[k] for entry in table], dtype=np.int64) for k in (2, 3))
    return EmbeddingCorpus(matrix, ids, kinds, offsets, counts)


def table_of(corpus: EmbeddingCorpus) -> list[tuple[str, str, int, int]]:
    """``corpus``'s sequence table as ``table_corpus`` takes it."""
    kinds = [KIND_NAMES[code] for code in corpus.kinds.tolist()]
    return list(zip(corpus.ids, kinds, corpus.offsets.tolist(), corpus.counts.tolist()))
