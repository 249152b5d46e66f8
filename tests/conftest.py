import tracemalloc

import numpy as np
import pytest

from isoembed import SynthParams, generate_anisotropic

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
