"""Isotropy measurement for embedding matrices.

Two complementary metrics:

* ``partition_ratio``: ratio of the smallest to the largest partition
  function value over the eigenvectors of the row-gram matrix. Equals 1
  for perfectly isotropic data and approaches 0 as one direction dominates.
* ``avg_pairwise_cosine``: mean cosine similarity over row pairs; near 0
  for directionally uniform data, near 1 for a narrow cone.

Both are evaluated in log space where needed so that rows with large norms
cannot overflow the partition function.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import EmptyInputError, ZeroNormError
from .rng import PinnedRng
from .store import as_matrix

FULL_BATCH = "full"
# Bytes per block of each pass that streams a matrix by rows: ``row_norms``,
# the sampled cosine's gathers per operand, ``dimension_profile`` and
# ``scoring``'s in-place passes. Smaller blocks run as fast, and peak no
# higher: in a fresh process the walkthrough's colbert and repbert glow
# reranks peak at 48.7 and 47.6 MB with 4 MiB blocks, 47.5 and 47.4 MB
# with 1 MiB ones.
BLOCK_BYTES = 1 << 22
# Columns of the projections that ``partition_ratio`` copies into
# contiguous rows at a time: eight doubles are one cache line of a row.
PARTITION_COLUMNS = 8
# Rows per step of that copy: the 64 KB of cache lines read and the 64 KB
# written stay in cache. Copying whole strips of 120,800 rows took twice
# as long.
PARTITION_ROWS = 1024


def block_rows(dim: int) -> int:
    """Rows of ``dim`` doubles per BLOCK_BYTES block, at least one."""
    return max(1, BLOCK_BYTES // (8 * dim))


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row; for a C-contiguous matrix, bitwise
    equal to ``np.linalg.norm(matrix, axis=1)``.

    That call squares the whole matrix into one temporary as large as the
    input; this squares BLOCK_BYTES of rows at a time into one C-order
    buffer and sums each row as numpy does, so a row's sum never spans
    two blocks.
    """
    n, dim = matrix.shape
    norms = np.empty(n)
    step = block_rows(dim)
    squares = np.empty((min(n, step), dim))
    for start in range(0, n, step):
        block = matrix[start : start + step]
        square = np.multiply(block, block, out=squares[: block.shape[0]])
        np.sqrt(np.add.reduce(square, axis=1), out=norms[start : start + step])
    return norms


@dataclass(frozen=True)
class IsotropyReport:
    i_w: float
    avg_cos: float
    n_rows: int
    dim: int
    batch_size: int | str
    batches_averaged: int

    def __post_init__(self):
        if not 0.0 <= self.i_w <= 1.0:
            raise ValueError(f"i_w out of [0, 1]: {self.i_w}")
        if not -1.0 <= self.avg_cos <= 1.0:
            raise ValueError(f"avg_cos out of [-1, 1]: {self.avg_cos}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass(frozen=True)
class DimensionProfile:
    """Per-dimension statistics of a matrix, with spiky-dimension flags."""

    mean: np.ndarray
    std: np.ndarray
    max_abs: np.ndarray
    outlier_flags: np.ndarray
    outlier_factor: float


def _logsumexp(x: np.ndarray, shifted: np.ndarray, negate: bool = False) -> float:
    """log sum exp(v) for v = -x if ``negate`` else x, over a contiguous
    row ``x``; ``shifted`` receives v - max(v).

    min(x) - x rounds as -x - (-min(x)) does, round-to-nearest being
    symmetric, so the negated half has the bits of a log-sum-exp of -x
    without negating x first.
    """
    top = -x.min() if negate else x.max()
    if not np.isfinite(top):  # the projections overflowed
        return float(top)
    if negate:
        np.subtract(-top, x, out=shifted)
    else:
        np.subtract(x, top, out=shifted)
    return float(top + np.log(np.add.reduce(np.exp(shifted, out=shifted))))


def partition_ratio(matrix) -> float:
    """Min/max partition-function ratio over the gram-matrix eigenvectors.

    The partition function q(a) = sum_i exp(w_i . a) is evaluated at +v and
    -v for every eigenvector v of W^T W, which removes the eigenvector sign
    ambiguity: the result is the same whichever sign convention the
    eigensolver uses. Eigenvectors of exactly repeated eigenvalues remain
    basis-ambiguous; the deterministic ascending-order symmetric solver
    output is used, and fully symmetric inputs yield 1 under any convention.
    """
    w = as_matrix(matrix)
    if w.shape[0] == 0:
        raise EmptyInputError("partition_ratio needs at least one row")
    gram = w.T @ w
    _, vectors = np.linalg.eigh(gram)
    # projections: row i, eigenvector k -> w_i . v_k
    projections = w @ vectors
    n, dim = projections.shape
    # A column of the projections is strided by a whole row; each pass
    # copies PARTITION_COLUMNS of them into contiguous rows, so every
    # log-sum-exp reads memory in order.
    rows = np.empty((min(dim, PARTITION_COLUMNS), n))
    shifted = np.empty(n)
    log_q = np.empty(2 * dim)
    for start in range(0, dim, PARTITION_COLUMNS):
        columns = projections[:, start : start + PARTITION_COLUMNS]
        block = rows[: columns.shape[1]]
        for row in range(0, n, PARTITION_ROWS):
            np.copyto(block[:, row : row + PARTITION_ROWS], columns[row : row + PARTITION_ROWS].T)
        for k, x in enumerate(block, start):
            log_q[2 * k] = _logsumexp(x, shifted)
            log_q[2 * k + 1] = _logsumexp(x, shifted, negate=True)
    ratio = float(np.exp(log_q.min() - log_q.max()))
    return min(ratio, 1.0)


def avg_pairwise_cosine(
    matrix,
    mode: str = "exact",
    pairs: int = 1_000_000,
    seed: int = 0,
) -> float:
    """Mean cosine similarity over distinct row pairs.

    ``mode="exact"`` averages all n(n-1)/2 unordered pairs; ``"sampled"``
    averages ``pairs`` random pairs (i != j) drawn from the pinned stream,
    for matrices too large for the quadratic exact path. Both estimates
    are clamped to [-1, 1]: for a collapsed corpus (identical or parallel
    rows) rounding can otherwise land just above 1.
    """
    w = as_matrix(matrix)
    n = w.shape[0]
    if n < 2:
        raise EmptyInputError("avg_pairwise_cosine needs at least two rows")
    norms = row_norms(w)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroNormError(f"row {zero[0]} has zero norm; cosine undefined")
    unit = w / norms[:, None]
    if mode == "exact":
        # sum over i<j of u_i . u_j == (|sum u|^2 - n) / 2
        total = np.linalg.norm(unit.sum(axis=0)) ** 2 - n
        return float(np.clip(total / (n * (n - 1)), -1.0, 1.0))
    if mode == "sampled":
        # Gathering unit[i] and unit[j] for every pair at once would take
        # 2 * pairs * dim doubles, and the pairs' indices alone 16 bytes a
        # pair; blocks bound both, and each pair's dot product is the same
        # whichever block computes it.
        step = block_rows(w.shape[1])
        blocks = PinnedRng(seed).index_pair_blocks(pairs, n, step)
        dots = np.empty(pairs)
        for start, (i, j) in zip(range(0, pairs, step), blocks):
            # take gathers the rows of unit[i], bounds-checked, but faster
            np.einsum(
                "ij,ij->i",
                unit.take(i, axis=0),
                unit.take(j, axis=0),
                out=dots[start : start + step],
            )
        return float(np.clip(dots.mean(), -1.0, 1.0))
    raise ValueError(f"unknown mode {mode!r}")


EXACT_COSINE_LIMIT = 20_000
SAMPLED_COSINE_PAIRS = 1_000_000


def measure(
    matrix,
    batch_size: int | str = FULL_BATCH,
    cosine_mode: str = "exact",
    seed: int = 0,
) -> IsotropyReport:
    """Both metrics averaged over consecutive row batches.

    The matrix is split into consecutive blocks of ``batch_size`` rows; a
    trailing block is kept only if it has at least 2 rows. Metrics are
    computed per block and arithmetically averaged.

    ``cosine_mode`` may be "exact", "sampled", or "auto"; auto switches a
    block to sampling (10^6 pinned-stream pairs) once the quadratic exact
    path would exceed 20000 rows.
    """
    w = as_matrix(matrix)
    n = w.shape[0]
    if batch_size == FULL_BATCH:
        blocks = [w]
    else:
        if batch_size < 2:
            raise ValueError("batch_size must be >= 2 or 'full'")
        blocks = [w[start : start + batch_size] for start in range(0, n, batch_size)]
        if len(blocks) > 1 and blocks[-1].shape[0] < 2:
            blocks.pop()
    if not blocks or blocks[0].shape[0] == 0:
        raise EmptyInputError("measure needs at least one non-empty batch")
    if cosine_mode not in ("exact", "sampled", "auto"):
        raise ValueError(f"unknown cosine_mode {cosine_mode!r}")

    def block_cosine(block):
        mode = cosine_mode
        if mode == "auto":
            mode = "exact" if block.shape[0] <= EXACT_COSINE_LIMIT else "sampled"
        if mode == "exact":
            return avg_pairwise_cosine(block)
        return avg_pairwise_cosine(block, mode="sampled", pairs=SAMPLED_COSINE_PAIRS, seed=seed)

    ratios = [partition_ratio(block) for block in blocks]
    try:
        cosines = [block_cosine(block) for block in blocks]
    except ZeroNormError:
        # A block names its own row; the blocks run in order from row 0, so
        # the failing one holds the first zero row the blocks cover.
        measured = w[: sum(block.shape[0] for block in blocks)]
        row = np.flatnonzero(row_norms(measured) == 0.0)[0]
        raise ZeroNormError(f"row {row} has zero norm; cosine undefined") from None
    return IsotropyReport(
        i_w=float(np.mean(ratios)),
        avg_cos=float(np.mean(cosines)),
        n_rows=n,
        dim=w.shape[1],
        batch_size=batch_size,
        batches_averaged=len(blocks),
    )


def _column_std(w: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """``w.std(axis=0)`` for a C-contiguous matrix of two or more columns,
    bit for bit, squaring BLOCK_BYTES of deviations at a time.

    numpy sums each column of such a matrix row after row. Row 0 of the
    block buffer carries the running sum, so reducing rows 0..m of it
    continues that sum in the same order.
    """
    n, dim = w.shape
    step = block_rows(dim)
    squares = np.empty((min(n, step) + 1, dim))
    total = np.zeros(dim)
    for start in range(0, n, step):
        block = w[start : start + step]
        rows = squares[: block.shape[0] + 1]
        deviations = np.subtract(block, mean, out=rows[1:])
        np.multiply(deviations, deviations, out=deviations)
        rows[0] = total
        np.add.reduce(rows, axis=0, out=total)
    return np.sqrt(total / n)


def dimension_profile(matrix, outlier_factor: float = 5.0) -> DimensionProfile:
    """Per-dimension mean/std/max-abs with spiky-dimension flags.

    A dimension is flagged when its max |value| exceeds ``outlier_factor``
    times the median of the per-dimension max |value|.
    """
    if not 0 < outlier_factor < math.inf:  # NaN fails
        raise ValueError(f"outlier_factor must be positive and finite, got {outlier_factor}")
    w = as_matrix(matrix)
    if w.shape[0] == 0:
        raise EmptyInputError("dimension_profile needs at least one row")
    n, dim = w.shape
    # |x| peaks at max(x) or at -min(x); + 0.0 turns the -0.0 of an
    # all-(-0.0) column into the 0.0 that np.abs gives.
    max_abs = np.maximum(w.max(axis=0), -w.min(axis=0)) + 0.0
    mean = np.add.reduce(w, axis=0) / n  # w.mean(axis=0), bit for bit
    # numpy sums a lone column pairwise, not row after row.
    std = w.std(axis=0) if dim == 1 else _column_std(w, mean)
    threshold = outlier_factor * np.median(max_abs)
    return DimensionProfile(
        mean=mean,
        std=std,
        max_abs=max_abs,
        outlier_flags=max_abs > threshold,
        outlier_factor=outlier_factor,
    )
