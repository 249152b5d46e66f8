"""Embedding corpora: in-memory model, binary persistence, synthetic generation.

A corpus is a dense float64 matrix whose rows are token vectors, plus a
list of sequence records (query or document) that partition the rows into
consecutive, disjoint spans.
"""

from __future__ import annotations

import mmap
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .atomic import atomic_write
from .bounded import open_bounded
from .errors import CorpusFormatError, IntegrityError
from .rng import PinnedRng

MAGIC = b"EMB1"
FORMAT_VERSION = 1

KIND_QUERY = "query"
KIND_DOCUMENT = "document"
_KIND_CODES = {KIND_QUERY: 0, KIND_DOCUMENT: 1}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}


def as_matrix(values, dim: int | None = None) -> np.ndarray:
    """Coerce to a validated 2-D float64 embedding matrix.

    Raises ValueError on non-finite entries or dim < 1.
    """
    matrix = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    if matrix.ndim != 2:
        raise ValueError(f"embedding matrix must be 2-D, got shape {matrix.shape}")
    if matrix.shape[1] < 1:
        raise ValueError("embedding matrix needs dim >= 1")
    if dim is not None and matrix.shape[1] != dim:
        raise ValueError(f"expected dim {dim}, got {matrix.shape[1]}")
    if matrix.size and not np.isfinite(matrix).all():
        raise ValueError("embedding matrix contains NaN or Inf")
    return matrix


@dataclass(frozen=True)
class SequenceRecord:
    """One query or document: a span of token rows inside the corpus matrix."""

    id: str
    kind: str
    row_offset: int
    token_count: int

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise ValueError(f"kind must be 'query' or 'document', got {self.kind!r}")
        if self.token_count < 1:
            raise IntegrityError(f"sequence {self.id!r} has token_count < 1")
        if self.row_offset < 0:
            raise IntegrityError(f"sequence {self.id!r} has negative row_offset")

    @property
    def rows(self) -> slice:
        return slice(self.row_offset, self.row_offset + self.token_count)


@dataclass(frozen=True)
class EmbeddingCorpus:
    """Immutable matrix + sequence records; spans must partition the rows."""

    matrix: np.ndarray
    sequences: tuple[SequenceRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_matrix(self.matrix))
        object.__setattr__(self, "sequences", tuple(self.sequences))
        _check_partition(self.matrix.shape[0], self.sequences)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _by_kind_and_id(self) -> dict[tuple[str, str], SequenceRecord]:
        return {(seq.kind, seq.id): seq for seq in self.sequences}

    def tokens(self, seq: SequenceRecord) -> np.ndarray:
        return self.matrix[seq.rows]

    def find(self, kind: str, seq_id: str) -> SequenceRecord:
        """Look up a sequence by kind and id; raises KeyError if absent."""
        try:
            return self._by_kind_and_id[(kind, seq_id)]
        except KeyError:
            raise KeyError(f"no {kind} with id {seq_id!r} in corpus") from None


def _check_partition(n_rows: int, sequences: tuple[SequenceRecord, ...]) -> None:
    seen_ids: dict[str, set[str]] = {KIND_QUERY: set(), KIND_DOCUMENT: set()}
    covered = 0
    spans = []
    for seq in sequences:
        if seq.row_offset + seq.token_count > n_rows:
            raise IntegrityError(
                f"sequence {seq.id!r} spans rows [{seq.row_offset}, "
                f"{seq.row_offset + seq.token_count}) beyond matrix of {n_rows} rows"
            )
        if seq.id in seen_ids[seq.kind]:
            raise IntegrityError(f"duplicate {seq.kind} id {seq.id!r}")
        seen_ids[seq.kind].add(seq.id)
        spans.append((seq.row_offset, seq.row_offset + seq.token_count, seq.id))
        covered += seq.token_count
    spans.sort()
    for (_, prev_end, prev_id), (start, _, cur_id) in zip(spans, spans[1:]):
        if start < prev_end:
            raise IntegrityError(f"sequences {prev_id!r} and {cur_id!r} overlap")
    if covered != n_rows:
        raise IntegrityError(
            f"sequence spans cover {covered} rows but the matrix has {n_rows}"
        )


# ---------------------------------------------------------------------------
# EMB1 binary format (little-endian):
#   magic "EMB1" | version u32 | dim u32 | n_rows u64 | n_sequences u64
#   | matrix float64 row-major
#   | per sequence: id_len u16, id UTF-8, kind u8 (0=query, 1=document),
#     row_offset u64, token_count u32
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sIIQQ")
_ID_LEN = struct.Struct("<H")
_RECORD = struct.Struct("<BQI")  # kind code, row_offset, token_count


def save_corpus(corpus: EmbeddingCorpus, path) -> None:
    """Write a corpus as EMB1; byte-deterministic for identical input."""
    parts = []
    for seq in corpus.sequences:
        raw_id = seq.id.encode("utf-8")
        if len(raw_id) > 0xFFFF:
            raise ValueError(f"sequence id too long to encode: {seq.id!r}")
        parts.append(_ID_LEN.pack(len(raw_id)))
        parts.append(raw_id)
        parts.append(_RECORD.pack(_KIND_CODES[seq.kind], seq.row_offset, seq.token_count))
    with atomic_write(path) as fh:
        fh.write(
            _HEADER.pack(
                MAGIC, FORMAT_VERSION, corpus.dim, corpus.n_rows, len(corpus.sequences)
            )
        )
        fh.write(np.ascontiguousarray(corpus.matrix, dtype="<f8"))
        fh.write(b"".join(parts))


def load_corpus(path) -> EmbeddingCorpus:
    """Read an EMB1 file; validates format, spans, and payload finiteness.

    The header's sizes are checked against the file size before anything
    is allocated. The matrix is read straight into its final array and the
    sequence table with one read. Malformed bytes raise CorpusFormatError;
    a non-finite payload or invalid spans raise IntegrityError.
    """
    with open_bounded(path, "file") as reader:
        magic, version, dim, n_rows, n_sequences = reader.unpack(_HEADER.format)
        if magic != MAGIC:
            raise CorpusFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != FORMAT_VERSION:
            raise CorpusFormatError(f"{path}: unsupported version {version}")
        if dim < 1:
            raise CorpusFormatError(f"{path}: dim must be >= 1, got {dim}")
        min_record = _ID_LEN.size + _RECORD.size
        if 8 * n_rows * dim + min_record * n_sequences > reader.remaining:
            raise reader.truncated()
        matrix = np.empty((n_rows, dim), dtype="<f8")
        reader.read_into(matrix)
        # The table goes into an anonymous map, which gives its memory back
        # when closed. A heap buffer of its size (400 kB at 20k sequences)
        # would leave the heap that much larger after the load. A map cannot
        # be empty, so an empty table maps one unused byte.
        end = reader.remaining
        with mmap.mmap(-1, max(end, 1)) as table:
            if end:
                reader.read_into(table)
            sequences = _parse_sequences(table, end, n_sequences, path)
    # For a 2-D matrix with dim >= 1, the one ValueError left in building
    # the corpus is as_matrix's finiteness check, the only one a load runs.
    try:
        return EmbeddingCorpus(matrix, sequences)
    except ValueError as exc:
        raise IntegrityError(f"{path}: {exc}") from None


def _parse_sequences(table, end: int, count: int, path) -> tuple[SequenceRecord, ...]:
    """Decode ``count`` sequence records that must fill ``table[:end]``
    exactly; ``table`` holds ``end`` bytes, or one unused byte if 0."""
    sequences = []
    pos = 0
    try:
        for _ in range(count):
            (id_len,) = _ID_LEN.unpack_from(table, pos)
            id_end = pos + _ID_LEN.size + id_len
            kind_code, row_offset, token_count = _RECORD.unpack_from(table, id_end)
            if kind_code not in _CODE_KINDS:
                raise CorpusFormatError(f"{path}: unknown sequence kind {kind_code}")
            seq_id = table[pos + _ID_LEN.size : id_end].decode("utf-8")
            sequences.append(
                SequenceRecord(seq_id, _CODE_KINDS[kind_code], row_offset, token_count)
            )
            pos = id_end + _RECORD.size
    except struct.error:
        raise CorpusFormatError(f"{path}: truncated file") from None
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{path}: sequence id is not UTF-8 ({exc.reason})") from None
    if pos != end:
        raise CorpusFormatError(f"{path}: {end - pos} trailing bytes")
    return tuple(sequences)


# ---------------------------------------------------------------------------
# Synthetic anisotropic corpora
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthParams:
    """Parameters for the seeded anisotropic generator.

    Rows follow offset + scales * g with g standard normal. The offset is
    ``offset_magnitude`` in every coordinate (the shared direction is the
    all-ones diagonal), which produces the narrow-cone geometry: pairwise
    cosines are dominated by the common offset once it exceeds the noise.
    The first ``outlier_dims`` axis scales are multiplied by
    ``outlier_scale`` to emulate spiky outlier dimensions.
    """

    n_queries: int
    n_docs: int
    tokens_per_query: int
    tokens_per_doc: int
    dim: int
    offset_magnitude: float = 0.0
    axis_scales: tuple[float, ...] | None = None
    outlier_dims: int = 0
    outlier_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_queries", "n_docs", "tokens_per_query", "tokens_per_doc", "dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.offset_magnitude < 0:
            raise ValueError("offset_magnitude must be >= 0")
        if not 0 <= self.outlier_dims <= self.dim:
            raise ValueError("outlier_dims must lie in [0, dim]")
        if self.outlier_scale < 1:
            raise ValueError("outlier_scale must be >= 1")
        if self.axis_scales is not None:
            scales = tuple(float(s) for s in self.axis_scales)
            if len(scales) != self.dim:
                raise ValueError("axis_scales length must equal dim")
            if any(s <= 0 for s in scales):
                raise ValueError("axis_scales must be positive")
            object.__setattr__(self, "axis_scales", scales)

    def resolved_scales(self) -> np.ndarray:
        scales = np.ones(self.dim) if self.axis_scales is None else np.array(self.axis_scales)
        scales = scales.astype(np.float64, copy=True)
        scales[: self.outlier_dims] *= self.outlier_scale
        return scales


def generate_anisotropic(params: SynthParams) -> EmbeddingCorpus:
    """Deterministic anisotropic corpus: a pure function of ``params``.

    Gaussian draws come from one pinned-PRNG block in row-major order, so
    the same seed and shape always yield bit-identical values within a
    platform.
    """
    n_rows = (
        params.n_queries * params.tokens_per_query
        + params.n_docs * params.tokens_per_doc
    )
    rng = PinnedRng(params.seed)
    noise = rng.gaussians(n_rows * params.dim).reshape(n_rows, params.dim)
    matrix = params.offset_magnitude + noise * params.resolved_scales()

    sequences = []
    offset = 0
    for q in range(params.n_queries):
        sequences.append(
            SequenceRecord(f"q{q}", KIND_QUERY, offset, params.tokens_per_query)
        )
        offset += params.tokens_per_query
    for d in range(params.n_docs):
        sequences.append(
            SequenceRecord(f"d{d}", KIND_DOCUMENT, offset, params.tokens_per_doc)
        )
        offset += params.tokens_per_doc
    return EmbeddingCorpus(matrix, tuple(sequences))


def rows_of_kind(corpus: EmbeddingCorpus, kind: str) -> np.ndarray:
    """All token rows belonging to sequences of one kind, in corpus order."""
    if kind not in _KIND_CODES:
        raise ValueError(f"kind must be 'query' or 'document', got {kind!r}")
    spans = [corpus.matrix[seq.rows] for seq in corpus.sequences if seq.kind == kind]
    if not spans:
        return np.zeros((0, corpus.dim))
    return np.vstack(spans)


def pool_sequences(corpus: EmbeddingCorpus) -> np.ndarray:
    """Mean-pool each sequence's token rows; one output row per sequence."""
    pooled = np.empty((len(corpus.sequences), corpus.dim))
    for i, seq in enumerate(corpus.sequences):
        pooled[i] = corpus.matrix[seq.rows].mean(axis=0)
    return pooled

