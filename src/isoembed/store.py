"""Embedding corpora: in-memory model, binary persistence, synthetic generation.

A corpus is a dense float64 matrix whose rows are token vectors, plus a
table of sequences (queries and documents) whose spans partition the rows
into disjoint runs of consecutive rows. The table is held as columns: ids,
kind codes, row offsets and token counts.
"""

from __future__ import annotations

import math
import mmap
import struct
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .bounded import open_bounded
from .errors import CorpusFormatError, IntegrityError, UnknownIdError
from .rng import PinnedRng

MAGIC = b"EMB1"
FORMAT_VERSION = 1

KIND_QUERY = "query"
KIND_DOCUMENT = "document"
KIND_CODES = {KIND_QUERY: 0, KIND_DOCUMENT: 1}  # as EMB1 stores them
_CODE_KINDS = {code: kind for kind, code in KIND_CODES.items()}


def as_matrix(values) -> np.ndarray:
    """Coerce to a validated 2-D float64 embedding matrix.

    Raises ValueError on non-finite entries or dim < 1.
    """
    matrix = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    if matrix.ndim != 2:
        raise ValueError(f"embedding matrix must be 2-D, got shape {matrix.shape}")
    if matrix.shape[1] < 1:
        raise ValueError("embedding matrix needs dim >= 1")
    # min and max propagate NaN, and an infinity is one of them, so the
    # two reductions check every entry without a mask of the matrix's size.
    if matrix.size and not (np.isfinite(matrix.min()) and np.isfinite(matrix.max())):
        raise ValueError("embedding matrix contains NaN or Inf")
    return matrix


def _read_only(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


class EmbeddingCorpus:
    """Immutable matrix + sequence table; the spans must partition the rows.

    ``EmbeddingCorpus(matrix, ids, kinds, offsets, counts)`` takes the
    table as columns in table order: ids, and integer arrays of kind codes
    (see ``KIND_CODES``), row offsets and token counts. The corpus holds
    them read-only as ``ids`` (a tuple of str), ``kinds`` (uint8), and
    ``offsets`` and ``counts`` (intp: first row and token count of each
    span). A non-finite matrix, a column that is not an integer array, or
    an unknown kind code raises ValueError; a span that is empty,
    negative, beyond the matrix or overlapping another, rows no span
    covers, or an id used twice within a kind raise IntegrityError.
    """

    __slots__ = ("_matrix", "_ids", "_kinds", "_offsets", "_counts", "_lookup")

    def __init__(self, matrix, ids, kinds, offsets, counts):
        columns = [np.asarray(c) for c in (kinds, offsets, counts)]
        if any(c.dtype.kind not in "iu" for c in columns):
            raise ValueError("kinds, offsets and counts must be integer arrays")
        self._matrix = as_matrix(matrix)
        self._ids = tuple(ids)
        if any(c.shape != (len(self._ids),) for c in columns):
            raise ValueError("sequence table columns must be 1-D and of one length")
        kinds, offsets, counts = columns
        offsets, counts = _check_table(self._matrix.shape[0], self._ids, kinds, offsets, counts)
        self._kinds = _read_only(kinds.astype(np.uint8))
        self._offsets = _read_only(offsets)
        self._counts = _read_only(counts)
        self._lookup = None

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def kinds(self) -> np.ndarray:
        return self._kinds

    @property
    def offsets(self) -> np.ndarray:
        return self._offsets

    @property
    def counts(self) -> np.ndarray:
        return self._counts

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @property
    def n_rows(self) -> int:
        return self._matrix.shape[0]

    def _positions(self, kind: str) -> dict[str, int]:
        """Id -> table position of every sequence of ``kind``."""
        if self._lookup is None:
            self._lookup = {}
            for name, code in KIND_CODES.items():
                picks = np.flatnonzero(self._kinds == code).tolist()
                self._lookup[name] = dict(zip([self._ids[i] for i in picks], picks))
        return self._lookup.get(kind, {})

    def locate(self, kind: str, ids) -> np.ndarray:
        """Table positions of the sequences ``ids`` of one kind, in the
        order given (an id may repeat). An unknown id raises
        UnknownIdError (a KeyError)."""
        positions = self._positions(kind)
        try:
            return np.fromiter(map(positions.__getitem__, ids), dtype=np.intp)
        except KeyError as exc:
            raise UnknownIdError(f"no {kind} with id {exc.args[0]!r} in corpus") from None

    def take(self, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows and token counts of the sequences at table positions
        ``picks``; the rows are a fresh array."""
        counts = self._counts[picks]
        index, _ = span_rows(self._offsets[picks], counts)
        return self._matrix[index], counts


def span_rows(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row index of the spans ``[starts[i], starts[i] + lengths[i])`` laid
    end to end, and where each span begins within it."""
    begins = np.cumsum(lengths) - lengths
    index = np.arange(int(lengths.sum())) + np.repeat(starts - begins, lengths)
    return index, begins


def _check_table(n_rows: int, ids: tuple, kinds, offsets, counts) -> tuple[np.ndarray, np.ndarray]:
    """Check that the spans of a sequence table partition ``n_rows`` rows
    and that no id repeats within a kind; return offsets and counts as
    intp arrays.

    The checks run in this order, each naming the first sequence in table
    order that fails it: kind; token count, then offset; span beyond the
    matrix or id repeated within its kind; overlap; rows left uncovered.
    """
    unknown = (kinds != 0) & (kinds != 1)
    if unknown.any():
        raise ValueError(f"kind must be 'query' or 'document', got code {kinds[unknown.argmax()]}")
    short = counts < 1
    bad = short | (offsets < 0)
    if bad.any():
        i = int(bad.argmax())
        raise IntegrityError(
            f"sequence {ids[i]!r} has {'token_count < 1' if short[i] else 'negative row_offset'}"
        )
    # Offsets and counts above n_rows are flagged before anything is added,
    # so no sum below can wrap around.
    far = (offsets > n_rows) | (counts > n_rows)
    starts = np.where(far, 0, offsets).astype(np.intp)
    lengths = np.where(far, 0, counts).astype(np.intp)
    ends = starts + lengths
    beyond = far | (ends > n_rows)
    first = int(beyond.argmax()) if beyond.any() else len(ids)
    duplicate = _first_duplicate(ids, kinds)
    if duplicate < first:
        kind = _CODE_KINDS[int(kinds[duplicate])]
        raise IntegrityError(f"duplicate {kind} id {ids[duplicate]!r}")
    if first < len(ids):
        start = int(offsets[first])
        raise IntegrityError(
            f"sequence {ids[first]!r} spans rows [{start}, {start + int(counts[first])}) "
            f"beyond matrix of {n_rows} rows"
        )
    # Spans of at least one row overlap somewhere iff two neighbours do
    # once sorted by start. The message names the first overlapping pair
    # in (start, end, id) order.
    order = np.argsort(starts, kind="stable")
    if (starts[order[1:]] < ends[order[:-1]]).any():
        spans = sorted(zip(starts.tolist(), ends.tolist(), ids))
        for (_, prev_end, prev_id), (start, _, cur_id) in zip(spans, spans[1:]):
            if start < prev_end:
                raise IntegrityError(f"sequences {prev_id!r} and {cur_id!r} overlap")
    covered = int(lengths.sum())
    if covered != n_rows:
        raise IntegrityError(f"sequence spans cover {covered} rows but the matrix has {n_rows}")
    return starts, lengths


def _first_duplicate(ids: tuple, kinds) -> int:
    """Table position of the first id that an earlier sequence of the same
    kind already has, or len(ids)."""
    if len(set(ids)) == len(ids):
        return len(ids)
    seen = set()
    for i, key in enumerate(zip(kinds.tolist(), ids)):
        if key in seen:
            return i
        seen.add(key)
    return len(ids)


# ---------------------------------------------------------------------------
# EMB1 binary format (little-endian):
#   magic "EMB1" | version u32 | dim u32 | n_rows u64 | n_sequences u64
#   | matrix float64 row-major
#   | per sequence: id_len u16, id UTF-8, kind u8 (0=query, 1=document),
#     row_offset u64, token_count u32
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sIIQQ")
_ID_LEN = struct.Struct("<H")
# The fields after each id, packed: 13 bytes.
_FIXED = np.dtype([("kind", "u1"), ("offset", "<u8"), ("count", "<u4")])
_FIXED_BYTES = np.arange(_FIXED.itemsize)


def _encode_table(corpus: EmbeddingCorpus) -> np.ndarray:
    """The EMB1 sequence table of ``corpus``, as a uint8 array."""
    raw = [seq_id.encode("utf-8") for seq_id in corpus.ids]
    lengths = np.fromiter(map(len, raw), dtype=np.intp, count=len(raw))
    too_long = np.flatnonzero(lengths > 0xFFFF)
    if too_long.size:
        raise ValueError(f"sequence id too long to encode: {corpus.ids[too_long[0]]!r}")
    if corpus.counts.size and corpus.counts.max() > 0xFFFFFFFF:
        raise ValueError("token count too large to encode")
    fixed = np.empty(len(raw), dtype=_FIXED)
    fixed["kind"], fixed["offset"], fixed["count"] = corpus.kinds, corpus.offsets, corpus.counts
    sizes = _ID_LEN.size + lengths + _FIXED.itemsize
    starts = np.cumsum(sizes) - sizes
    table = np.empty(int(sizes.sum()), dtype=np.uint8)
    table[starts[:, None] + np.arange(_ID_LEN.size)] = (
        lengths.astype("<u2").view(np.uint8).reshape(-1, _ID_LEN.size)
    )
    id_bytes, _ = span_rows(starts + _ID_LEN.size, lengths)
    table[id_bytes] = np.frombuffer(b"".join(raw), dtype=np.uint8)
    table[(starts + sizes - _FIXED.itemsize)[:, None] + _FIXED_BYTES] = (
        fixed.view(np.uint8).reshape(-1, _FIXED.itemsize)
    )
    return table


def save_corpus(corpus: EmbeddingCorpus, path) -> None:
    """Write a corpus as EMB1; byte-deterministic for identical input."""
    table = _encode_table(corpus)
    with atomic_write(path) as fh:
        fh.write(
            _HEADER.pack(MAGIC, FORMAT_VERSION, corpus.dim, corpus.n_rows, len(corpus.ids))
        )
        fh.write(np.ascontiguousarray(corpus.matrix, dtype="<f8"))
        fh.write(table)


def load_corpus(path) -> EmbeddingCorpus:
    """Read an EMB1 file; validates format, spans, and payload finiteness.

    The header's sizes are checked against the file size before anything
    is allocated. The matrix is read straight into its final array and the
    sequence table with one read. One loop reads the ids; the fixed fields
    are gathered into columns and checked as arrays. Malformed bytes raise
    CorpusFormatError; a non-finite payload or invalid spans raise
    IntegrityError.
    """
    with open_bounded(path, "file") as reader:
        magic, version, dim, n_rows, n_sequences = reader.unpack(_HEADER.format)
        if magic != MAGIC:
            raise CorpusFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != FORMAT_VERSION:
            raise CorpusFormatError(f"{path}: unsupported version {version}")
        if dim < 1:
            raise CorpusFormatError(f"{path}: dim must be >= 1, got {dim}")
        min_entry = _ID_LEN.size + _FIXED.itemsize
        if 8 * n_rows * dim + min_entry * n_sequences > reader.remaining:
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
            ids, fields = _parse_table(table, end, n_sequences, path)
    # For a 2-D matrix with dim >= 1 and known kind codes, the one
    # ValueError left in building the corpus is the finiteness check.
    try:
        return EmbeddingCorpus(matrix, ids, fields["kind"], fields["offset"], fields["count"])
    except ValueError as exc:
        raise IntegrityError(f"{path}: {exc}") from None


def _parse_table(table, end: int, count: int, path) -> tuple[list[str], np.ndarray]:
    """Decode ``count`` sequence entries that must fill ``table[:end]``
    exactly (``table`` holds ``end`` bytes, or one unused byte if 0):
    their ids, and their fixed fields as a ``_FIXED`` array."""
    ids = []
    fixed_at = []
    # The loop runs once per sequence; its names are bound locally.
    read_id_len, add_id, add_fixed_at = _ID_LEN.unpack_from, ids.append, fixed_at.append
    len_size, fixed_size = _ID_LEN.size, _FIXED.itemsize
    pos = 0
    try:
        for _ in range(count):
            (id_len,) = read_id_len(table, pos)
            start = pos + len_size
            pos = start + id_len
            if pos + fixed_size > end:
                raise CorpusFormatError(f"{path}: truncated file")
            add_id(table[start:pos].decode("utf-8"))
            add_fixed_at(pos)
            pos += fixed_size
    except struct.error:
        raise CorpusFormatError(f"{path}: truncated file") from None
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{path}: sequence id is not UTF-8 ({exc.reason})") from None
    # A view of the map must be gone before the map closes, even on error.
    buffer = np.frombuffer(table, dtype=np.uint8)
    try:
        entries = buffer[np.array(fixed_at, dtype=np.intp)[:, None] + _FIXED_BYTES]
    finally:
        del buffer
    fields = entries.view(_FIXED)[:, 0]
    unknown = np.flatnonzero(fields["kind"] > 1)
    if unknown.size:
        raise CorpusFormatError(f"{path}: unknown sequence kind {fields['kind'][unknown[0]]}")
    if pos != end:
        raise CorpusFormatError(f"{path}: {end - pos} trailing bytes")
    return ids, fields


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
        # Written so that NaN fails each test.
        if not 0 <= self.offset_magnitude < math.inf:
            raise ValueError("offset_magnitude must be finite and >= 0")
        if not 0 <= self.outlier_dims <= self.dim:
            raise ValueError("outlier_dims must lie in [0, dim]")
        if not 1 <= self.outlier_scale < math.inf:
            raise ValueError("outlier_scale must be finite and >= 1")
        if self.axis_scales is not None:
            scales = tuple(float(s) for s in self.axis_scales)
            if len(scales) != self.dim:
                raise ValueError("axis_scales length must equal dim")
            if not all(0 < s < math.inf for s in scales):
                raise ValueError("axis_scales must be positive and finite")
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
    return blocked_corpus(
        matrix, params.n_queries, params.tokens_per_query, params.n_docs, params.tokens_per_doc
    )


def blocked_corpus(
    matrix, n_queries: int, tokens_per_query: int, n_docs: int, tokens_per_doc: int
) -> EmbeddingCorpus:
    """``matrix`` as queries q0, q1, ... followed by documents d0, d1, ...,
    each a run of ``tokens_per_query`` or ``tokens_per_doc`` rows."""
    ids = [f"q{q}" for q in range(n_queries)] + [f"d{d}" for d in range(n_docs)]
    sizes = [n_queries, n_docs]
    kinds = np.repeat(np.array([KIND_CODES[KIND_QUERY], KIND_CODES[KIND_DOCUMENT]]), sizes)
    counts = np.repeat(np.array([tokens_per_query, tokens_per_doc], dtype=np.intp), sizes)
    return EmbeddingCorpus(matrix, ids, kinds, np.cumsum(counts) - counts, counts)


def rows_of_kind(corpus: EmbeddingCorpus, kind: str) -> np.ndarray:
    """All token rows belonging to sequences of one kind, in table order."""
    if kind not in KIND_CODES:
        raise ValueError(f"kind must be 'query' or 'document', got {kind!r}")
    rows, _ = corpus.take(np.flatnonzero(corpus.kinds == KIND_CODES[kind]))
    return rows


def pool_sequences(corpus: EmbeddingCorpus) -> np.ndarray:
    """Mean-pool each sequence's token rows; one output row per sequence,
    in table order."""
    pooled = np.empty((len(corpus.ids), corpus.dim))
    if corpus.ids:
        # The spans partition the rows, so the sorted offsets cut the
        # matrix into every span once.
        order = np.argsort(corpus.offsets)
        sums = np.add.reduceat(corpus.matrix, corpus.offsets[order], axis=0)
        pooled[order] = sums / corpus.counts[order, None]
    return pooled
