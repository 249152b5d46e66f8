"""Corpus model, EMB1 persistence, the synthetic generator, and pooling."""

import importlib.util
import re
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import table_corpus, table_of
from isoembed import (
    EmbeddingCorpus,
    SynthParams,
    avg_pairwise_cosine,
    generate_anisotropic,
    load_corpus,
    pool_sequences,
    save_corpus,
)
from isoembed.errors import CorpusFormatError, IntegrityError, IsoembedError, UnknownIdError
from isoembed.store import (
    FINITE_CHECK_ELEMENTS,
    KIND_CODES,
    KIND_DOCUMENT,
    KIND_QUERY,
    as_matrix,
    rows_of_kind,
    span_sums,
)


def tiny_corpus() -> EmbeddingCorpus:
    matrix = np.arange(10.0).reshape(5, 2)
    return table_corpus(matrix, [("q0", KIND_QUERY, 0, 2), ("d0", KIND_DOCUMENT, 2, 3)])


# Entries that a finiteness check must tell apart: signed zeros,
# subnormals, the largest finite values (a few of them sum to inf, so a
# check through a sum would fail), infinities and NaN.
EDGE_ENTRIES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -2.5,
                1.7e308, -1.7e308, np.inf, -np.inf, np.nan]


class TestAsMatrix:
    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            elements=st.one_of(st.sampled_from(EDGE_ENTRIES), st.floats(width=64)),
        )
    )
    @example(np.array([[1.7e308, 1.7e308], [1.7e308, 1.7e308]]))
    @example(np.array([[-0.0, 5e-324]]))
    @example(np.array([[1.0, np.nan, 2.0]]))
    @example(np.array([[np.inf], [-np.inf]]))
    def test_raises_iff_an_entry_is_not_finite(self, values):
        if np.isfinite(values).all():
            assert as_matrix(values).tobytes() == values.tobytes()
        else:
            with pytest.raises(ValueError, match="embedding matrix contains NaN or Inf"):
                as_matrix(values)

    # Three whole blocks of the finiteness check and 92 elements more.
    WIDE = np.random.default_rng(9).normal(size=(28_100, 7))
    BLOCK_EDGES = [k * FINITE_CHECK_ELEMENTS + d for k in (1, 2, 3) for d in (-1, 0)]

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([(1, 1), (4, 3), WIDE.shape]),
        st.data(),
        st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    def test_one_bad_entry_anywhere_raises(self, shape, data, bad):
        """One NaN or infinity at any flat position, block edges included,
        in a one-element matrix, a small one or one of several blocks."""
        size = shape[0] * shape[1]
        edges = [p for p in [0, *self.BLOCK_EDGES, size - 1] if p < size]
        position = data.draw(st.one_of(st.sampled_from(edges), st.integers(0, size - 1)))
        values = self.WIDE[: shape[0], : shape[1]].copy()
        values.reshape(-1)[position] = bad
        with pytest.raises(ValueError, match="embedding matrix contains NaN or Inf"):
            as_matrix(values)
        values.reshape(-1)[position] = 0.5
        assert as_matrix(values) is values

    @pytest.mark.parametrize("dim", [1, 7])
    def test_empty_matrix_passes_the_check(self, dim):
        values = np.empty((0, dim))
        assert as_matrix(values) is values

    def test_check_allocates_nothing_of_the_matrix_size(self, traced_peak):
        """An 8 MB matrix is checked without a mask of its entries (1 MB)."""
        matrix = np.random.default_rng(4).normal(size=(16_384, 64))
        with traced_peak() as traced:
            assert as_matrix(matrix) is matrix
        assert traced.peak < 4096


class TestCorpusInvariants:
    def test_span_overflow_rejected(self):
        with pytest.raises(IntegrityError):
            table_corpus(np.zeros((2, 3)), [("q", KIND_QUERY, 0, 3)])

    def test_overlap_rejected(self):
        with pytest.raises(IntegrityError):
            table_corpus(np.zeros((3, 2)), [("q", KIND_QUERY, 0, 2), ("d", KIND_DOCUMENT, 1, 2)])

    def test_coverage_gap_rejected(self):
        with pytest.raises(IntegrityError):
            table_corpus(np.zeros((3, 2)), [("q", KIND_QUERY, 0, 2)])

    def test_duplicate_id_within_kind_rejected(self):
        with pytest.raises(IntegrityError):
            table_corpus(np.zeros((2, 2)), [("x", KIND_QUERY, 0, 1), ("x", KIND_QUERY, 1, 1)])

    def test_same_id_across_kinds_allowed(self):
        corpus = table_corpus(
            np.zeros((2, 2)), [("x", KIND_QUERY, 0, 1), ("x", KIND_DOCUMENT, 1, 1)]
        )
        assert corpus.offsets[corpus.locate(KIND_QUERY, ["x"])].tolist() == [0]
        assert corpus.offsets[corpus.locate(KIND_DOCUMENT, ["x"])].tolist() == [1]

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(ValueError):
            table_corpus(np.array([[np.nan, 0.0]]), [("q", KIND_QUERY, 0, 1)])


class TestBinaryFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        corpus = tiny_corpus()
        path_a, path_b = tmp_path / "a.emb", tmp_path / "b.emb"
        save_corpus(corpus, path_a)
        loaded = load_corpus(path_a)
        assert np.array_equal(loaded.matrix, corpus.matrix)
        assert table_of(loaded) == table_of(corpus)
        save_corpus(loaded, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_empty_corpus_preserves_dim(self, tmp_path):
        corpus = table_corpus(np.zeros((0, 4)), [])
        path = tmp_path / "empty.emb"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.n_rows == 0
        assert loaded.dim == 4
        assert table_of(loaded) == []

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"NOPE" + bytes(24))
        with pytest.raises(CorpusFormatError, match="magic"):
            load_corpus(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(struct.pack("<4sIIQQ", b"EMB1", 99, 2, 0, 0))
        with pytest.raises(CorpusFormatError, match="version"):
            load_corpus(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.emb"
        save_corpus(tiny_corpus(), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(CorpusFormatError, match="truncated"):
            load_corpus(path)

    def test_span_overflow_in_file(self, tmp_path):
        """A file whose sequence claims 3 tokens over a 2-row matrix."""
        header = struct.pack("<4sIIQQ", b"EMB1", 1, 2, 2, 1)
        matrix = np.zeros((2, 2)).tobytes()
        record = struct.pack("<H", 1) + b"q" + struct.pack("<BQI", 0, 0, 3)
        path = tmp_path / "overflow.emb"
        path.write_bytes(header + matrix + record)
        with pytest.raises(IntegrityError):
            load_corpus(path)

    def test_nan_payload_rejected(self, tmp_path):
        header = struct.pack("<4sIIQQ", b"EMB1", 1, 2, 1, 1)
        matrix = np.array([[np.nan, 1.0]]).tobytes()
        record = struct.pack("<H", 1) + b"q" + struct.pack("<BQI", 0, 0, 1)
        path = tmp_path / "nan.emb"
        path.write_bytes(header + matrix + record)
        with pytest.raises(IntegrityError, match="NaN"):
            load_corpus(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "trail.emb"
        save_corpus(tiny_corpus(), path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CorpusFormatError, match="trailing"):
            load_corpus(path)

    def test_invalid_utf8_id_rejected(self, tmp_path):
        header = struct.pack("<4sIIQQ", b"EMB1", 1, 2, 1, 1)
        record = struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<BQI", 0, 0, 1)
        path = tmp_path / "id.emb"
        path.write_bytes(header + bytes(16) + record)
        with pytest.raises(CorpusFormatError, match="UTF-8"):
            load_corpus(path)

    def test_unknown_kind_rejected(self, tmp_path):
        header = struct.pack("<4sIIQQ", b"EMB1", 1, 2, 1, 1)
        record = struct.pack("<H", 1) + b"q" + struct.pack("<BQI", 2, 0, 1)
        path = tmp_path / "kind.emb"
        path.write_bytes(header + bytes(16) + record)
        with pytest.raises(CorpusFormatError, match="kind"):
            load_corpus(path)


class TestAllocation:
    @pytest.mark.parametrize(
        "header",
        [
            struct.pack("<4sIIQQ", b"EMB1", 1, 64, 2**40, 1),
            struct.pack("<4sIIQQ", b"EMB1", 1, 2**32 - 1, 2**64 - 1, 0),
            struct.pack("<4sIIQQ", b"EMB1", 1, 1, 0, 2**64 - 1),
        ],
        ids=["2^40-rows", "largest-shape", "largest-sequence-count"],
    )
    def test_oversized_header_rejected_before_allocating(self, tmp_path, header, traced_peak):
        """The header alone decides; nothing near the announced size, nor
        the 1 MiB file itself, is read or allocated."""
        path = tmp_path / "huge.emb"
        path.write_bytes(header + bytes(1 << 20))
        with traced_peak() as traced:
            with pytest.raises(CorpusFormatError, match="truncated"):
                load_corpus(path)
        assert traced.peak < 65_536

    def test_load_peaks_near_the_matrix_size(self, tmp_path, traced_peak):
        matrix = np.random.default_rng(8).normal(size=(16_384, 64))
        table = [(f"d{i}", KIND_DOCUMENT, 256 * i, 256) for i in range(64)]
        path = tmp_path / "big.emb"
        save_corpus(table_corpus(matrix, table), path)
        with traced_peak() as traced:
            loaded = load_corpus(path)
        assert traced.peak <= 1.2 * matrix.nbytes
        assert loaded.matrix.tobytes() == matrix.tobytes()
        flags = loaded.matrix.flags
        assert flags.owndata and flags.c_contiguous and flags.writeable


# EMB1 properties: corpora of random shape, ids and values, saved and read
# back through files, since the loader sizes its reads by the file's size.


@st.composite
def small_corpora(draw):
    """A corpus of 0-5 sequences with non-ASCII ids and extreme values."""
    dim = draw(st.integers(1, 5))
    specs = draw(
        st.lists(
            st.tuples(st.sampled_from([KIND_QUERY, KIND_DOCUMENT]), st.text(max_size=4)),
            max_size=5,
            unique=True,
        )
    )
    counts = [draw(st.integers(1, 3)) for _ in specs]
    offsets = np.concatenate([[0], np.cumsum(counts, dtype=int)])
    order = draw(st.permutations(range(len(specs))))  # spans need not be in id order
    table = [
        (seq_id, kind, int(offsets[pos]), counts[pos]) for pos, (kind, seq_id) in zip(order, specs)
    ]
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    n_rows = int(offsets[-1])
    matrix = rng.normal(size=(n_rows, dim)) * 10.0 ** rng.integers(-300, 300, size=(n_rows, dim))
    return table_corpus(matrix, table)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("emb1")


def corpus_bytes(corpus: EmbeddingCorpus, directory: Path) -> bytes:
    path = directory / "saved.emb"
    save_corpus(corpus, path)
    return path.read_bytes()


def load_bytes(blob: bytes, directory: Path) -> EmbeddingCorpus:
    path = directory / "blob.emb"
    path.write_bytes(blob)
    return load_corpus(path)


@pytest.fixture(scope="module")
def benchmark_reader():
    """perfbench's own EMB1 reader, which imports nothing from isoembed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while they are built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module._read_emb1


class TestFormatProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_corpora())
    def test_round_trip_is_byte_exact(self, scratch, corpus):
        blob = corpus_bytes(corpus, scratch)
        loaded = load_bytes(blob, scratch)
        assert loaded.matrix.tobytes() == corpus.matrix.tobytes()
        assert loaded.matrix.shape == corpus.matrix.shape
        assert table_of(loaded) == table_of(corpus)
        assert corpus_bytes(loaded, scratch) == blob

    @settings(max_examples=15, deadline=None)
    @given(small_corpora())
    def test_every_truncation_and_trailing_byte_rejected(self, scratch, corpus):
        blob = corpus_bytes(corpus, scratch)
        for cut in range(len(blob)):
            with pytest.raises(CorpusFormatError):
                load_bytes(blob[:cut], scratch)
        with pytest.raises(CorpusFormatError, match="trailing"):
            load_bytes(blob + b"\0", scratch)

    @settings(max_examples=150, deadline=None)
    @given(
        small_corpora(),
        st.lists(st.tuples(st.integers(0), st.integers(1, 255)), min_size=1, max_size=3),
    )
    def test_byte_flips_load_or_raise_typed_errors(self, scratch, corpus, flips):
        blob = bytearray(corpus_bytes(corpus, scratch))
        table = 28 + corpus.matrix.nbytes
        for position, mask in flips:
            # A third of the flips land in the header, a third in the
            # sequence table, and a third anywhere.
            if position % 3 == 0:
                blob[position % 28] ^= mask
            elif position % 3 == 1 and len(blob) > table:
                blob[table + position % (len(blob) - table)] ^= mask
            else:
                blob[position % len(blob)] ^= mask
        try:
            loaded = load_bytes(bytes(blob), scratch)
        except IsoembedError:
            return
        assert corpus_bytes(loaded, scratch) == bytes(blob)

    @settings(max_examples=40, deadline=None)
    @given(small_corpora())
    def test_matches_the_benchmark_reader(self, scratch, benchmark_reader, corpus):
        """perfbench reads EMB1 with its own code, from the README layout."""
        path = scratch / "cross.emb"
        save_corpus(corpus, path)
        matrix, rows = benchmark_reader(path)
        loaded = load_corpus(path)
        assert loaded.matrix.tobytes() == matrix.tobytes()
        assert loaded.matrix.shape == matrix.shape
        codes = {KIND_QUERY: 0, KIND_DOCUMENT: 1}
        assert {
            (codes[kind], seq_id): slice(offset, offset + count)
            for seq_id, kind, offset, count in table_of(loaded)
        } == rows


class TestGenerator:
    def test_deterministic(self):
        params = SynthParams(2, 3, 2, 2, dim=5, offset_magnitude=1.0, seed=99)
        a = generate_anisotropic(params)
        b = generate_anisotropic(params)
        assert np.array_equal(a.matrix, b.matrix)
        assert table_of(a) == table_of(b)

    def test_layout(self):
        params = SynthParams(2, 3, 2, 4, dim=5, seed=0)
        corpus = generate_anisotropic(params)
        assert corpus.n_rows == 2 * 2 + 3 * 4
        kinds = [kind for _, kind, _, _ in table_of(corpus)]
        assert kinds == [KIND_QUERY] * 2 + [KIND_DOCUMENT] * 3

    def test_isotropic_case_centers_on_zero(self):
        """No offset, unit scales: per-dimension means and the average
        pairwise cosine both shrink like 1/sqrt(n)."""
        params = SynthParams(1, 511, 8, 8, dim=16, offset_magnitude=0.0, seed=5)
        corpus = generate_anisotropic(params)
        n = corpus.n_rows
        assert np.abs(corpus.matrix.mean(axis=0)).max() < 4.0 / np.sqrt(n)
        assert abs(avg_pairwise_cosine(corpus.matrix)) < 3.0 / np.sqrt(n)

    def test_shared_offset_dominates_cosine(self):
        """Strong common offset collapses rows into a narrow cone."""
        params = SynthParams(8, 504, 8, 8, dim=64, offset_magnitude=10.0, seed=5)
        corpus = generate_anisotropic(params)
        assert corpus.n_rows == 4096
        assert avg_pairwise_cosine(corpus.matrix) >= 0.9

    def test_outlier_dims_scaled(self):
        params = SynthParams(
            4, 4, 4, 4, dim=8, outlier_dims=2, outlier_scale=50.0, seed=3
        )
        matrix = generate_anisotropic(params).matrix
        spread = matrix.std(axis=0)
        assert spread[:2].min() > 10 * spread[2:].max()

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SynthParams(0, 1, 1, 1, dim=2)
        with pytest.raises(ValueError):
            SynthParams(1, 1, 1, 1, dim=2, outlier_dims=3)
        with pytest.raises(ValueError):
            SynthParams(1, 1, 1, 1, dim=2, outlier_scale=0.5)
        with pytest.raises(ValueError):
            SynthParams(1, 1, 1, 1, dim=2, axis_scales=(1.0,))


class TestPooling:
    def test_single_token_identity(self):
        corpus = table_corpus(np.array([[3.0, 4.0]]), [("q", KIND_QUERY, 0, 1)])
        np.testing.assert_array_equal(pool_sequences(corpus), [[3.0, 4.0]])

    def test_two_token_mean(self):
        corpus = table_corpus(
            np.array([[1.0, 0.0], [0.0, 1.0]]), [("q", KIND_QUERY, 0, 2)]
        )
        np.testing.assert_array_equal(pool_sequences(corpus), [[0.5, 0.5]])

    def test_matches_naive_summation_oracle(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(5, 7))
        corpus = table_corpus(matrix, [("q", KIND_QUERY, 0, 5)])
        naive = np.zeros(7)
        for row in matrix:
            naive += row
        naive /= 5
        np.testing.assert_allclose(pool_sequences(corpus)[0], naive, atol=1e-12, rtol=0)

    def test_row_count_and_all_singletons(self):
        params = SynthParams(3, 4, 1, 1, dim=3, seed=1)
        corpus = generate_anisotropic(params)
        pooled = pool_sequences(corpus)
        assert pooled.shape[0] == len(corpus.ids)
        np.testing.assert_array_equal(pooled, corpus.matrix)


# Span lengths at the edges of numpy's pairwise sum: after a span's first
# row, fewer than 8 rows are added in order, 8 to 128 rows go through eight
# accumulators, and a longer run is cut in two (again past 256).
BOUNDARY_COUNTS = [1, 2, 8, 9, 10, 128, 129, 130, 131, 256, 257, 258]


@st.composite
def span_tables(draw):
    counts = draw(st.lists(st.one_of(st.sampled_from(BOUNDARY_COUNTS), st.integers(1, 300)),
                           min_size=1, max_size=12))
    dim = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(counts)
    rows = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-6, 7, size=(n, dim))
    rows[rng.random((n, dim)) < 0.1] = -0.0
    rows[rng.random((n, dim)) < 0.05] = 0.0
    return np.array(counts), rows, rng.permutation(len(counts))


class TestSpanSums:
    @settings(max_examples=80, deadline=None)
    @given(span_tables())
    def test_bitwise_equal_to_reduceat(self, table):
        counts, rows, order = table
        starts = np.cumsum(counts) - counts
        expected = np.add.reduceat(rows, starts, axis=0)
        assert span_sums(rows, starts, counts).tobytes() == expected.tobytes()
        # Spans may come in any order.
        shuffled = span_sums(rows, starts[order], counts[order])
        assert shuffled.tobytes() == expected[order].tobytes()

    @pytest.mark.parametrize("count", BOUNDARY_COUNTS)
    def test_negative_zeros_stay_negative(self, count):
        rows = np.full((count, 3), -0.0)
        sums = span_sums(rows, [0], [count])
        assert sums.tobytes() == np.add.reduceat(rows, [0], axis=0).tobytes()
        assert np.signbit(sums).all()

    def test_pool_sequences_divides_the_reduceat_sums(self):
        """Table order need not be row order."""
        rng = np.random.default_rng(3)
        counts = [140, 1, 9, 3]
        matrix = rng.normal(size=(sum(counts), 6)) * 1e3
        offsets = np.cumsum(counts) - counts
        table = [(f"d{k}", KIND_DOCUMENT, int(offsets[k]), counts[k]) for k in (2, 0, 3, 1)]
        expected = np.add.reduceat(matrix, offsets, axis=0) / np.array(counts)[:, None]
        pooled = pool_sequences(table_corpus(matrix, table))
        assert pooled.tobytes() == expected[[2, 0, 3, 1]].tobytes()


class TestRowsOfKind:
    def test_splits_by_kind(self):
        from isoembed.store import rows_of_kind

        corpus = tiny_corpus()
        np.testing.assert_array_equal(rows_of_kind(corpus, KIND_QUERY), corpus.matrix[:2])
        np.testing.assert_array_equal(
            rows_of_kind(corpus, KIND_DOCUMENT), corpus.matrix[2:]
        )

    def test_empty_kind(self):
        from isoembed.store import rows_of_kind

        corpus = table_corpus(np.ones((1, 3)), [("q", KIND_QUERY, 0, 1)])
        assert rows_of_kind(corpus, KIND_DOCUMENT).shape == (0, 3)


# The sequence table: columns, located rows, and the checks on every path in.


@st.composite
def shuffled_corpora(draw):
    """A corpus of 2-8 sequences with multi-byte UTF-8 ids whose table is
    not in row order."""
    specs = draw(
        st.lists(
            st.tuples(
                st.sampled_from([KIND_QUERY, KIND_DOCUMENT]),
                st.text(alphabet="a\u00e9\u540d\U0001f642", min_size=1, max_size=3),
            ),
            min_size=2,
            max_size=8,
            unique=True,
        )
    )
    counts = [draw(st.integers(1, 3)) for _ in specs]
    offsets = np.concatenate([[0], np.cumsum(counts, dtype=int)])
    order = draw(st.permutations(range(len(specs))))
    assume(list(order) != sorted(order))
    table = [
        (seq_id, kind, int(offsets[pos]), counts[pos]) for pos, (kind, seq_id) in zip(order, specs)
    ]
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    matrix = rng.normal(size=(int(offsets[-1]), draw(st.integers(1, 4))))
    return table_corpus(matrix, table)


# One fault each in a table over 5 rows: (id, kind code, row_offset,
# token_count) entries, where code 2 is an unknown kind, and the error and
# message the fault raises when the table is given as columns.
TABLE_FAULTS = {
    "overlap": (
        [("q0", 0, 0, 2), ("d\u00e9", 1, 1, 3)],
        IntegrityError, "sequences 'q0' and 'd\u00e9' overlap",
    ),
    "gap": (
        [("q0", 0, 0, 2), ("d\u00e9", 1, 3, 2)],
        IntegrityError, "sequence spans cover 4 rows but the matrix has 5",
    ),
    "beyond": (
        [("q0", 0, 0, 2), ("d\u00e9", 1, 2, 4)],
        IntegrityError, "sequence 'd\u00e9' spans rows [2, 6) beyond matrix of 5 rows",
    ),
    "offset-2^63": (
        [("q0", 0, 0, 2), ("d\u00e9", 1, 2**63, 3)],
        IntegrityError,
        "sequence 'd\u00e9' spans rows [9223372036854775808, 9223372036854775811) "
        "beyond matrix of 5 rows",
    ),
    "zero-count": (
        [("q0", 0, 0, 2), ("x", 1, 2, 0), ("d\u00e9", 1, 2, 3)],
        IntegrityError, "sequence 'x' has token_count < 1",
    ),
    "duplicate-id": (
        [("q0", 0, 0, 2), ("q0", 0, 2, 3)],
        IntegrityError, "duplicate query id 'q0'",
    ),
    "unknown-kind": (
        [("q0", 0, 0, 2), ("d\u00e9", 2, 2, 3)],
        ValueError, "kind must be 'query' or 'document', got code 2",
    ),
}


def fault_file(table, path: Path) -> Path:
    """An EMB1 file of a 5 x 2 zero matrix and ``table``, written by hand."""
    blob = struct.pack("<4sIIQQ", b"EMB1", 1, 2, 5, len(table)) + bytes(80)
    for seq_id, code, offset, count in table:
        raw = seq_id.encode("utf-8")
        blob += struct.pack("<H", len(raw)) + raw + struct.pack("<BQI", code, offset, count)
    path.write_bytes(blob)
    return path


def spans(corpus: EmbeddingCorpus, kind: str, ids) -> list[np.ndarray]:
    """The token rows of each of ``ids``, found by scanning the table."""
    return [
        corpus.matrix[offset : offset + count]
        for seq_id in ids
        for found, found_kind, offset, count in table_of(corpus)
        if (found_kind, found) == (kind, seq_id)
    ]


class TestSequenceTable:
    @settings(max_examples=60, deadline=None)
    @given(shuffled_corpora(), st.data())
    def test_take_of_located_equals_stacked_token_slices(self, scratch, corpus, data):
        kind = data.draw(st.sampled_from([KIND_QUERY, KIND_DOCUMENT]))
        known = [seq_id for seq_id, k, _, _ in table_of(corpus) if k == kind]
        ids = data.draw(st.lists(st.sampled_from(known), max_size=6)) if known else []
        ids += ids[:1]  # a repeated id
        for c in (corpus, load_bytes(corpus_bytes(corpus, scratch), scratch)):
            rows, counts = c.take(c.locate(kind, ids))
            slices = spans(c, kind, ids)
            expected = np.concatenate(slices) if slices else np.empty((0, c.dim))
            assert rows.shape == expected.shape
            assert rows.tobytes() == expected.tobytes()
            assert counts.tolist() == [len(block) for block in slices]

    @settings(max_examples=40, deadline=None)
    @given(shuffled_corpora())
    def test_columns_rows_and_pools_follow_table_order(self, scratch, corpus):
        loaded = load_bytes(corpus_bytes(corpus, scratch), scratch)
        table = table_of(corpus)
        for c in (corpus, loaded):
            assert c.ids == tuple(seq_id for seq_id, _, _, _ in table)
            assert c.kinds.tolist() == [KIND_CODES[kind] for _, kind, _, _ in table]
            assert c.offsets.tolist() == [offset for _, _, offset, _ in table]
            assert c.counts.tolist() == [count for _, _, _, count in table]
            for kind in (KIND_QUERY, KIND_DOCUMENT):
                ids = [seq_id for seq_id, k, _, _ in table if k == kind]
                expected = np.concatenate(spans(c, kind, ids)) if ids else np.empty((0, c.dim))
                assert rows_of_kind(c, kind).tobytes() == expected.tobytes()
            # Pooling adds each span's rows in order; mean() may add them
            # in another order on narrow matrices. With at most 3 tokens,
            # the two differ by at most 2 roundings each way, plus the
            # division's: 8 eps of the largest value bounds it.
            means = np.array([c.matrix[o : o + n].mean(axis=0) for _, _, o, n in table])
            atol = 8 * np.finfo(np.float64).eps * np.abs(c.matrix).max()
            np.testing.assert_allclose(pool_sequences(c), means, rtol=0, atol=atol)

    def test_locate_names_the_first_unknown_id(self):
        corpus = tiny_corpus()
        with pytest.raises(KeyError) as located:
            corpus.locate(KIND_DOCUMENT, ["d0", "q0", "d0"])
        assert located.value.args == ("no document with id 'q0' in corpus",)

    @settings(max_examples=40, deadline=None)
    @given(shuffled_corpora(), st.data())
    def test_locate_gives_table_positions(self, corpus, data):
        kind = data.draw(st.sampled_from([KIND_QUERY, KIND_DOCUMENT]))
        table = table_of(corpus)
        known = [seq_id for seq_id, k, _, _ in table if k == kind]
        ids = data.draw(st.lists(st.sampled_from(known), max_size=6)) if known else []
        ids += ids[:1]  # a repeated id
        positions = corpus.locate(kind, iter(ids))
        assert positions.dtype == np.intp
        assert positions.tolist() == [
            next(i for i, (found, k, _, _) in enumerate(table) if (k, found) == (kind, seq_id))
            for seq_id in ids
        ]
        rows, counts = corpus.take(positions)
        slices = spans(corpus, kind, ids)
        expected_rows = np.concatenate(slices) if slices else np.empty((0, corpus.dim))
        assert rows.tobytes() == expected_rows.tobytes()
        assert counts.tolist() == [len(block) for block in slices]

    def test_unknown_id_is_a_typed_key_error(self):
        corpus = tiny_corpus()
        with pytest.raises(UnknownIdError) as caught:
            corpus.locate(KIND_QUERY, ["q0", "d0"])
        assert isinstance(caught.value, KeyError)
        assert isinstance(caught.value, IsoembedError)
        assert str(caught.value) == "no query with id 'd0' in corpus"

    def test_columns_are_read_only(self, tmp_path):
        save_corpus(tiny_corpus(), tmp_path / "c.emb")
        for corpus in (tiny_corpus(), load_corpus(tmp_path / "c.emb")):
            assert isinstance(corpus.ids, tuple)
            for column in (corpus.kinds, corpus.offsets, corpus.counts):
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = 1
            with pytest.raises(AttributeError):
                corpus.offsets = np.zeros(2, dtype=np.intp)

    def test_rows_of_kind_keeps_table_order_not_row_order(self):
        matrix = np.arange(12.0).reshape(6, 2)
        corpus = table_corpus(
            matrix,
            [("q1", KIND_QUERY, 4, 2), ("d0", KIND_DOCUMENT, 2, 2), ("q0", KIND_QUERY, 0, 2)],
        )
        np.testing.assert_array_equal(rows_of_kind(corpus, KIND_QUERY), matrix[[4, 5, 0, 1]])

    @pytest.mark.parametrize("fault", TABLE_FAULTS)
    def test_fault_raises_the_same_error_on_every_path(self, tmp_path, fault):
        table, error, message = TABLE_FAULTS[fault]
        ids, kinds, offsets, counts = zip(*table)
        with pytest.raises(error) as from_columns:
            EmbeddingCorpus(
                np.zeros((5, 2)), ids, np.array(kinds, dtype=np.uint8),
                np.array(offsets, dtype=np.uint64), np.array(counts, dtype=np.uint32),
            )
        assert str(from_columns.value) == message
        path = fault_file(table, tmp_path / "fault.emb")
        if fault == "unknown-kind":
            # Columns carry kind codes; a file's bytes are a format error.
            error, message = CorpusFormatError, f"{path}: unknown sequence kind 2"
        with pytest.raises(error, match=re.escape(message)):
            load_corpus(path)

    def test_negative_offset_rejected(self):
        with pytest.raises(IntegrityError, match="'q' has negative row_offset"):
            EmbeddingCorpus(np.zeros((1, 2)), ["q"], [0], [-1], [1])

    @pytest.mark.parametrize(
        "offset, count, message",
        [
            (np.uint64(2**64 - 1), np.uint64(1), r"'q' spans rows \[18446744073709551615, "),
            (np.uint64(0), np.uint64(2**64 - 1), r"'q' spans rows \[0, 18446744073709551615\)"),
            (np.int64(-(2**63)), np.int64(1), "'q' has negative row_offset"),
        ],
        ids=["uint64-offset-2^64-1", "uint64-count-2^64-1", "int64-offset--2^63"],
    )
    def test_extreme_offsets_and_counts_raise_integrity_errors(self, offset, count, message):
        """Columns at the ends of their integer types are checked without
        any sum that could overflow."""
        offsets, counts = np.array([offset]), np.array([count])
        with pytest.raises(IntegrityError, match=message):
            EmbeddingCorpus(np.zeros((2, 2)), ["q"], [0], offsets, counts)
