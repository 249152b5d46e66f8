"""Isotropy metrics: frozen anchors, enumeration oracles, and invariances."""

import hashlib
import json
import math
import struct

import numpy as np
import pytest

from conftest import table_corpus
from isoembed import (
    avg_pairwise_cosine,
    dimension_profile,
    measure,
    partition_ratio,
)
from isoembed import isotropy
from isoembed.errors import EmptyInputError, ZeroNormError
from isoembed.pipeline import run
from isoembed.store import KIND_DOCUMENT, blocked_corpus, save_corpus
from isoembed.rng import PinnedRng


def cosine_enumeration_oracle(matrix: np.ndarray) -> float:
    """Mean cosine over all unordered pairs, by explicit double loop."""
    n = matrix.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            a, b = matrix[i], matrix[j]
            total += a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
    return total / (n * (n - 1) / 2)


def guard_matrix(n: int, dim: int, seed: int = 31) -> np.ndarray:
    """Pinned Gaussians with a different scale and offset per dimension."""
    w = PinnedRng(seed).gaussians(n * dim).reshape(n, dim)
    return w * np.linspace(0.5, 3.0, dim) + np.linspace(-1.0, 2.0, dim)


class TestPartitionRatio:
    def test_symmetric_cross_is_one(self):
        w = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert partition_ratio(w) == pytest.approx(1.0, abs=1e-9)

    def test_single_row_anchor(self):
        """One row (1, 0): the partition function is e at +e1, 1/e at -e1,
        and 1 at both signs of e2, so the ratio is exp(-2)."""
        assert partition_ratio([[1.0, 0.0]]) == pytest.approx(math.exp(-2.0), abs=1e-6)

    def test_all_zero_rows(self):
        assert partition_ratio(np.zeros((3, 4))) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(50, 8))
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        assert partition_ratio(w @ q) == pytest.approx(partition_ratio(w), abs=1e-9)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(40, 6))
        shuffled = w[rng.permutation(40)]
        assert partition_ratio(shuffled) == pytest.approx(partition_ratio(w), abs=1e-12)

    def test_no_overflow_at_large_norms(self):
        """Rows big enough that w . a reaches +-700 still give finite values."""
        rng = np.random.default_rng(3)
        w = rng.normal(size=(20, 4))
        w *= 700.0 / np.abs(w @ np.linalg.eigh((w.T @ w)).eigenvectors).max()
        value = partition_ratio(w)
        assert np.isfinite(value) and 0.0 <= value <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            partition_ratio(np.zeros((0, 3)))

    def test_peak_is_projections_and_a_few_column_blocks(self, traced_peak):
        """Columns reach contiguous rows PARTITION_COLUMNS at a time; a
        transposed copy of every projection would double the peak."""
        w = guard_matrix(20_000, 64)
        with traced_peak() as traced:
            partition_ratio(w)
        block = 8 * isotropy.PARTITION_COLUMNS * w.shape[0]
        assert traced.peak <= w.nbytes + 3 * block


class TestAvgPairwiseCosine:
    def test_orthogonal_pair(self):
        assert avg_pairwise_cosine([[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(0.0, abs=1e-15)

    def test_collinear_rows(self):
        assert avg_pairwise_cosine([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_three_row_anchor_exact(self):
        assert avg_pairwise_cosine([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]) == -1.0 / 3.0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(4)
        for n, d in [(3, 2), (17, 5), (40, 9)]:
            w = rng.normal(size=(n, d))
            assert avg_pairwise_cosine(w) == pytest.approx(
                cosine_enumeration_oracle(w), abs=1e-12
            )

    def test_scale_and_permutation_invariance(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(25, 4))
        scaled = w * rng.uniform(0.1, 10.0, size=(25, 1))
        assert avg_pairwise_cosine(scaled) == pytest.approx(
            avg_pairwise_cosine(w), abs=1e-12
        )
        shuffled = w[rng.permutation(25)]
        assert avg_pairwise_cosine(shuffled) == pytest.approx(
            avg_pairwise_cosine(w), abs=1e-12
        )

    def test_sampled_mode_close_to_exact_and_deterministic(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(500, 8)) + 0.4
        exact = avg_pairwise_cosine(w)
        sampled = avg_pairwise_cosine(w, mode="sampled", pairs=200_000, seed=3)
        assert sampled == pytest.approx(exact, abs=0.01)
        again = avg_pairwise_cosine(w, mode="sampled", pairs=200_000, seed=3)
        assert sampled == again

    @pytest.mark.parametrize("block_pairs", [7, 64, None])
    def test_sampled_blocks_bitwise_equal_to_one_gather(self, monkeypatch, block_pairs):
        """1,000 pairs in blocks of 7 or 64 (neither divides 1,000), and in the
        default block size, give the value of gathering all pairs at once."""
        w = np.random.default_rng(8).normal(size=(300, 6)) + 0.2
        if block_pairs is not None:
            monkeypatch.setattr(isotropy, "BLOCK_BYTES", 8 * 6 * block_pairs)
        unit = w / np.linalg.norm(w, axis=1)[:, None]
        [(i, j)] = PinnedRng(5).index_pair_blocks(1000, 300, 1000)
        # The recorded digest of these pairs (tests/test_rng.py's RECORDED_PAIRS).
        assert hashlib.sha256(i.tobytes() + j.tobytes()).hexdigest() == (
            "6e6a7142c192df0168d841286efbe07049d32dea4d60228b09a8ee68f22e2aba"
        )
        expected = float(np.clip(np.einsum("ij,ij->i", unit[i], unit[j]).mean(), -1.0, 1.0))
        assert avg_pairwise_cosine(w, mode="sampled", pairs=1000, seed=5) == expected

    def test_sampled_memory_is_bounded(self, traced_peak):
        """10^6 pairs over 50,000 x 64 rows without gathering 2 x 10^6 rows."""
        w = np.random.default_rng(9).normal(size=(50_000, 64)) + 0.5
        with traced_peak() as traced:
            avg_pairwise_cosine(w, mode="sampled", pairs=1_000_000, seed=2)
        assert traced.peak < 64_000_000

    def test_sampled_peak_is_unit_rows_dots_and_blocks(self, traced_peak):
        """The pairs' indices are drawn a block at a time too: 16 MB of them
        for 10^6 pairs never exist at once."""
        w = np.random.default_rng(9).normal(size=(50_000, 64)) + 0.5
        pairs = 1_000_000
        with traced_peak() as traced:
            avg_pairwise_cosine(w, mode="sampled", pairs=pairs, seed=2)
        assert traced.peak <= w.nbytes + 8 * pairs + 3 * isotropy.BLOCK_BYTES

    def test_zero_norm_row_named(self):
        with pytest.raises(ZeroNormError, match="row 1") as caught:
            avg_pairwise_cosine([[1.0, 0.0], [0.0, 0.0]])
        assert isinstance(caught.value, ValueError)

    def test_sampled_mode_minimum_size(self):
        """Two rows: every sampled pair is the single distinct pair."""
        w = [[1.0, 0.0], [1.0, 1.0]]
        sampled = avg_pairwise_cosine(w, mode="sampled", pairs=100, seed=1)
        assert sampled == pytest.approx(avg_pairwise_cosine(w), abs=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(EmptyInputError):
            avg_pairwise_cosine([[1.0, 0.0]])


class TestRowNorms:
    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (1000, 8), (333, 17), (50, 100)])
    @pytest.mark.parametrize("block_bytes", [8, 1000, isotropy.BLOCK_BYTES])
    def test_bitwise_equal_to_linalg_norm(self, shape, block_bytes, monkeypatch):
        monkeypatch.setattr(isotropy, "BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(shape[0] * shape[1])
        w = rng.normal(size=shape) * 10.0 ** rng.integers(-150, 150, size=(shape[0], 1))
        for matrix in (w, w[::2]):
            assert isotropy.row_norms(matrix).tobytes() == np.linalg.norm(matrix, axis=1).tobytes()
        # Other layouts are summed like their C-order copy.
        f_order = np.asfortranarray(w)
        assert isotropy.row_norms(f_order).tobytes() == isotropy.row_norms(w).tobytes()

    def test_squares_in_bounded_blocks(self, traced_peak):
        """No temporary as large as the 16 MB input."""
        w = np.random.default_rng(3).normal(size=(32_768, 64))
        with traced_peak() as traced:
            isotropy.row_norms(w)
        assert traced.peak < w[:, 0].nbytes + isotropy.BLOCK_BYTES + 100_000


class TestGaussianBaseline:
    def test_standard_gaussian_is_nearly_isotropic(self):
        """Seeded sampling oracle: 2048 x 32 standard normal.

        The partition ratio of finite i.i.d. samples is capped by the
        spread of the sample-covariance spectrum: at this aspect ratio the
        oracle yields ~0.73-0.77 across seeds (exp of half the spectrum
        spread), climbing toward 1 as n grows. The bounds below are what
        the sampling oracle actually produces.
        """
        w = PinnedRng(2024).gaussians(2048 * 32).reshape(2048, 32)
        assert partition_ratio(w) >= 0.70
        assert abs(avg_pairwise_cosine(w)) <= 0.05

    def test_partition_ratio_grows_with_sample_size(self):
        wide = PinnedRng(5).gaussians(8192 * 32).reshape(8192, 32)
        assert partition_ratio(wide) >= 0.85


class TestMeasure:
    def test_full_batch_equals_single_calls(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(30, 5))
        report = measure(w, "full")
        assert report.i_w == partition_ratio(w)
        assert report.avg_cos == avg_pairwise_cosine(w)
        assert report.batches_averaged == 1
        assert report.batch_size == "full"

    def test_two_identical_batches_average_to_batch_value(self):
        rng = np.random.default_rng(8)
        block = rng.normal(size=(10, 4))
        w = np.vstack([block, block])
        report = measure(w, 10)
        assert report.batches_averaged == 2
        assert report.i_w == pytest.approx(partition_ratio(block), abs=1e-12)
        assert report.avg_cos == pytest.approx(avg_pairwise_cosine(block), abs=1e-12)

    def test_short_tail_batch_dropped(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(5, 3))
        report = measure(w, 2)
        assert report.batches_averaged == 2
        assert report.n_rows == 5

    def test_tail_of_two_rows_kept(self):
        rng = np.random.default_rng(10)
        w = rng.normal(size=(8, 3))
        assert measure(w, 3).batches_averaged == 3

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            measure(np.ones((4, 2)), 1)

    def test_zero_norm_row_named_by_its_corpus_row(self):
        """A zero row in a later block is named by its row in the matrix,
        not by its row inside the block."""
        w = np.random.default_rng(11).normal(size=(8, 3))
        w[6] = 0.0
        with pytest.raises(ZeroNormError, match=r"^row 6 has zero norm"):
            measure(w, 4)
        with pytest.raises(ZeroNormError, match=r"^row 6 has zero norm"):
            measure(w)

    def test_zero_norm_row_in_unmeasured_tail_is_not_read(self):
        w = np.random.default_rng(12).normal(size=(9, 3))
        w[8] = 0.0
        assert measure(w, 4).batches_averaged == 2

    def test_auto_mode_switches_to_sampling_on_large_blocks(self):
        """Above 20000 rows the auto cosine path samples 10^6 pinned pairs
        instead of enumerating; small blocks stay exact."""
        rng = np.random.default_rng(40)
        small = rng.normal(size=(50, 4)) + 0.8
        assert measure(small, cosine_mode="auto").avg_cos == avg_pairwise_cosine(small)
        big = PinnedRng(41).gaussians(20002 * 4).reshape(20002, 4) + 0.8
        auto = measure(big, cosine_mode="auto", seed=9).avg_cos
        sampled = avg_pairwise_cosine(big, mode="sampled", pairs=1_000_000, seed=9)
        assert auto == sampled
        exact = avg_pairwise_cosine(big)
        assert auto != exact
        assert auto == pytest.approx(exact, abs=5e-3)

    def test_json_round_trip(self):
        import json

        rng = np.random.default_rng(11)
        report = measure(rng.normal(size=(12, 3)))
        payload = json.loads(report.to_json())
        assert payload["n_rows"] == 12
        assert payload["batch_size"] == "full"
        assert 0.0 <= payload["i_w"] <= 1.0


class TestDimensionProfile:
    def test_identity_rows_unflagged(self):
        assert not dimension_profile(np.eye(6)).outlier_flags.any()

    def test_scaled_dimension_flagged(self):
        """Brute-force check on a seeded sample with one dimension at 100x."""
        w = PinnedRng(77).gaussians(512 * 64).reshape(512, 64)
        w[:, 13] *= 100.0
        profile = dimension_profile(w)
        assert profile.outlier_flags[13]
        assert profile.outlier_flags.sum() == 1
        expected_max = np.abs(w).max(axis=0)
        np.testing.assert_allclose(profile.max_abs, expected_max, rtol=0, atol=0)

    def test_constant_matrix(self):
        profile = dimension_profile(np.full((5, 3), 2.5))
        np.testing.assert_array_equal(profile.std, np.zeros(3))
        np.testing.assert_array_equal(profile.mean, np.full(3, 2.5))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            dimension_profile(np.zeros((0, 2)))

    def test_allocates_nothing_the_size_of_the_matrix(self, traced_peak):
        """No |w| and no w - mean as large as the 16 MB input."""
        w = guard_matrix(32_768, 64)
        with traced_peak() as traced:
            dimension_profile(w)
        assert traced.peak < isotropy.BLOCK_BYTES + 100_000

    @pytest.mark.parametrize("factor", [0.0, -1.0, np.nan, np.inf])
    def test_outlier_factor_must_be_positive_and_finite(self, factor):
        with pytest.raises(ValueError, match="outlier_factor must be positive and finite"):
            dimension_profile(np.eye(3), outlier_factor=factor)


# Collapsed corpora: the exact estimate for these rounds to 1 + 7e-16, and
# the sampled one to 1 + 2e-16 for the identical rows, without the clamp.
COLLAPSED = {
    "identical": np.tile([[0.3, 0.7, 1.1]], (3, 1)),
    "rank_one": np.outer([1.0, 2.0, 3.0], [0.3, 0.7, 1.1]),
}


class TestCollapsedCorpus:
    @pytest.mark.parametrize("name", sorted(COLLAPSED))
    def test_cosine_estimates_stay_in_range(self, name):
        matrix = COLLAPSED[name]
        assert avg_pairwise_cosine(matrix) == 1.0
        assert avg_pairwise_cosine(matrix, mode="sampled", pairs=1000) == 1.0

    @pytest.mark.parametrize("name", sorted(COLLAPSED))
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_measure_reports_full_collapse(self, name, mode):
        report = measure(COLLAPSED[name], cosine_mode=mode)
        assert report.avg_cos == 1.0
        assert 0.0 <= report.i_w <= 1.0

    @pytest.mark.parametrize("name", sorted(COLLAPSED))
    def test_cli_measure_exits_zero(self, name, tmp_path):
        matrix = COLLAPSED[name]
        corpus = table_corpus(matrix, [(f"d{i}", KIND_DOCUMENT, i, 1) for i in range(len(matrix))])
        save_corpus(corpus, tmp_path / "c.emb")
        out = tmp_path / "m.json"
        assert run(["measure", "--corpus", str(tmp_path / "c.emb"), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["avg_cos"] == 1.0


# Bitwise guards. Every digest and value below was recorded from the code
# that took each log-sum-exp over a strided column of the projections,
# gathered sampled rows by fancy indexing and profiled with ``np.abs``,
# ``mean`` and ``std`` over the whole matrix. Do not re-record them to
# make a test pass.


def float_digest(values) -> str:
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


# One more than numpy's 128-element pairwise-summation block.
GUARD_ROW_COUNTS = (1, 2, 7, 129)


def partition_digest(dim: int) -> str:
    """partition_ratio at every row count, at unit scale and at a scale
    where the projections reach the hundreds, so the log-sum-exp shift
    and its rounding both matter."""
    return float_digest(
        [
            partition_ratio(guard_matrix(n, dim, seed=dim) * scale)
            for n in GUARD_ROW_COUNTS
            for scale in (1.0, 20.0)
        ]
    )


PARTITION_DIGESTS = {
    1: "af9884b064d1dc797d508c5378397c32d81482f39332da59f246492dd345841f",
    5: "bd20f65ca74de266997d535926ee427644d2413a7df4c24650088e79862c494e",
    8: "53ea46d8fe47599b7cbfeb537f96e1e44ad322374c6910953d382610c5b82c9c",
    13: "4809ea0ca83fc7c8a3ffe3c380f57697979b5b3d65135a3ed89ef81aaa83bfd3",
    64: "ea5cd6b84c23701704957b73b758fcc208762d52dd080297ddb8d9d2cde0fe7e",
}

# Sampled cosine over 20,001 x 8 rows, the size ``measure`` samples at.
SAMPLED_COSINE = {0: "0x1.e73637f3191efp-3", 7: "0x1.e769af0cb75aap-3"}


def sampled_cosine_hex(seed: int) -> str:
    return avg_pairwise_cosine(guard_matrix(20_001, 8), mode="sampled", seed=seed).hex()


def profile_case(name: str) -> np.ndarray:
    """Matrices with an all-zero and an all-(-0.0) column: one row, one
    more row than a block of 16, and blocks of 16, 16 and 8 rows."""
    if name == "one_row":
        w = guard_matrix(1, 6)
    elif name == "two_rows":
        w = guard_matrix(2, 6)
    elif name == "block_plus_one":
        w = guard_matrix(17, 6)
    elif name == "three_blocks":
        w = guard_matrix(40, 6)
    elif name == "one_column":
        return guard_matrix(17, 1)
    elif name == "negative_zero_column":
        return np.full((7, 1), -0.0)
    else:
        raise KeyError(name)
    w[:, 2] = 0.0
    w[:, 3] = -0.0
    return w


def profile_digest(profile) -> str:
    parts = (profile.mean, profile.std, profile.max_abs)
    return hashlib.sha256(b"".join(part.tobytes() for part in parts)).hexdigest()


PROFILE_DIGESTS = {
    "one_row": "23fa31afb8909d2b9d211a2758840ca4b31f5faceb176e4c275a1bf11f0a10a5",
    "two_rows": "03c4e45bd5f5e22e638b4eeb5b37c8600536a37587042dc9fb1eb21c3ea74397",
    "block_plus_one": "c97e041e0990c9c6b931dee877011f65e73d78bf8b902b95071e416421836a2f",
    "three_blocks": "57f8616c6cd929493eb63d9319c1d60997c2a507f2bebed7e471ec9a0c93adb3",
    "one_column": "c41bb7cac90d03e88224136d983eb22946e54f9220778bb8b7dfa1d6a2af557d",
    "negative_zero_column": "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
}


def measure_corpus() -> np.ndarray:
    """20,480 x 64 rows, over the exact-cosine limit and several profile
    blocks, with an all-zero and an all-(-0.0) column."""
    w = guard_matrix(20_480, 64)
    w[:, 5] = 0.0
    w[:, 9] = -0.0
    return w


def measure_digests() -> dict:
    """sha256 of measure.json and profile.csv from a CLI measure run in
    the working directory; the config hash records the corpus path."""
    save_corpus(blocked_corpus(measure_corpus(), 32, 8, 2528, 8), "c.emb")
    args = ["measure", "--corpus", "c.emb", "--out", "m.json", "--csv", "p.csv"]
    assert run(args) == 0
    return {
        name: hashlib.sha256(open(name, "rb").read()).hexdigest() for name in ("m.json", "p.csv")
    }


MEASURE_DIGESTS = {
    "m.json": "37c5c6cb7ac02d9ed038d14b6571d1876b6f1a53b840f3efd201ccfa1669a558",
    "p.csv": "a7c947d7e172f112394f9242e570ec5d6cede9e4263475a152616bb706ae8221",
}


class TestBitwiseGuards:
    @pytest.mark.parametrize("copy_rows", [3, None])
    @pytest.mark.parametrize("dim", sorted(PARTITION_DIGESTS))
    def test_partition_ratio(self, dim, copy_rows, monkeypatch):
        if copy_rows is not None:
            monkeypatch.setattr(isotropy, "PARTITION_ROWS", copy_rows)
        assert partition_digest(dim) == PARTITION_DIGESTS[dim]

    @pytest.mark.parametrize("seed", sorted(SAMPLED_COSINE))
    def test_sampled_cosine(self, seed):
        assert sampled_cosine_hex(seed) == SAMPLED_COSINE[seed]

    @pytest.mark.parametrize("block_rows", [1, 16, None])
    @pytest.mark.parametrize("name", sorted(PROFILE_DIGESTS))
    def test_dimension_profile(self, name, block_rows, monkeypatch):
        w = profile_case(name)
        if block_rows is not None:
            monkeypatch.setattr(isotropy, "BLOCK_BYTES", 8 * w.shape[1] * block_rows)
        assert profile_digest(dimension_profile(w)) == PROFILE_DIGESTS[name]

    def test_cli_measure_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert measure_digests() == MEASURE_DIGESTS
