"""Isotropy metrics: frozen anchors, enumeration oracles, and invariances."""

import json
import math

import numpy as np
import pytest

from isoembed import (
    EmbeddingCorpus,
    SequenceRecord,
    avg_pairwise_cosine,
    dimension_profile,
    measure,
    partition_ratio,
)
from isoembed import isotropy
from isoembed.errors import EmptyInputError
from isoembed.pipeline import run
from isoembed.store import KIND_DOCUMENT, save_corpus
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
            monkeypatch.setattr(isotropy, "COSINE_BLOCK_BYTES", 8 * 6 * block_pairs)
        unit = w / np.linalg.norm(w, axis=1)[:, None]
        i, j = PinnedRng(5).index_pairs(1000, 300)
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
        assert traced.peak <= w.nbytes + 8 * pairs + 3 * isotropy.COSINE_BLOCK_BYTES

    def test_zero_norm_row_named(self):
        with pytest.raises(ValueError, match="row 1"):
            avg_pairwise_cosine([[1.0, 0.0], [0.0, 0.0]])

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
    @pytest.mark.parametrize("block_bytes", [8, 1000, isotropy.NORM_BLOCK_BYTES])
    def test_bitwise_equal_to_linalg_norm(self, shape, block_bytes, monkeypatch):
        monkeypatch.setattr(isotropy, "NORM_BLOCK_BYTES", block_bytes)
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
        assert traced.peak < w[:, 0].nbytes + isotropy.NORM_BLOCK_BYTES + 100_000


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
        corpus = EmbeddingCorpus(
            matrix,
            tuple(SequenceRecord(f"d{i}", KIND_DOCUMENT, i, 1) for i in range(len(matrix))),
        )
        save_corpus(corpus, tmp_path / "c.emb")
        out = tmp_path / "m.json"
        assert run(["measure", "--corpus", str(tmp_path / "c.emb"), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["avg_cos"] == 1.0
