"""Pinned random stream: reference-implementation equality, draw
conventions, and determinism."""

import hashlib

import numpy as np
import pytest

from isoembed.rng import GAUSSIAN_BLOCK, PinnedRng

MASK = 0xFFFFFFFFFFFFFFFF


def reference_splitmix64(seed: int, count: int) -> list[int]:
    """Scalar big-int SplitMix64, independent of the vectorized path."""
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


class TestRawStream:
    def test_matches_scalar_reference(self):
        for seed in (0, 1, 42, MASK, 2**63):
            got = PinnedRng(seed).u64(16).tolist()
            assert got == reference_splitmix64(seed, 16)

    def test_block_equals_single_draws(self):
        block = PinnedRng(9).u64(32)
        one_at_a_time = PinnedRng(9)
        singles = np.concatenate([one_at_a_time.u64(1) for _ in range(32)])
        assert np.array_equal(block, singles)

    def test_stream_continues_across_calls(self):
        rng = PinnedRng(5)
        first, second = rng.u64(4), rng.u64(4)
        assert np.array_equal(np.concatenate([first, second]), PinnedRng(5).u64(8))


class TestUniforms:
    def test_unit_interval_and_53_bit_rule(self):
        rng = PinnedRng(7)
        raw = PinnedRng(7).u64(1000)
        u = rng.uniforms(1000)
        np.testing.assert_array_equal(u, (raw >> np.uint64(11)).astype(float) * 2.0**-53)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_determinism(self):
        assert np.array_equal(PinnedRng(11).uniforms(64), PinnedRng(11).uniforms(64))


def reference_gaussians(seed: int, n: int) -> np.ndarray:
    """Box-Muller over the uniform stream, written with fresh arrays."""
    n_pairs = (n + 1) // 2
    u = PinnedRng(seed).uniforms(2 * n_pairs)
    u_radius = np.where(u[0::2] == 0.0, 2.0**-53, u[0::2])
    radius = np.sqrt(-2.0 * np.log(u_radius))
    theta = (2.0 * np.pi) * u[1::2]
    out = np.empty(2 * n_pairs)
    out[0::2] = radius * np.cos(theta)
    out[1::2] = radius * np.sin(theta)
    return out[:n]


class TestGaussians:
    def test_bitwise_equal_to_reference(self):
        for seed in (0, 3, 2**63, MASK):
            for n in (0, 1, 2, 5, 4096, 100_001):
                got = PinnedRng(seed).gaussians(n)
                assert got.tobytes() == reference_gaussians(seed, n).tobytes()
    def test_box_muller_pair_convention(self):
        """First pair: radius from u0, angle from u1."""
        u = PinnedRng(3).uniforms(2)
        expected_0 = np.sqrt(-2.0 * np.log(u[0])) * np.cos(2.0 * np.pi * u[1])
        expected_1 = np.sqrt(-2.0 * np.log(u[0])) * np.sin(2.0 * np.pi * u[1])
        g = PinnedRng(3).gaussians(2)
        np.testing.assert_allclose(g, [expected_0, expected_1], rtol=0, atol=0)

    def test_odd_draw_discards_half_pair(self):
        rng = PinnedRng(5)
        a = rng.gaussians(3)
        b = rng.gaussians(3)
        # a consumes 2 pairs (4 uniforms); b starts at uniform index 4
        fresh = PinnedRng(5)
        np.testing.assert_array_equal(a, fresh.gaussians(4)[:3])
        skip = PinnedRng(5)
        skip.uniforms(4)
        np.testing.assert_array_equal(b, skip.gaussians(3))

    def test_moments(self):
        g = PinnedRng(1).gaussians(200_000)
        assert abs(g.mean()) < 0.01
        assert abs(g.std() - 1.0) < 0.01


def whole_array_gaussians(rng: PinnedRng, n: int) -> np.ndarray:
    """The Box-Muller pass as it was written before blocking: every pair of
    the call in one array."""
    n_pairs = (n + 1) // 2
    pairs = rng.uniforms(2 * n_pairs).reshape(n_pairs, 2)
    radius = np.maximum(pairs[:, 0], 2.0**-53)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    theta = np.multiply(pairs[:, 1], 2.0 * np.pi)
    np.cos(theta, out=pairs[:, 0])
    pairs[:, 0] *= radius
    np.sin(theta, out=theta)
    np.multiply(radius, theta, out=pairs[:, 1])
    return pairs.reshape(-1)[:n]


BLOCK_VALUES = 2 * GAUSSIAN_BLOCK
BLOCKED_SIZES = (
    0, 1, 2, 7, BLOCK_VALUES - 1, BLOCK_VALUES, BLOCK_VALUES + 1, 3 * BLOCK_VALUES + 5
)


class TestBlockedGaussians:
    @pytest.mark.parametrize("n", BLOCKED_SIZES)
    @pytest.mark.parametrize("skip", [0, 3])
    def test_bitwise_equal_to_the_whole_array_pass(self, n, skip):
        blocked, whole = PinnedRng(21), PinnedRng(21)
        blocked.u64(skip + 2)
        whole.u64(skip + 2)
        got = blocked.gaussians(n)
        assert got.tobytes() == whole_array_gaussians(whole, n).tobytes()
        assert blocked.draws == whole.draws == skip + 2 + 2 * ((n + 1) // 2)

    def test_writes_into_out(self):
        out = np.full((3, BLOCK_VALUES // 3 + 1), np.nan)
        got = PinnedRng(4).gaussians(out.size, out=out)
        assert got is out
        assert out.tobytes() == whole_array_gaussians(PinnedRng(4), out.size).tobytes()

    @pytest.mark.parametrize(
        "out", [np.empty(5), np.empty(6, dtype=np.float32), np.empty((6, 2))[:, 0]],
        ids=["size", "dtype", "strided"],
    )
    def test_rejects_an_unusable_out(self, out):
        rng = PinnedRng(4)
        with pytest.raises(ValueError, match="out"):
            rng.gaussians(6, out=out)
        assert rng.draws == 0


class TestDerivedDraws:
    def test_permutation_is_valid_and_deterministic(self):
        p = PinnedRng(2).permutation(100)
        assert sorted(p.tolist()) == list(range(100))
        assert np.array_equal(p, PinnedRng(2).permutation(100))

    def test_indices_in_range(self):
        idx = PinnedRng(4).indices(10_000, 7)
        assert idx.min() >= 0 and idx.max() <= 6
        assert len(np.unique(idx)) == 7

    def test_indices_and_pairs_bitwise_equal_to_reference(self):
        for n, bound in ((1, 1), (999, 7), (50_000, 1_000_003)):
            u = PinnedRng(8).uniforms(2 * n)
            expected_i = np.minimum(np.floor(u[:n] * bound).astype(np.int64), bound - 1)
            expected_j = np.minimum(np.floor(u[n:] * (bound - 1)).astype(np.int64), bound - 2)
            assert np.array_equal(PinnedRng(8).indices(n, bound), expected_i)
            if bound >= 2:
                [(i, j)] = PinnedRng(8).index_pair_blocks(n, bound, n)
                assert np.array_equal(i, expected_i)
                assert np.array_equal(j, expected_j + (expected_j >= expected_i))

    def test_index_pairs_distinct(self):
        [(i, j)] = PinnedRng(6).index_pair_blocks(5_000, 13, 5_000)
        assert np.all(i != j)
        assert i.min() >= 0 and i.max() < 13
        assert j.min() >= 0 and j.max() < 13


# ``count`` pairs on [0, n) from PinnedRng(seed): sha256 of i's bytes then j's,
# the draw count afterwards and the next three raw outputs, recorded from
# the code that drew every pair at once.
RECORDED_PAIRS = {
    (1_000, 300, 5): (
        "6e6a7142c192df0168d841286efbe07049d32dea4d60228b09a8ee68f22e2aba",
        2_000,
        [3272177678366930258, 3702912831340834695, 4141479417140589672],
    ),
    (5_000, 13, 6): (
        "9ad58732bc5cab8462012c39bcb3106faba8fc6f65d741bfd7053357c25abe1b",
        10_000,
        [8655407281023824973, 9008162555421820750, 11541601729421381124],
    ),
    (7, 2, 1): (
        "c7a85d5392955e02698f060b75a70793eb04f277c3b270219d568313e99ec81e",
        14,
        [8042142155559163816, 3081251696030599739, 11904322950028659555],
    ),
    (0, 5, 2): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0,
        [10905525725756348110, 13819372491320860226, 10987583248141275951],
    ),
    (1_000_000, 120_800, 0): (
        "e4197d8cbf0634ad1e2b6d92575c5ffdf7c91bfcf3cfbb21a9aa2687fea05e4c",
        2_000_000,
        [9584470904141973250, 4404974325611227303, 14444630088142231118],
    ),
}


def pair_digest(blocks) -> str:
    blocks = list(blocks)
    digest = hashlib.sha256()
    for side in (0, 1):
        for block in blocks:
            digest.update(block[side].tobytes())
    return digest.hexdigest()


class TestIndexPairBlocks:
    @pytest.mark.parametrize("count, n, seed", list(RECORDED_PAIRS))
    def test_blocks_concatenate_to_the_recorded_pairs(self, count, n, seed):
        expected, draws, following = RECORDED_PAIRS[(count, n, seed)]
        # Block sizes that divide the count, that do not, that equal it
        # (one block) and that exceed it.
        edges = (max(count, 1), count + 3)
        blocks = (1000, 65_536, *edges) if count > 100_000 else (1, 7, 64, 999, *edges)
        for block in blocks:
            rng = PinnedRng(seed)
            assert pair_digest(rng.index_pair_blocks(count, n, block)) == expected, block
            assert rng.draws == draws
            assert rng.u64(3).tolist() == following

    def test_blocks_have_the_asked_size(self):
        sizes = [i.size for i, _ in PinnedRng(1).index_pair_blocks(1000, 300, 64)]
        assert sizes == [64] * 15 + [40]

    def test_stream_advances_at_the_call(self):
        """The stream's next draws do not depend on how far the blocks are read."""
        _, draws, following = RECORDED_PAIRS[(1000, 300, 5)]
        rng = PinnedRng(5)
        blocks = rng.index_pair_blocks(1000, 300, 64)
        assert rng.draws == draws
        assert rng.u64(3).tolist() == following
        next(blocks)
        assert rng.draws == draws + 3

    def test_bad_arguments_raise_at_the_call(self):
        rng = PinnedRng(0)
        for count, n, block in ((10, 1, 4), (10, 5, 0), (-1, 5, 4)):
            with pytest.raises(ValueError):
                rng.index_pair_blocks(count, n, block)
        assert rng.draws == 0
