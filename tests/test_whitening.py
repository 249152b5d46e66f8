"""Whitening: hand-computed fits, covariance oracles, and the map's
exactness properties on its own fitting data."""

import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoembed import (
    WhiteningTransform,
    apply_whitening,
    avg_pairwise_cosine,
    fit_whitening,
)
from isoembed.errors import (
    CorpusFormatError,
    InsufficientDataError,
    IntegrityError,
    IsoembedError,
    ShapeError,
)
from isoembed.whitening import load_whitening, save_whitening

CROSS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def covariance_oracle(matrix: np.ndarray) -> np.ndarray:
    """Direct-summation unbiased covariance, no matrix shortcuts."""
    n, d = matrix.shape
    mu = matrix.sum(axis=0) / n
    sigma = np.zeros((d, d))
    for row in matrix:
        centered = row - mu
        sigma += np.outer(centered, centered)
    return sigma / (n - 1)


def identity_transform(dim: int) -> WhiteningTransform:
    return WhiteningTransform(
        mu=np.zeros(dim),
        rotation=np.eye(dim),
        eigenvalues=np.ones(dim),
        eps_rel=1e-8,
        fitted_on=2,
    )


def above_the_floor(t: WhiteningTransform) -> np.ndarray:
    """Where the eigenvalue is above eps_rel times the largest one; only
    for a fit whose covariance is not zero."""
    return t.eigenvalues > t.eps_rel * t.eigenvalues[-1]


class TestFit:
    def test_cross_hand_computation(self):
        """Four unit points on the axes: zero mean, covariance 2/3 * I."""
        t = fit_whitening(CROSS)
        np.testing.assert_allclose(t.mu, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(t.eigenvalues, [2.0 / 3.0, 2.0 / 3.0], atol=1e-15)
        assert t.fitted_on == 4

    def test_constant_rows_floor_everything(self):
        t = fit_whitening(np.tile([2.0, -1.0, 5.0], (6, 1)))
        np.testing.assert_allclose(t.mu, [2.0, -1.0, 5.0], atol=1e-15)
        # A zero covariance floors every eigenvalue at eps_rel itself.
        np.testing.assert_array_equal(t.eigenvalues, np.full(3, t.eps_rel))

    @pytest.mark.parametrize("eps_rel", [0.0, -1.0, np.nan, np.inf])
    def test_floor_must_be_positive_and_finite(self, eps_rel):
        with pytest.raises(ValueError, match="eps_rel must be positive and finite"):
            fit_whitening(CROSS, eps_rel=eps_rel)

    def test_reconstructs_covariance_oracle(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(1000, 16)) @ rng.normal(size=(16, 16)) + rng.normal(size=16)
        t = fit_whitening(w)
        reconstructed = t.rotation @ np.diag(t.eigenvalues) @ t.rotation.T
        np.testing.assert_allclose(reconstructed, covariance_oracle(w), atol=1e-10)

    def test_row_order_invariance(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=(200, 6))
        a = fit_whitening(w)
        b = fit_whitening(w[rng.permutation(200)])
        np.testing.assert_allclose(a.mu, b.mu, atol=1e-12)
        np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, atol=1e-12)
        probe = rng.normal(size=(5, 6))
        np.testing.assert_allclose(
            apply_whitening(a, probe), apply_whitening(b, probe), atol=1e-9
        )

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(14)
        t = fit_whitening(rng.normal(size=(50, 5)) * [1, 2, 3, 4, 5])
        assert (np.diff(t.eigenvalues) >= 0).all()

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientDataError):
            fit_whitening(np.ones((1, 3)))


class TestApply:
    def test_identity_transform_is_noop(self):
        rng = np.random.default_rng(15)
        w = rng.normal(size=(7, 4))
        np.testing.assert_array_equal(apply_whitening(identity_transform(4), w), w)

    def test_cross_probe_norm_and_axis(self):
        """Whitening the axis cross sends (1, 0) to an axis-aligned vector
        of norm sqrt(3/2); the axis and sign depend on the eigensolver."""
        t = fit_whitening(CROSS)
        z = apply_whitening(t, [[1.0, 0.0]])[0]
        assert np.linalg.norm(z) == pytest.approx(np.sqrt(1.5), abs=1e-12)
        assert np.sort(np.abs(z)) == pytest.approx([0.0, np.sqrt(1.5)], abs=1e-12)

    def test_fitting_data_becomes_standard(self):
        rng = np.random.default_rng(16)
        w = rng.normal(size=(300, 8)) @ rng.normal(size=(8, 8)) + 5.0
        t = fit_whitening(w)
        z = apply_whitening(t, w)
        assert np.abs(z.mean(axis=0)).max() < 1e-10
        cov = (z - z.mean(axis=0)).T @ (z - z.mean(axis=0)) / (len(z) - 1)
        keep = above_the_floor(t)
        assert np.abs(cov[np.ix_(keep, keep)] - np.eye(keep.sum())).max() < 1e-8

    def test_floored_dimensions_excluded(self):
        """Rank-deficient input: the flat direction is floored, the rest
        still whiten exactly."""
        rng = np.random.default_rng(17)
        base = rng.normal(size=(100, 2))
        w = np.column_stack([base, base[:, 0] + base[:, 1]])
        t = fit_whitening(w)
        keep = above_the_floor(t)
        assert keep.sum() == 2
        z = apply_whitening(t, w)
        cov = (z - z.mean(axis=0)).T @ (z - z.mean(axis=0)) / (len(z) - 1)
        assert np.abs(cov[np.ix_(keep, keep)] - np.eye(2)).max() < 1e-8

    def test_affine_property(self):
        rng = np.random.default_rng(18)
        t = fit_whitening(rng.normal(size=(60, 5)))
        x, y = rng.normal(size=(2, 5))
        for alpha in (0.0, 0.3, 1.0, -0.7):
            blend = apply_whitening(t, [alpha * x + (1 - alpha) * y])[0]
            parts = (
                alpha * apply_whitening(t, [x])[0]
                + (1 - alpha) * apply_whitening(t, [y])[0]
            )
            np.testing.assert_allclose(blend, parts, atol=1e-9)

    def test_anisotropic_corpus_becomes_isotropic(self, aniso_matrix):
        t = fit_whitening(aniso_matrix)
        z = apply_whitening(t, aniso_matrix)
        assert abs(avg_pairwise_cosine(z)) <= 0.02

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            apply_whitening(identity_transform(3), np.ones((2, 4)))

    def test_default_call_leaves_its_input(self):
        rng = np.random.default_rng(19)
        w = rng.normal(size=(9, 5)) + 2.0
        before = w.tobytes()
        apply_whitening(fit_whitening(w), w)
        assert w.tobytes() == before

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_block_raises_before_out_is_written(self, bad):
        rng = np.random.default_rng(20)
        t = fit_whitening(rng.normal(size=(30, 4)))
        block = rng.normal(size=(6, 4))
        block[-1, -1] = bad
        before = block.tobytes()
        with pytest.raises(ValueError, match="NaN or Inf"):
            apply_whitening(t, block, out=block)
        assert block.tobytes() == before


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(19)
        t = fit_whitening(rng.normal(size=(40, 6)))
        path_a, path_b = tmp_path / "a.wht", tmp_path / "b.wht"
        save_whitening(t, path_a)
        loaded = load_whitening(path_a)
        np.testing.assert_array_equal(loaded.mu, t.mu)
        np.testing.assert_array_equal(loaded.eigenvalues, t.eigenvalues)
        np.testing.assert_array_equal(loaded.rotation, t.rotation)
        assert loaded.eps_rel == t.eps_rel
        assert loaded.fitted_on == t.fitted_on
        save_whitening(loaded, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.wht"
        path.write_bytes(b"XXXX" + bytes(40))
        with pytest.raises(CorpusFormatError):
            load_whitening(path)

    def test_size_mismatch(self, tmp_path):
        rng = np.random.default_rng(20)
        t = fit_whitening(rng.normal(size=(10, 3)))
        path = tmp_path / "short.wht"
        save_whitening(t, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CorpusFormatError):
            load_whitening(path)

    @pytest.mark.parametrize(
        "offset, value",
        [
            (28, np.nan),  # mu[0]
            (28 + 8 * 3, np.inf),  # eigenvalues[0]
            (28 + 8 * 6 + 8 * 4, -np.inf),  # rotation[1, 1]
            (12, np.nan),  # eps_rel
        ],
        ids=["mu", "eigenvalues", "rotation", "eps_rel"],
    )
    def test_non_finite_payload_rejected(self, tmp_path, offset, value):
        t = fit_whitening(np.random.default_rng(21).normal(size=(10, 3)))
        path = tmp_path / "bad.wht"
        save_whitening(t, path)
        blob = bytearray(path.read_bytes())
        blob[offset : offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="NaN or Inf|not finite") as info:
            load_whitening(path)
        assert str(path) in str(info.value)

    def test_zero_dim_rejected(self, tmp_path):
        path = tmp_path / "empty.wht"
        path.write_bytes(struct.pack("<4sIIdQ", b"WHT1", 1, 0, 1e-8, 2))
        with pytest.raises(CorpusFormatError, match="dim"):
            load_whitening(path)


# WHT1 properties: transforms of random shape and scale, saved and read back
# through files, since the loader sizes its reads by the file's size.


@st.composite
def small_transforms(draw):
    dim = draw(st.integers(1, 5))
    rows = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    scales = 10.0 ** rng.integers(-3, 4, size=dim)
    eps_rel = draw(st.sampled_from([1e-8, 1e-3, 0.5]))
    return fit_whitening(rng.normal(size=(rows, dim)) * scales + rng.normal(size=dim), eps_rel)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("wht1")


def transform_bytes(transform: WhiteningTransform, directory: Path) -> bytes:
    path = directory / "saved.wht"
    save_whitening(transform, path)
    return path.read_bytes()


def load_bytes(blob: bytes, directory: Path) -> WhiteningTransform:
    path = directory / "blob.wht"
    path.write_bytes(blob)
    return load_whitening(path)


class TestFormatProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_transforms())
    def test_round_trip_is_byte_exact(self, scratch, transform):
        blob = transform_bytes(transform, scratch)
        loaded = load_bytes(blob, scratch)
        for name in ("mu", "eigenvalues", "rotation"):
            assert getattr(loaded, name).tobytes() == getattr(transform, name).tobytes()
        assert (loaded.eps_rel, loaded.fitted_on) == (transform.eps_rel, transform.fitted_on)
        assert transform_bytes(loaded, scratch) == blob

    @settings(max_examples=15, deadline=None)
    @given(small_transforms())
    def test_every_truncation_and_trailing_byte_rejected(self, scratch, transform):
        blob = transform_bytes(transform, scratch)
        for cut in range(len(blob)):
            with pytest.raises(CorpusFormatError):
                load_bytes(blob[:cut], scratch)
        with pytest.raises(CorpusFormatError):
            load_bytes(blob + b"\0", scratch)

    @settings(max_examples=150, deadline=None)
    @given(
        small_transforms(),
        st.lists(st.tuples(st.integers(0), st.integers(1, 255)), min_size=1, max_size=3),
    )
    def test_byte_flips_load_or_raise_typed_errors(self, scratch, transform, flips):
        blob = bytearray(transform_bytes(transform, scratch))
        for position, mask in flips:
            # Half of the flips land in the 28-byte header.
            blob[position % (28 if position % 2 else len(blob))] ^= mask
        try:
            loaded = load_bytes(bytes(blob), scratch)
        except IsoembedError:
            return
        assert transform_bytes(loaded, scratch) == bytes(blob)
