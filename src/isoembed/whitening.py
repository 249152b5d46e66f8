"""Linear whitening: fit mean/covariance statistics, map data to zero mean
and identity covariance.

The fitted transform stores the mean, the orthogonal eigenvector matrix of
the unbiased covariance, and its eigenvalues (ascending). Applying maps
x -> (x - mean) @ rotation @ diag(eigenvalues)^{-1/2}.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .bounded import open_bounded
from .errors import CorpusFormatError, InsufficientDataError, IntegrityError, ShapeError
from .store import as_matrix, check_out

MAGIC = b"WHT1"
FORMAT_VERSION = 1

_ORTHONORMALITY_TOL = 1e-10


@dataclass(frozen=True)
class WhiteningTransform:
    mu: np.ndarray
    rotation: np.ndarray
    eigenvalues: np.ndarray
    eps_rel: float
    fitted_on: int

    def __post_init__(self):
        for name in ("mu", "rotation", "eigenvalues"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} contains NaN or Inf")
        if not math.isfinite(self.eps_rel):
            raise ValueError(f"eps_rel {self.eps_rel} is not finite")
        dim = self.mu.shape[0]
        # Finite entries far from [-1, 1] can overflow the product; the
        # gap is then inf or NaN, and either fails the test below.
        with np.errstate(over="ignore", invalid="ignore"):
            identity_gap = np.abs(self.rotation.T @ self.rotation - np.eye(dim)).max()
        if not identity_gap <= _ORTHONORMALITY_TOL:
            raise ValueError(f"rotation is not orthogonal (max deviation {identity_gap:.2e})")
        if np.any(self.eigenvalues <= 0):
            raise ValueError("eigenvalues must be positive after flooring")
        if np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be stored ascending")

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


def check_eps_rel(eps_rel: float) -> None:
    """Raise ValueError unless the relative eigenvalue floor is positive
    and finite (NaN fails)."""
    if not 0 < eps_rel < math.inf:
        raise ValueError(f"eps_rel must be positive and finite, got {eps_rel}")


def fit_whitening(matrix, eps_rel: float = 1e-8) -> WhiteningTransform:
    """Fit mean and unbiased covariance (divisor N-1), eigendecompose.

    Eigenvalues are floored at eps_rel * max(eigenvalue) before storage so
    the transform stays invertible when the data is rank deficient; for an
    exactly zero covariance the floor falls back to eps_rel itself. Which
    eigenvalues were raised is not recorded: a WHT1 file could not tell a
    raised eigenvalue from one that was at the floor already.
    """
    check_eps_rel(eps_rel)
    w = as_matrix(matrix)
    n = w.shape[0]
    if n < 2:
        raise InsufficientDataError(f"whitening fit needs >= 2 rows, got {n}")
    mu = w.mean(axis=0)
    centered = w - mu
    sigma = (centered.T @ centered) / (n - 1)
    if not np.isfinite(sigma).all():
        raise ValueError("covariance is not finite")
    eigenvalues, rotation = np.linalg.eigh(sigma)
    lam_max = float(eigenvalues[-1])
    floor = eps_rel * lam_max if lam_max > 0 else eps_rel
    return WhiteningTransform(
        mu=mu,
        rotation=rotation,
        eigenvalues=np.maximum(eigenvalues, floor),
        eps_rel=eps_rel,
        fitted_on=n,
    )


def apply_whitening(transform: WhiteningTransform, matrix, out=None) -> np.ndarray:
    """Map each row x to (x - mu) @ rotation @ eigenvalues^{-1/2}.

    The rows are centered in ``out`` and the product is written back over
    them; ``out`` is returned. ``out`` is a float64 array of the matrix's
    shape and may be ``matrix`` itself; by default it is a new array, and
    ``matrix`` is left as it was. A non-finite matrix raises ValueError,
    and an ``out`` of another shape or dtype ShapeError, before ``out`` is
    written.
    """
    w = as_matrix(matrix)
    if w.shape[1] != transform.dim:
        raise ShapeError(
            f"matrix dim {w.shape[1]} does not match transform dim {transform.dim}"
        )
    scale = 1.0 / np.sqrt(transform.eigenvalues)
    if out is None:
        out = np.empty(w.shape)
    else:
        check_out(out, w.shape)
    centered = np.subtract(w, transform.mu, out=out)
    out[...] = centered @ (transform.rotation * scale)
    return out


# ---------------------------------------------------------------------------
# WHT1 binary format (little-endian):
#   magic "WHT1" | version u32 | dim u32 | eps_rel f64 | fitted_on u64
#   | mu f64[D] | eigenvalues f64[D] | rotation f64[D*D] row-major
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sIIdQ")


def save_whitening(transform: WhiteningTransform, path) -> None:
    with atomic_write(path) as fh:
        fh.write(
            _HEADER.pack(
                MAGIC,
                FORMAT_VERSION,
                transform.dim,
                transform.eps_rel,
                transform.fitted_on,
            )
        )
        for array in (transform.mu, transform.eigenvalues, transform.rotation):
            fh.write(np.ascontiguousarray(array, dtype="<f8"))


def load_whitening(path) -> WhiteningTransform:
    """Read a WHT1 file. Malformed bytes raise CorpusFormatError; a
    non-finite or otherwise invalid transform raises IntegrityError."""
    with open_bounded(path, "whitening file") as reader:
        magic, version, dim, eps_rel, fitted_on = reader.unpack(_HEADER.format)
        if magic != MAGIC:
            raise CorpusFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != FORMAT_VERSION:
            raise CorpusFormatError(f"{path}: unsupported version {version}")
        if dim < 1:
            raise CorpusFormatError(f"{path}: dim must be >= 1, got {dim}")
        expected = _HEADER.size + 8 * (dim + dim + dim * dim)
        if reader.size != expected:
            raise CorpusFormatError(
                f"{path}: expected {expected} bytes for dim {dim}, got {reader.size}"
            )
        mu, eigenvalues = np.empty(dim, "<f8"), np.empty(dim, "<f8")
        rotation = np.empty((dim, dim), "<f8")
        for array in (mu, eigenvalues, rotation):
            reader.read_into(array)
    try:
        return WhiteningTransform(
            mu=mu,
            rotation=rotation,
            eigenvalues=eigenvalues,
            eps_rel=eps_rel,
            fitted_on=fitted_on,
        )
    except ValueError as exc:
        raise IntegrityError(f"{path}: {exc}") from None
