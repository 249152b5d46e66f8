"""Multi-level flow over representation vectors: per-dimension actnorm, an
invertible linear mixing layer in LU form, and affine couplings.

The image-oriented squeeze of the original multi-scale design has no
analogue for flat vectors, so a "level" here is ``depth`` steps over the
currently active dimensions followed by factoring the second half of those
dimensions out to the prior (no factoring after the last level). The output
keeps all input dimensions: factored chunks are appended after the final
active block, most recently factored first.

Each step is actnorm -> LU linear -> affine coupling. The LU layer stores a
fixed random permutation, a unit-lower L, and an upper U whose diagonal is
sign * exp(log_diag) with frozen signs, which makes the log-determinant the
plain sum of ``log_diag``. Coupling pre-scales are hard-clamped to
[-CLAMP, CLAMP] before exponentiation to keep training from diverging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..errors import NumericError
from ..rng import PinnedRng
from .coupling import CouplingNet, parity_indices

CLAMP = 5.0


@dataclass(frozen=True)
class GlowSpec:
    levels: int = 2
    depth: int = 3
    hidden: tuple[int, ...] = (1000, 1000, 1000, 1000, 1000)

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must be >= 1")


def active_sizes(dim: int, levels: int) -> list[int]:
    """Active dimension entering each level; level l keeps the first half."""
    sizes = [dim]
    # Halving stops as soon as it would go below 2, so a huge ``levels``
    # (for example from a corrupt file header) costs no more than a small one.
    while len(sizes) < levels and sizes[-1] >= 4:
        sizes.append(sizes[-1] // 2)
    if len(sizes) < levels or sizes[-1] < 2:
        raise ValueError(f"dim {dim} too small for {levels} levels (active < 2)")
    return sizes


class ActNorm:
    def __init__(self, dim: int):
        self.shift = ad.parameter(np.zeros(dim))
        self.log_scale = ad.parameter(np.zeros(dim))
        self.initialized = False

    @classmethod
    def from_parameters(
        cls, shift: ad.Tensor, log_scale: ad.Tensor, initialized: bool
    ) -> "ActNorm":
        layer = cls(shift.data.shape[0])
        layer.shift, layer.log_scale = shift, log_scale
        layer.initialized = initialized
        return layer

    def data_init(self, x: np.ndarray) -> None:
        """Set shift/scale so this batch leaves with zero mean, unit variance."""
        std = x.std(axis=0)
        std = np.maximum(std, 1e-8)
        self.shift.data = -x.mean(axis=0)
        self.log_scale.data = -np.log(std)
        self.initialized = True

    def forward(self, x: ad.Tensor, logdet: ad.Tensor):
        y = ad.mul(ad.add(x, self.shift), ad.exp(self.log_scale))
        return y, ad.add(logdet, ad.total(self.log_scale))

    def inverse(self, y: np.ndarray) -> np.ndarray:
        return y * np.exp(-self.log_scale.data) - self.shift.data

    def parameters(self):
        return [self.shift, self.log_scale]


class LuLinear:
    """Invertible mixing y = x @ (P L U); log-determinant = sum(log_diag)."""

    def __init__(self, dim: int, rng: PinnedRng):
        """Identity L and U behind a permutation drawn from ``rng``."""
        off_diagonal = dim * (dim - 1) // 2
        self._assign(
            rng.permutation(dim),
            np.ones(dim),
            ad.parameter(np.zeros(off_diagonal)),
            ad.parameter(np.zeros(dim)),
            ad.parameter(np.zeros(off_diagonal)),
        )

    @classmethod
    def from_parameters(
        cls,
        permutation: np.ndarray,
        signs: np.ndarray,
        lower: ad.Tensor,
        log_diag: ad.Tensor,
        upper: ad.Tensor,
    ) -> "LuLinear":
        """Layer with the given permutation, frozen diagonal signs and
        strict-lower / log-diagonal / strict-upper parameters (row-major)."""
        layer = cls.__new__(cls)
        layer._assign(permutation, signs, lower, log_diag, upper)
        return layer

    def _assign(self, permutation, signs, lower, log_diag, upper) -> None:
        dim = len(permutation)
        self.dim = dim
        self.permutation = permutation
        self.signs = signs
        self._lower_rows, self._lower_cols = np.tril_indices(dim, k=-1)
        self._upper_rows, self._upper_cols = np.triu_indices(dim, k=1)
        self.lower = lower
        self.upper = upper
        self.log_diag = log_diag
        self._eye = np.eye(dim)
        self._perm_matrix = self._eye[:, permutation]

    def parameters(self):
        return [self.lower, self.log_diag, self.upper]

    def matrix_tensor(self) -> ad.Tensor:
        d = self.dim
        lower = ad.add(
            ad.scatter_matrix(self.lower, self._lower_rows, self._lower_cols, (d, d)),
            self._eye,
        )
        diag_idx = np.arange(d)
        upper = ad.add(
            ad.scatter_matrix(self.upper, self._upper_rows, self._upper_cols, (d, d)),
            ad.scatter_matrix(
                ad.mul(ad.exp(self.log_diag), self.signs), diag_idx, diag_idx, (d, d)
            ),
        )
        return ad.matmul(ad.constant(self._perm_matrix), ad.matmul(lower, upper))

    def matrix(self) -> np.ndarray:
        d = self.dim
        lower = self._eye.copy()
        lower[self._lower_rows, self._lower_cols] = self.lower.data
        upper = np.zeros((d, d))
        upper[self._upper_rows, self._upper_cols] = self.upper.data
        upper[np.arange(d), np.arange(d)] = self.signs * np.exp(self.log_diag.data)
        return self._perm_matrix @ lower @ upper

    def forward(self, x: ad.Tensor, logdet: ad.Tensor):
        y = ad.matmul(x, self.matrix_tensor())
        return y, ad.add(logdet, ad.total(self.log_diag))

    def inverse(self, y: np.ndarray) -> np.ndarray:
        # y = x @ W  =>  x^T = solve(W^T, y^T)
        return np.linalg.solve(self.matrix().T, y.T).T


class AffineCoupling:
    """Transforms one parity half: y_b = x_b * exp(s) + t with s clamped."""

    def __init__(self, dim: int, parity: int, net: CouplingNet):
        self.dim = dim
        self.parity = parity
        self.net = net
        self.cond_idx, self.moved_idx = parity_indices(dim, parity)

    @classmethod
    def build(cls, dim: int, parity: int, hidden: tuple[int, ...], rng: PinnedRng):
        cond, moved = parity_indices(dim, parity)
        net = CouplingNet.build(len(cond), 2 * len(moved), hidden, rng)
        return cls(dim, parity, net)

    def parameters(self):
        return self.net.parameters()

    def forward(self, x: ad.Tensor, logdet: ad.Tensor):
        m = len(self.moved_idx)
        cond = ad.take_cols(x, self.cond_idx)
        raw = self.net.tensor_apply(cond)
        shift = ad.take_cols(raw, slice(0, m))
        scale = ad.clamp(ad.take_cols(raw, slice(m, 2 * m)), -CLAMP, CLAMP)
        moved = ad.add(ad.mul(ad.take_cols(x, self.moved_idx), ad.exp(scale)), shift)
        y = ad.assemble_cols(self.dim, [(self.cond_idx, cond), (self.moved_idx, moved)])
        return y, ad.add(logdet, ad.sum_rows(scale))

    def inverse(self, y: np.ndarray) -> np.ndarray:
        m = len(self.moved_idx)
        raw = self.net.numpy_apply(y[:, self.cond_idx])
        shift, scale = raw[:, :m], np.clip(raw[:, m : 2 * m], -CLAMP, CLAMP)
        x = y.copy()
        x[:, self.moved_idx] = (y[:, self.moved_idx] - shift) * np.exp(-scale)
        return x


class GlowStep:
    def __init__(self, actnorm: ActNorm, linear: LuLinear, coupling: AffineCoupling):
        self.actnorm = actnorm
        self.linear = linear
        self.coupling = coupling

    def parameters(self):
        return self.actnorm.parameters() + self.linear.parameters() + self.coupling.parameters()

    def forward(self, x: ad.Tensor, logdet: ad.Tensor, label: str):
        x, logdet = self.actnorm.forward(x, logdet)
        x, logdet = self.linear.forward(x, logdet)
        x, logdet = self.coupling.forward(x, logdet)
        if not np.isfinite(x.data).all():
            raise NumericError(f"glow step {label} produced non-finite values")
        return x, logdet

    def inverse(self, y: np.ndarray) -> np.ndarray:
        return self.actnorm.inverse(self.linear.inverse(self.coupling.inverse(y)))


class GlowModel:
    arch_tag = 1

    def __init__(self, dim: int, spec: GlowSpec, levels: list[list[GlowStep]]):
        self.dim = dim
        self.spec = spec
        self.levels = levels
        self.sizes = active_sizes(dim, spec.levels)

    @classmethod
    def build(cls, dim: int, spec: GlowSpec = GlowSpec(), seed: int = 0) -> "GlowModel":
        sizes = active_sizes(dim, spec.levels)
        rng = PinnedRng(seed)
        levels = []
        step_index = 0
        for size in sizes:
            steps = []
            for _ in range(spec.depth):
                steps.append(
                    GlowStep(
                        ActNorm(size),
                        LuLinear(size, rng),
                        AffineCoupling.build(size, step_index % 2, spec.hidden, rng),
                    )
                )
                step_index += 1
            levels.append(steps)
        return cls(dim, spec, levels)

    def parameters(self) -> list[ad.Tensor]:
        params = []
        for steps in self.levels:
            for step in steps:
                params.extend(step.parameters())
        return params

    @property
    def actnorms_initialized(self) -> bool:
        return all(step.actnorm.initialized for steps in self.levels for step in steps)

    def initialize_actnorms(self, batch: np.ndarray) -> None:
        """Data-dependent init: run the batch through, initializing each
        actnorm from the activations that reach it."""
        active = ad.constant(batch)
        logdet = ad.constant(np.zeros(active.data.shape[0]))
        with ad.no_grad():
            for li, steps in enumerate(self.levels):
                for si, step in enumerate(steps):
                    if not step.actnorm.initialized:
                        step.actnorm.data_init(active.data)
                    active, logdet = step.forward(active, logdet, f"{li}.{si}")
                if li < len(self.levels) - 1:
                    active = ad.take_cols(active, slice(None, self.sizes[li + 1]))

    def forward_tensors(self, x: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
        n = x.data.shape[0]
        logdet = ad.constant(np.zeros(n))
        active = x
        factored: list[ad.Tensor] = []
        for li, steps in enumerate(self.levels):
            for si, step in enumerate(steps):
                active, logdet = step.forward(active, logdet, f"{li}.{si}")
            if li < len(self.levels) - 1:
                keep = self.sizes[li + 1]
                factored.append(ad.take_cols(active, slice(keep, None)))
                active = ad.take_cols(active, slice(None, keep))
        parts = [(np.arange(self.sizes[-1]), active)]
        position = self.sizes[-1]
        for chunk in reversed(factored):
            width = chunk.data.shape[1]
            parts.append((np.arange(position, position + width), chunk))
            position += width
        return ad.assemble_cols(self.dim, parts), logdet

    def inverse(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        n_levels = len(self.levels)
        active = z[:, : self.sizes[-1]]
        chunks: dict[int, np.ndarray] = {}
        position = self.sizes[-1]
        for li in reversed(range(n_levels - 1)):
            width = self.sizes[li] - self.sizes[li + 1]
            chunks[li] = z[:, position : position + width]
            position += width
        for li in reversed(range(n_levels)):
            if li < n_levels - 1:
                active = np.concatenate([active, chunks[li]], axis=1)
            for step in reversed(self.levels[li]):
                active = step.inverse(active)
        return active
