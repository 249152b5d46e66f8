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
from typing import NamedTuple

import numpy as np

from .. import autodiff as ad
from ..rng import PinnedRng
from .chain import ActNorm, FlowModel
from .coupling import Coupling, CouplingNet, ParameterSlab, net_size, parity_counts, parity_indices

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


class LuLinear:
    """Invertible mixing y = x @ (P L U); log-determinant = sum(log_diag)."""

    def __init__(self, dim: int, rng: PinnedRng):
        """Identity L and U behind a permutation drawn from ``rng``."""
        params = self.views(ParameterSlab.zeros(dim * dim), dim)
        self._assign(rng.permutation(dim), np.ones(dim), *params)

    @staticmethod
    def views(params: ParameterSlab, dim: int) -> tuple[ad.Tensor, ad.Tensor, ad.Tensor]:
        """The next strict-lower, log-diagonal and strict-upper views."""
        off_diagonal = dim * (dim - 1) // 2
        return params.take(off_diagonal), params.take(dim), params.take(off_diagonal)

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
        self.permutation = permutation  # fixed from here on, as is its inverse
        self._unpermute = np.argsort(permutation)
        self.signs = signs
        # Row-major flat positions of the strict-lower, strict-upper and
        # diagonal entries of a (dim, dim) matrix.
        rows, cols = np.tril_indices(dim, k=-1)
        self._lower_flat = rows * dim + cols
        rows, cols = np.triu_indices(dim, k=1)
        self._upper_flat = rows * dim + cols
        self._diag_flat = np.arange(dim) * (dim + 1)
        self.lower = lower
        self.upper = upper
        self.log_diag = log_diag

    def parameters(self):
        return [self.lower, self.log_diag, self.upper]

    def _factors(self):
        """(L, U, exp(log_diag), W = P (L U)) from the current parameters;
        P applies as a row gather, where its product would add exact zeros."""
        lower = np.eye(self.dim)
        lower.ravel()[self._lower_flat] = self.lower.data
        diag = np.exp(self.log_diag.data)
        upper = np.zeros((self.dim, self.dim))
        upper.ravel()[self._upper_flat] = self.upper.data
        upper.ravel()[self._diag_flat] = diag * self.signs
        return lower, upper, diag, (lower @ upper).take(self._unpermute, axis=0)

    def forward(self, x: ad.Tensor, logdet: ad.Tensor):
        return ad.fused(self, x, logdet)

    def kernel(self, x: np.ndarray, keep: bool = False):
        """``(x @ W, log-det contribution, cache)``."""
        lower, upper, diag, matrix = self._factors()
        cache = (x, lower, upper, diag, matrix) if keep else None
        return x @ matrix, self.log_diag.data.sum(), cache

    def backward(self, cache, grad: np.ndarray, logdet_grad, need_dx: bool):
        x, lower, upper, diag, matrix = cache
        self.log_diag._accumulate(np.full_like(diag, float(logdet_grad.sum(axis=0))))
        grad_lu = (x.T @ grad).take(self.permutation, axis=0)  # P^T (x^T grad)
        self.lower._accumulate((grad_lu @ upper.T).take(self._lower_flat))
        grad_upper = lower.T @ grad_lu
        self.upper._accumulate(grad_upper.take(self._upper_flat))
        self.log_diag._accumulate(grad_upper.take(self._diag_flat) * self.signs * diag)
        return grad @ matrix.T if need_dx else None

    def inverse(self, y: np.ndarray) -> np.ndarray:
        # y = x @ W  =>  x^T = solve(W^T, y^T)
        return np.linalg.solve(self._factors()[3].T, y.T).T


class AffineCoupling(Coupling):
    """Transforms one parity half: y_b = x_b * exp(s) + t with s clamped."""

    @classmethod
    def build(cls, dim: int, parity: int, hidden: tuple[int, ...], rng: PinnedRng):
        cond, moved = parity_indices(dim, parity)
        net = CouplingNet.build(len(cond), 2 * len(moved), hidden, rng)
        return cls(dim, parity, net)

    def forward(self, x: ad.Tensor, logdet: ad.Tensor):
        return ad.fused(self, x, logdet)

    def _transform(self, x_moved: np.ndarray, raw: np.ndarray, keep: bool):
        m = x_moved.shape[1]
        pre = raw[:, m:]
        scale = np.clip(pre, -CLAMP, CLAMP)
        factor = np.exp(scale)
        cache = (x_moved, factor, (pre > -CLAMP) & (pre < CLAMP)) if keep else None
        return x_moved * factor + raw[:, :m], scale.sum(axis=1), cache

    def _transform_backward(self, cache, grad_moved: np.ndarray, logdet_grad):
        x_moved, factor, inside = cache
        grad_scale = grad_moved * x_moved * factor
        grad_scale += logdet_grad[:, None]
        grad_raw = np.concatenate([grad_moved, grad_scale * inside], axis=1)
        return grad_raw, grad_moved * factor

    def _untransform(self, y_moved: np.ndarray, raw: np.ndarray) -> np.ndarray:
        m = y_moved.shape[1]
        return (y_moved - raw[:, :m]) * np.exp(-np.clip(raw[:, m:], -CLAMP, CLAMP))


class GlowStep(NamedTuple):
    actnorm: ActNorm
    linear: LuLinear
    coupling: AffineCoupling


class GlowModel(FlowModel):
    arch_tag = 1
    name = "glow"

    @classmethod
    def build(cls, dim: int, spec: GlowSpec = GlowSpec(), seed: int = 0) -> "GlowModel":
        """Seeded init over a zero slab: step k's permutation is drawn just
        before step k's net weights."""
        rng = PinnedRng(seed)
        steps = (
            (rng.permutation(size), np.ones(size), False)
            for size in active_sizes(dim, spec.levels)
            for _ in range(spec.depth)
        )
        params = ParameterSlab.zeros(cls.parameter_count(dim, spec), rng)
        return cls.assemble(dim, spec, steps, params)

    @classmethod
    def assemble(cls, dim: int, spec: GlowSpec, steps, params: ParameterSlab) -> "GlowModel":
        """Lay the model over ``params`` in traversal order, using all of
        it. ``steps`` yields (permutation, signs, actnorm initialized) per
        step and is consumed one step at a time."""
        sizes = active_sizes(dim, spec.levels)
        levels = [[] for _ in sizes]
        for k, (perm, signs, initialized) in enumerate(steps):
            size = sizes[k // spec.depth]
            actnorm = ActNorm(size, params, initialized)
            linear = LuLinear.from_parameters(perm, signs, *LuLinear.views(params, size))
            cond, moved = parity_indices(size, k % 2)
            net = params.net((len(cond), *spec.hidden, 2 * len(moved)))
            levels[k // spec.depth].append(GlowStep(actnorm, linear, AffineCoupling(size, k % 2, net)))
        return cls(dim, spec, levels, sizes, params.used_up())

    @staticmethod
    def parameter_count(dim: int, spec: GlowSpec) -> int:
        """From the widths alone, in integer arithmetic."""
        count = 0
        for level, size in enumerate(active_sizes(dim, spec.levels)):
            cond_0, moved_0 = (size + 1) // 2, size // 2
            even, odd = parity_counts(level * spec.depth, spec.depth)
            count += (
                spec.depth * (2 * size + size * size)  # actnorm, LU
                + even * net_size((cond_0, *spec.hidden, 2 * moved_0))
                + odd * net_size((moved_0, *spec.hidden, 2 * cond_0))
            )
        return count

    def initialize_actnorms(self, batch: np.ndarray) -> None:
        """Data-dependent init: run the batch through, initializing each
        actnorm from the activations that reach it."""
        self.kernel(batch, init_actnorms=True)
