"""Additive-coupling flow with a final per-dimension scaling layer.

Each coupling leaves the conditioning half of the columns untouched and
adds a learned shift to the other half, so couplings are exactly invertible
and contribute nothing to the log-determinant; the only volume change comes
from the final diagonal scaling, whose log-determinant is the sum of the
log scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..errors import NumericError
from ..rng import PinnedRng
from .coupling import Coupling, ParameterSlab, net_size, parity_counts, parity_indices


@dataclass(frozen=True)
class NiceSpec:
    """Architecture knobs: number of couplings and hidden widths per net."""

    couplings: int = 4
    hidden: tuple[int, ...] = (1000, 1000, 1000, 1000, 1000)

    def __post_init__(self):
        if self.couplings < 1:
            raise ValueError("couplings must be >= 1")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must be >= 1")


class AdditiveCoupling(Coupling):
    """Shifts one parity half by a net of the other: y_b = x_b + t(x_a)."""

    def _transform(self, x_moved: np.ndarray, shift: np.ndarray, keep: bool):
        return x_moved + shift, None, None

    def _transform_backward(self, cache, grad_moved: np.ndarray, logdet_grad):
        return grad_moved, grad_moved

    def _untransform(self, y_moved: np.ndarray, shift: np.ndarray) -> np.ndarray:
        return y_moved - shift


class NiceModel:
    arch_tag = 0

    def __init__(
        self, dim: int, spec: NiceSpec, couplings, log_scale: ad.Tensor, slab: np.ndarray
    ):
        if dim < 2:
            raise ValueError("flow dimension must be >= 2")
        self.dim = dim
        self.spec = spec
        self.couplings = couplings  # list of AdditiveCoupling
        self.log_scale = log_scale
        self.slab = slab  # every parameter's data, in traversal order

    @classmethod
    def build(cls, dim: int, spec: NiceSpec = NiceSpec(), seed: int = 0) -> "NiceModel":
        """Seeded init over a zero slab."""
        params = ParameterSlab.zeros(cls.parameter_count(dim, spec), PinnedRng(seed))
        return cls.assemble(dim, spec, params)

    @classmethod
    def assemble(cls, dim: int, spec: NiceSpec, params: ParameterSlab) -> "NiceModel":
        """Lay the model over ``params`` in traversal order, using all of it."""
        couplings = []
        for i in range(spec.couplings):
            cond, moved = parity_indices(dim, i % 2)
            net = params.net((len(cond), *spec.hidden, len(moved)))
            couplings.append(AdditiveCoupling(dim, i % 2, net))
        log_scale = params.take(dim)
        return cls(dim, spec, couplings, log_scale, params.used_up())

    @staticmethod
    def parameter_count(dim: int, spec: NiceSpec) -> int:
        """From the widths alone, in integer arithmetic."""
        cond_0, moved_0 = (dim + 1) // 2, dim // 2  # parity 0: even columns condition
        even, odd = parity_counts(0, spec.couplings)
        return (
            even * net_size((cond_0, *spec.hidden, moved_0))
            + odd * net_size((moved_0, *spec.hidden, cond_0))
            + dim
        )

    def parameters(self) -> list[ad.Tensor]:
        return [p for params in self.layer_parameters() for p in params]

    def layer_parameters(self) -> list[list[ad.Tensor]]:
        """Each layer's parameters, in traversal order; the scaling is last."""
        return [coupling.parameters() for coupling in self.couplings] + [[self.log_scale]]

    def layer_done(self) -> None:
        """``backward`` calls this after each layer; an optimizer hooks in here."""

    def forward_tensors(self, x: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
        return ad.fused(self, x, ad.constant(np.zeros(x.data.shape[0])))

    def kernel(self, x: np.ndarray, keep: bool = False, init_actnorms: bool = False):
        """``(z, per-row log-det, tape)``; NICE has no actnorms to initialize."""
        tape = []
        h = x
        for i, coupling in enumerate(self.couplings):
            h, _, cache = coupling.kernel(h, keep)
            tape.append(cache)
            if not np.isfinite(h).all():
                raise NumericError(f"nice coupling {i} produced non-finite values")
        scale = np.exp(self.log_scale.data)
        z = h * scale
        if not np.isfinite(z).all():
            raise NumericError("nice scaling layer produced non-finite values")
        tape.append((h, scale))
        return z, np.zeros(x.shape[0]) + self.log_scale.data.sum(), tape if keep else None

    def backward(self, tape, grad: np.ndarray, logdet_grad, need_dx: bool):
        h, scale = tape[-1]
        self.log_scale._accumulate(np.full_like(scale, float(logdet_grad.sum(axis=0))))
        self.log_scale._accumulate((grad * h).sum(axis=0) * scale)
        grad = grad * scale
        self.layer_done()
        for i in reversed(range(len(self.couplings))):
            grad = self.couplings[i].backward(tape[i], grad, None, need_dx or i > 0)
            self.layer_done()
        return grad

    def inverse(self, z: np.ndarray) -> np.ndarray:
        h = np.asarray(z, dtype=np.float64) * np.exp(-self.log_scale.data)
        for i, coupling in reversed(list(enumerate(self.couplings))):
            h = coupling.inverse(h)
            if not np.isfinite(h).all():
                raise NumericError(f"nice coupling {i} inverse produced non-finite values")
        return h
