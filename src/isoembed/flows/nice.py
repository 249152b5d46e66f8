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

from ..rng import PinnedRng
from .chain import FlowModel, Scale
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
        return x_moved + shift, 0.0, None

    def _transform_backward(self, cache, grad_moved: np.ndarray, logdet_grad):
        return grad_moved, grad_moved

    def _untransform(self, y_moved: np.ndarray, shift: np.ndarray) -> np.ndarray:
        return y_moved - shift


class NiceModel(FlowModel):
    """One level: the couplings in order, each a step, then the scaling."""

    arch_tag = 0
    name = "nice"
    # Defined on this class as well: the benchmark's tracer patches it here.
    forward_tensors = FlowModel.forward_tensors

    @classmethod
    def build(cls, dim: int, spec: NiceSpec = NiceSpec(), seed: int = 0) -> "NiceModel":
        """Seeded init over a zero slab."""
        params = ParameterSlab.zeros(cls.parameter_count(dim, spec), PinnedRng(seed))
        return cls.assemble(dim, spec, params)

    @classmethod
    def assemble(cls, dim: int, spec: NiceSpec, params: ParameterSlab) -> "NiceModel":
        """Lay the model over ``params`` in traversal order, using all of it."""
        if dim < 2:
            raise ValueError("flow dimension must be >= 2")
        steps = []
        for i in range(spec.couplings):
            cond, moved = parity_indices(dim, i % 2)
            net = params.net((len(cond), *spec.hidden, len(moved)))
            steps.append((AdditiveCoupling(dim, i % 2, net),))
        steps.append((Scale(params.take(dim)),))
        return cls(dim, spec, [steps], [dim], params.used_up())

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
