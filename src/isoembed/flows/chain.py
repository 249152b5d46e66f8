"""The layer chain both flow models run, and its per-dimension scale layers.

A model is a list of levels, each a list of steps, each step a tuple of
layers; after every level but the last, the second half of its active
columns leaves for the prior. Every layer has ``kernel(x, keep)`` -> ``(y,
log-det contribution, cache)``, ``backward(cache, grad, logdet_grad,
need_dx)``, ``inverse(y)`` and ``parameters()``.
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..errors import NumericError
from .coupling import Coupling, ParameterSlab


class Scale:
    """y = x * exp(log_scale) per dimension; log-det sum(log_scale)."""

    def __init__(self, log_scale: ad.Tensor):
        self.log_scale = log_scale

    def kernel(self, x: np.ndarray, keep: bool = False):
        scale = np.exp(self.log_scale.data)
        return x * scale, self.log_scale.data.sum(), (x, scale) if keep else None

    def backward(self, cache, grad: np.ndarray, logdet_grad, need_dx: bool):
        x, scale = cache
        self.log_scale._accumulate(np.full_like(scale, float(logdet_grad.sum(axis=0))))
        self.log_scale._accumulate((grad * x).sum(axis=0) * scale)
        return grad * scale if need_dx else None

    def inverse(self, y: np.ndarray) -> np.ndarray:
        return y * np.exp(-self.log_scale.data)

    def parameters(self):
        return [self.log_scale]


class ActNorm(Scale):
    """A shift, then the scale: y = (x + shift) * exp(log_scale)."""

    def __init__(self, dim: int, params: ParameterSlab | None = None, initialized: bool = False):
        """Shift and log-scale over ``params`` (a zero slab of their own
        when None)."""
        if params is None:
            params = ParameterSlab.zeros(2 * dim)
        self.shift = params.take(dim)
        super().__init__(params.take(dim))
        self.initialized = initialized

    def data_init(self, x: np.ndarray) -> None:
        """Set shift/scale so this batch leaves with zero mean, unit variance.

        Writes in place, so parameters that view an optimizer's slab keep
        viewing it."""
        std = x.std(axis=0)
        std = np.maximum(std, 1e-8)
        self.shift.data[...] = -x.mean(axis=0)
        self.log_scale.data[...] = -np.log(std)
        self.initialized = True

    def forward(self, x: ad.Tensor, logdet: ad.Tensor):
        return ad.fused(self, x, logdet)

    def kernel(self, x: np.ndarray, keep: bool = False):
        return super().kernel(x + self.shift.data, keep)

    def backward(self, cache, grad: np.ndarray, logdet_grad, need_dx: bool):
        dx = super().backward(cache, grad, logdet_grad, True)
        self.shift._accumulate(dx.sum(axis=0))
        return dx if need_dx else None

    def inverse(self, y: np.ndarray) -> np.ndarray:
        return super().inverse(y) - self.shift.data

    def parameters(self):
        return [self.shift, self.log_scale]


class FlowModel:
    """What ``NiceModel`` and ``GlowModel`` share: their layer chain run
    forward, backward and inverse, and its parameters in traversal order."""

    arch_tag: int  # FLW1's architecture byte
    name: str  # the architecture, in error messages

    def __init__(self, dim: int, spec, levels: list[list[tuple]], sizes: list[int], slab):
        self.dim = dim
        self.spec = spec
        self.levels = levels
        self.sizes = sizes  # active columns entering each level
        self.slab = slab  # every parameter's data, in traversal order
        check_tiling(self.parameters(), slab)

    def parameters(self) -> list[ad.Tensor]:
        return [p for params in self.layer_parameters() for p in params]

    def layer_parameters(self) -> list[list[ad.Tensor]]:
        """Each layer's parameters, in traversal order; each parameter of a
        coupling's net is an entry of its own."""
        entries = []
        for steps in self.levels:
            for step in steps:
                for layer in step:
                    if isinstance(layer, Coupling):
                        entries.extend([p] for p in layer.parameters())
                    else:
                        entries.append(layer.parameters())
        return entries

    def layer_done(self) -> None:
        """``backward`` calls this after each entry of ``layer_parameters``;
        an optimizer hooks in here."""

    def forward_tensors(self, x: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
        return ad.fused(self, x, ad.constant(np.zeros(x.data.shape[0])))

    def kernel(self, x: np.ndarray, keep: bool = False, init_actnorms: bool = False):
        """``(z, per-row log-det, tape)``: every layer's kernel in order; each
        level's factored columns keep their positions in ``z``. With
        ``init_actnorms``, each actnorm not yet initialized is data-initialized
        from its input just before it runs."""
        z = np.empty(x.shape)
        logdet = np.zeros(x.shape[0])
        tape = []
        active = x
        for li, (size, kept, steps) in enumerate(zip(self.sizes, self.sizes[1:] + [0], self.levels)):
            for si, step in enumerate(steps):
                for layer in step:
                    if init_actnorms and isinstance(layer, ActNorm) and not layer.initialized:
                        layer.data_init(active)
                    active, contribution, cache = layer.kernel(active, keep)
                    logdet = logdet + contribution
                    tape.append(cache)
                if not np.isfinite(active).all():
                    raise NumericError(f"{self.name} step {li}.{si} produced non-finite values")
            z[:, kept:size] = active[:, kept:]
            active = active[:, :kept].copy()
        return z, logdet, tape if keep else None

    def backward(self, tape, grad: np.ndarray, logdet_grad, need_dx: bool):
        """The layers' backwards in reverse, each followed by ``layer_done``;
        a coupling's net calls it after each of its parameters instead.
        Entering a level, the input gradient of the level above joins the
        gradient of the columns it factored out as zeros plus each part."""
        caches = reversed(tape)
        first = self.levels[0][0][0]
        dx = grad[:, : self.sizes[-1]].copy()
        for size, steps in reversed(list(zip(self.sizes, self.levels))):
            if dx.shape[1] < size:
                dx = np.concatenate([dx, grad[:, dx.shape[1] : size]], axis=1)
                dx += 0.0
            for step in reversed(steps):
                for layer in reversed(step):
                    need = need_dx or layer is not first
                    if isinstance(layer, Coupling):
                        dx = layer.backward(next(caches), dx, logdet_grad, need, self.layer_done)
                    else:
                        dx = layer.backward(next(caches), dx, logdet_grad, need)
                        self.layer_done()
        return dx

    def inverse(self, z: np.ndarray) -> np.ndarray:
        x = np.array(z, dtype=np.float64)
        for li, (size, steps) in reversed(list(enumerate(zip(self.sizes, self.levels)))):
            for si, step in reversed(list(enumerate(steps))):
                h = x[:, :size]
                for layer in reversed(step):
                    h = layer.inverse(h)
                if not np.isfinite(h).all():
                    raise NumericError(f"{self.name} step {li}.{si} inverse produced non-finite values")
                x[:, :size] = h
        return x


def check_tiling(params: list[ad.Tensor], slab: np.ndarray) -> None:
    """Raise ValueError unless ``params``, in order, are consecutive views
    that tile the flat float64 ``slab`` exactly. Compares each view's base
    and byte offset; copies nothing."""
    if slab.dtype != np.float64 or slab.ndim != 1 or not slab.flags.c_contiguous:
        raise ValueError("the parameter slab must be one contiguous float64 vector")
    owner = slab if slab.base is None else slab.base
    start = slab.__array_interface__["data"][0]
    offset = 0
    for i, p in enumerate(params):
        data = p.data
        at = data.__array_interface__["data"][0]
        if data.base is not owner or not data.flags.c_contiguous or at != start + offset * slab.itemsize:
            raise ValueError(f"parameter {i} is not the slab's view at element {offset}")
        offset += data.size
    if offset != slab.size:
        raise ValueError(f"the parameters tile {offset} of {slab.size} slab elements")
