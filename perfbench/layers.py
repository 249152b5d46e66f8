"""Forward/backward microbenchmark of each flow layer type.

Each layer is built at the walkthrough's test width (hidden 64,64, batch
64) and at the paper default (hidden 5x1000, batch 256), on 64-dim input.
A repeat times the layer's public forward call on a constant batch, then
``backward()`` of a scalar reduction of its output and log-determinant,
after clearing the gradients of the layer's ``parameters()``. The
additive coupling has no class of its own; it is timed as a one-coupling
NiceModel, whose only other work is the final diagonal scale.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from isoembed import autodiff as ad
from isoembed.flows import ActNorm, AffineCoupling, CouplingNet, LuLinear, NiceModel, NiceSpec
from isoembed.rng import PinnedRng

DIM = 64
WIDTHS = {
    "test": ((64, 64), 64, 40),  # hidden, batch rows, repeats
    "paper": ((1000,) * 5, 256, 3),
}


def _layers(hidden: tuple[int, ...]):
    rng = PinnedRng(0)
    net = CouplingNet.build(DIM // 2, DIM, hidden, rng)
    coupling = AffineCoupling.build(DIM, 0, hidden, rng)
    nice = NiceModel.build(DIM, NiceSpec(couplings=1, hidden=hidden), seed=1)

    def zero_logdet(x):
        return ad.constant(np.zeros(x.data.shape[0]))

    # name -> (layer, forward returning (output, logdet or None), input width)
    return {
        "actnorm": (ActNorm(DIM), lambda layer, x: layer.forward(x, zero_logdet(x)), DIM),
        "lulinear": (LuLinear(DIM, rng), lambda layer, x: layer.forward(x, zero_logdet(x)), DIM),
        "affine_coupling": (coupling, lambda layer, x: layer.forward(x, zero_logdet(x)), DIM),
        "additive_coupling": (nice, lambda layer, x: layer.forward_tensors(x), DIM),
        "coupling_net": (net, lambda layer, x: (layer.tensor_apply(x), None), DIM // 2),
    }


def _reduce(y, logdet):
    loss = ad.total(ad.mul(y, y))
    return loss if logdet is None else ad.add(loss, ad.mul(ad.total(logdet), -1.0))


def run_layer_bench() -> dict[str, float]:
    """``flows.<layer>.<width>.{fwd,bwd}_ms``: median over repeats."""
    metrics = {}
    for width, (hidden, rows, repeats) in WIDTHS.items():
        batch = PinnedRng(7).gaussians(rows * DIM).reshape(rows, DIM)
        for name, (layer, forward, in_dim) in _layers(hidden).items():
            x = ad.constant(batch[:, :in_dim])
            fwd, bwd = [], []
            for i in range(repeats + 1):  # the first repeat warms caches
                for p in layer.parameters():
                    p.grad = None
                start = time.perf_counter()
                y, logdet = forward(layer, x)
                mid = time.perf_counter()
                loss = _reduce(y, logdet)
                back = time.perf_counter()
                loss.backward()
                end = time.perf_counter()
                if i:
                    fwd.append(mid - start)
                    bwd.append(end - back)
            metrics[f"flows.{name}.{width}.fwd_ms"] = 1e3 * statistics.median(fwd)
            metrics[f"flows.{name}.{width}.bwd_ms"] = 1e3 * statistics.median(bwd)
    return metrics
