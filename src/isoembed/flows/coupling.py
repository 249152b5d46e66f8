"""Coupling networks: small rectifier MLPs used inside flow layers.

A coupling layer calls its net's ``kernel`` and ``backward`` directly, so
the layer is one graph node; ``Coupling`` is what both couplings share.

The output layer starts at zero so every freshly built flow is the
identity map; hidden layers use seeded He-style initialization.
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..rng import PinnedRng


class CouplingNet:
    """MLP in_size -> hidden ... hidden -> out_size with rectifier hiddens."""

    def __init__(self, weights: list[ad.Tensor], biases: list[ad.Tensor]):
        if len(weights) != len(biases) or not weights:
            raise ValueError("weights and biases must pair up")
        for w, b in zip(weights, biases):
            if w.data.shape[1] != b.data.shape[0]:
                raise ValueError("inconsistent layer widths")
        for w_prev, w_next in zip(weights, weights[1:]):
            if w_prev.data.shape[1] != w_next.data.shape[0]:
                raise ValueError("inconsistent width chain")
        self.weights = weights
        self.biases = biases

    @classmethod
    def build(cls, in_size: int, out_size: int, hidden: tuple[int, ...], rng: PinnedRng):
        widths = [in_size, *hidden, out_size]
        weights, biases = [], []
        for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
            last = i == len(widths) - 2
            if last:
                w = np.zeros((fan_in, fan_out))
            else:
                w = rng.gaussians(fan_in * fan_out).reshape(fan_in, fan_out)
                w *= np.sqrt(2.0 / fan_in)
            weights.append(ad.parameter(w))
            biases.append(ad.parameter(np.zeros(fan_out)))
        return cls(weights, biases)

    def parameters(self) -> list[ad.Tensor]:
        params = []
        for w, b in zip(self.weights, self.biases):
            params.append(w)
            params.append(b)
        return params

    def tensor_apply(self, x: ad.Tensor) -> ad.Tensor:
        return ad.fused(self, x)[0]

    def kernel(self, x: np.ndarray, keep: bool = False):
        """The cache holds each layer's input and rectifier mask."""
        inputs, masks = [], []
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if keep:
                inputs.append(h)
            h = h @ w.data
            h += b.data
            if i != last:
                mask = h > 0
                np.copyto(h, 0.0, where=~mask)
                if keep:
                    masks.append(mask)
        return h, None, (inputs, masks) if keep else None

    def backward(self, cache, grad: np.ndarray, logdet_grad, need_dx: bool):
        inputs, masks = cache
        for i in reversed(range(len(self.weights))):
            if i < len(masks):
                grad *= masks[i]
            self.biases[i]._accumulate(grad.sum(axis=0))
            self.weights[i]._accumulate(inputs[i].T @ grad)
            if i == 0 and not need_dx:
                return None
            grad = grad @ self.weights[i].data.T
        return grad


class Coupling:
    """The columns of one parity feed a net whose output transforms the
    other parity's columns. A subclass defines ``forward``, and how the net
    output ``out`` moves its half: ``_transform(x_moved, out, keep)`` gives
    the moved half, the log-det contribution and a cache;
    ``_transform_backward(cache, grad_moved, logdet_grad)`` the gradients
    of ``out`` and ``x_moved``; ``_untransform(y_moved, out)`` the inverse.
    """

    def __init__(self, dim: int, parity: int, net: CouplingNet):
        self.net = net
        self.cond_idx, self.moved_idx = parity_indices(dim, parity)

    def parameters(self) -> list[ad.Tensor]:
        return self.net.parameters()

    def kernel(self, x: np.ndarray, keep: bool = False):
        out, _, net_cache = self.net.kernel(x[:, self.cond_idx], keep)
        moved, contribution, cache = self._transform(x[:, self.moved_idx], out, keep)
        y = x.copy()
        y[:, self.moved_idx] = moved
        return y, contribution, (net_cache, cache) if keep else None

    def backward(self, cache, grad: np.ndarray, logdet_grad, need_dx: bool):
        net_cache, cache = cache
        # In C order: the net's bias gradient sums rows in an order set by
        # the layout, and ``grad[:, idx]`` is in Fortran order.
        grad_moved = grad.take(self.moved_idx, axis=1)
        grad_out, grad_x_moved = self._transform_backward(cache, grad_moved, logdet_grad)
        grad_cond = self.net.backward(net_cache, grad_out, None, need_dx)
        if not need_dx:
            return None
        dx = np.empty(grad.shape)
        dx[:, self.cond_idx] = grad[:, self.cond_idx] + grad_cond
        dx[:, self.moved_idx] = grad_x_moved
        return dx

    def inverse(self, y: np.ndarray) -> np.ndarray:
        out = self.net.kernel(y[:, self.cond_idx])[0]
        x = y.copy()
        x[:, self.moved_idx] = self._untransform(y[:, self.moved_idx], out)
        return x


def parity_indices(dim: int, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """(conditioning, transformed) column indices for an alternating mask.

    Parity 0 conditions on even columns and transforms odd ones; parity 1
    swaps the roles.
    """
    even = np.arange(0, dim, 2)
    odd = np.arange(1, dim, 2)
    return (even, odd) if parity == 0 else (odd, even)
