"""Coupling networks: small rectifier MLPs used inside flow layers.

A coupling layer calls its net's ``kernel`` and ``backward`` directly, so
the layer is one graph node; ``Coupling`` is what both couplings share.

The output layer starts at zero so every freshly built flow is the
identity map; hidden layers use seeded He-style initialization. While the
output layer is all zero, which holds until a fit's first update, a net
runs no hidden layer: not in a forward without a tape, and not in a
backward, whose hidden and input gradients are then exactly +0.0.

Every flow's parameters live in one flat slab: ``ParameterSlab`` hands out
its consecutive views in parameter-traversal order. A seeded build and an
FLW1 load lay a model over a slab with the same assembly code, which must
use up the slab; the model keeps it as ``model.slab``, and training updates
it in place. The seeded slab starts at zero and each hidden weight is drawn
straight into its view.
"""

from __future__ import annotations

import math

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
        self.work: NetWorkspace | None = None  # lent by a training fit

    @classmethod
    def build(cls, in_size: int, out_size: int, hidden: tuple[int, ...], rng: PinnedRng):
        widths = (in_size, *hidden, out_size)
        return ParameterSlab.zeros(net_size(widths), rng).net(widths)

    def parameters(self) -> list[ad.Tensor]:
        params = []
        for w, b in zip(self.weights, self.biases):
            params.append(w)
            params.append(b)
        return params

    def tensor_apply(self, x: ad.Tensor) -> ad.Tensor:
        return ad.fused(self, x)[0]

    def kernel(self, x: np.ndarray, keep: bool = False):
        """The cache holds each layer's input and rectifier mask, and the
        workspace (``self.work``) the layers wrote into, if one is lent.

        Without a cache, a net whose output layer is all zero with a +0.0
        bias (as built) outputs +0.0 and runs no hidden layer. With finite
        hidden activations the full computation gives the same bits: ``h @
        W`` is a signed zero, and adding +0.0 makes it +0.0. (A hidden
        activation that overflows would have made it NaN.)"""
        w_out, b_out = self.weights[-1].data, self.biases[-1].data
        if not keep and not (b_out.view(np.uint64).any() or w_out.any()):
            return np.zeros((x.shape[0], w_out.shape[1])), None, None
        work = self.work if keep else None
        rows = x.shape[0]
        inputs, masks = [], []
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if keep:
                inputs.append(h)
            lent = work is not None and i != last
            h = np.matmul(h, w.data, out=work.hidden[i][:rows] if lent else None)
            h += b.data
            if i != last:
                mask = rectify(h, work.masks[i][:rows] if lent else None)
                if keep:
                    masks.append(mask)
        return h, None, (inputs, masks, work) if keep else None

    def backward(self, cache, grad: np.ndarray, logdet_grad, need_dx: bool):
        """A parameter whose ``.grad`` is an array (an optimizer's buffer)
        has its gradient written there: each gets exactly one per backward.
        One whose ``.grad`` is None accumulates as usual.

        An output layer whose weights are all zero (as built; -0.0 counts)
        passes no gradient down. After its own gradients, such a net writes
        +0.0 into every hidden parameter's gradient and returns a +0.0 input
        gradient, reading neither the hidden weights nor the tape below.
        With a finite ``grad`` the full chain gives the same bits: ``grad @
        W.T`` is +0.0 (the sum of signed zeros starts from +0.0), and every
        mask product, sum and product of finite values with it stays +0.0.
        A non-finite ``grad`` takes the full chain. (A hidden activation
        that overflowed would have made a weight gradient NaN; it makes the
        taped output NaN too, and training stops at that loss.)"""
        inputs, masks, work = cache
        last = len(self.weights) - 1
        for i in reversed(range(len(self.weights))):
            if i < len(masks):
                grad *= masks[i]
            w, b = self.weights[i], self.biases[i]
            if b.grad is None:
                b._accumulate(grad.sum(axis=0))
            else:
                grad.sum(axis=0, out=b.grad)
            if w.grad is None:
                w._accumulate(inputs[i].T @ grad)
            else:
                np.matmul(inputs[i].T, grad, out=w.grad)
            if i == last and not w.data.any() and np.isfinite(grad).all():
                for p in self.parameters()[:-2]:
                    if p.grad is None:
                        p._accumulate(np.zeros(p.data.shape))
                    else:
                        p.grad.fill(0.0)
                return np.zeros((grad.shape[0], self.weights[0].data.shape[0])) if need_dx else None
            if i == 0:
                return grad @ w.data.T if need_dx else None
            # In a workspace, layer i's input gradient overwrites its input,
            # which the weight gradient just computed was the last to read.
            grad = np.matmul(grad, w.data.T, out=None if work is None else inputs[i])


class NetWorkspace:
    """Buffers a coupling net's training forward and backward write into
    instead of allocating, for batches of up to ``rows`` rows: each hidden
    layer's activations, which its backward then overwrites with their
    gradients, and its rectifier mask.

    A tape views the buffers its forward wrote, so whoever lends a net a
    workspace (``net.work``) must run each forward's backward before the
    next forward."""

    def __init__(self, net: CouplingNet, rows: int):
        widths = [w.data.shape[1] for w in net.weights[:-1]]
        self.hidden = [np.empty((rows, width)) for width in widths]
        self.masks = [np.empty((rows, width), dtype=bool) for width in widths]


def rectify(h: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """ReLU in place; returns the mask of the entries that were > 0 (written
    into ``mask`` if given). Every other entry becomes +0.0: negatives,
    -inf, NaN and -0.0."""
    mask = np.greater(h, 0, out=mask)
    # fmax maps NaN to 0 (maximum would keep it). Outside its vector loop
    # numpy's fmax keeps -0.0; adding +0.0 makes that +0.0 and changes no
    # other value.
    np.fmax(h, 0.0, out=h)
    h += 0.0
    return mask


class Coupling:
    """The columns of one parity feed a net whose output transforms the
    other parity's columns. A subclass defines how the net output ``out``
    moves its half: ``_transform(x_moved, out, keep)`` gives
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


class ParameterSlab:
    """Hands out consecutive views of one flat float64 slab as parameters.

    With ``rng`` the slab is being seeded: it must start at zero, and
    ``net`` draws each hidden weight into its view (He scaling); biases,
    output layers and every other parameter keep the slab's zeros. Without
    ``rng`` the views keep the values already in the slab.
    """

    def __init__(self, slab: np.ndarray, rng: PinnedRng | None = None):
        self.slab = slab
        self.rng = rng
        self.pos = 0

    @classmethod
    def zeros(cls, size: int, rng: PinnedRng | None = None) -> "ParameterSlab":
        return cls(np.zeros(size), rng)

    def take(self, *shape: int) -> ad.Tensor:
        count = math.prod(shape)
        view = self.slab[self.pos : self.pos + count].reshape(shape)
        self.pos += count
        return ad.Tensor(view, requires_grad=True)

    def used_up(self) -> np.ndarray:
        """The slab, once every element of it has been handed out."""
        if self.pos != self.slab.size:
            raise ValueError(f"the assembly used {self.pos} of {self.slab.size} slab elements")
        return self.slab

    def net(self, widths: tuple[int, ...]) -> CouplingNet:
        weights, biases = [], []
        last = len(widths) - 2
        for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
            w = self.take(fan_in, fan_out)
            if self.rng is not None and i != last:
                self.rng.gaussians(fan_in * fan_out, out=w.data)
                w.data *= np.sqrt(2.0 / fan_in)
            weights.append(w)
            biases.append(self.take(fan_out))
        return CouplingNet(weights, biases)


def net_size(widths: tuple[int, ...]) -> int:
    """Parameter count of a net with these layer widths."""
    return sum(a * b + b for a, b in zip(widths, widths[1:]))


def parity_counts(first: int, count: int) -> tuple[int, int]:
    """How many of the step indices first .. first+count-1 are even / odd."""
    even = (first + count + 1) // 2 - (first + 1) // 2
    return even, count - even
