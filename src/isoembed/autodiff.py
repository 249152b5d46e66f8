"""Minimal reverse-mode automatic differentiation over numpy arrays.

Two kinds of graph node. Generic ops (broadcast add/mul and total) combine
tensors. ``fused`` runs a whole flow layer, or a whole flow model, as one
node: its numpy kernel computes the output and keeps a small cache, and its
hand-written backward writes the gradients of its parameters itself and
routes the rest to its input, so the node's only parent is that input. A
flow's likelihood is one node over the model's kernel chain
(``flows.training.nll_tensor``). Each node whose output needs a gradient
records its parents and a closure; ``Tensor.backward`` runs the closures in
reverse topological order. A value without a graph (``flow_forward``,
``nll``) calls the kernel chain without ``keep`` and makes no node. All
data is float64 and reductions run in fixed index order, so gradients are
deterministic for a given graph.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    def _accumulate(self, grad: np.ndarray) -> None:
        # The first gradient is kept as given and later ones are added in
        # place, so a closure must not hand one array to two receivers.
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad

    def backward(self) -> None:
        """Reverse-mode pass from a scalar output; seeds d(out)/d(out) = 1."""
        if self.data.size != 1:
            raise ValueError("backward() expects a scalar output")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def constant(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def fused(layer, x: Tensor, logdet: Tensor | None = None):
    """Run a flow layer or model as one graph node; returns ``(y, logdet)``.

    ``layer.kernel(x, keep)`` returns the output, the layer's log-det
    contribution (None for a layer without one) and, when ``keep``, the
    cache its backward needs. ``layer.backward(cache, grad, logdet_grad,
    need_dx)`` accumulates the gradients of the layer's parameters and
    returns the input's gradient when ``need_dx``. The parameters are not
    graph nodes: the layer's node has ``x`` as its only parent, and its
    backward runs also when ``x`` needs no gradient. With ``logdet``, the
    updated log-det is a second node whose closure hands its gradient to the
    layer's node; an output the loss does not reach has zero gradient.
    """
    y, contribution, cache = layer.kernel(x.data, keep=True)
    logdet_grad = []

    def backward(grad):
        grad = np.zeros_like(y) if grad is None else grad
        grad_of_logdet = logdet_grad[0] if logdet_grad else np.zeros(len(y))
        dx = layer.backward(cache, grad, grad_of_logdet, x.requires_grad)
        if dx is not None:
            x._accumulate(dx)

    node = Tensor(y, requires_grad=True, parents=(x,), backward=backward)
    if logdet is None:
        return node, None

    def logdet_back(grad):
        if logdet.requires_grad:
            logdet._accumulate(grad.copy())
        logdet_grad.append(grad)

    return node, Tensor(logdet.data + contribution, parents=(logdet, node), backward=logdet_back)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.data.shape))
        if b.requires_grad:
            # ``a`` may hold ``grad`` itself; ``b`` gets an array of its own.
            b._accumulate(_unbroadcast(grad, b.data.shape).copy())

    return Tensor(a.data + b.data, parents=(a, b), backward=backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * a.data, b.data.shape))

    return Tensor(a.data * b.data, parents=(a, b), backward=backward)


def total(a) -> Tensor:
    """Sum of all entries -> scalar tensor."""
    a = _as_tensor(a)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(np.full_like(a.data, float(grad)))

    return Tensor(a.data.sum(), parents=(a,), backward=backward)
