"""Minimal reverse-mode automatic differentiation over numpy arrays.

Exactly the operation set the flow models need: broadcast add/mul, matmul,
rectifier, exp, clamp, column gather/assembly, axis sums, and scalar mean.
Each op whose output needs a gradient records its parents and a closure
that routes the upstream gradient to them; ``Tensor.backward`` runs the
closures in reverse topological order. Inside ``with no_grad():`` ops record
neither, so intermediates are freed as soon as nothing refers to them and
a forward pass costs only its arithmetic. All data is float64 and
reductions run in fixed index order, so gradients are deterministic for a
given graph.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_grad_enabled = True


@contextmanager
def no_grad():
    """Run ops without recording a graph; outputs never require gradients.

    Values are the same as in graph mode. The previous mode is restored on
    exit, also when the block raises.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


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
        self.requires_grad = requires_grad or (
            _grad_enabled and any(p.requires_grad for p in parents)
        )
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, grad: np.ndarray) -> None:
        # Copy on first touch: a backward closure may hand the same array to
        # several parents, and later accumulation writes in place.
        if self.grad is None:
            self.grad = grad.copy()
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

    # -- operators ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def constant(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad, b.data.shape))

    return Tensor(a.data + b.data, parents=(a, b), backward=backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * a.data, b.data.shape))

    return Tensor(a.data * b.data, parents=(a, b), backward=backward)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ grad)

    return Tensor(a.data @ b.data, parents=(a, b), backward=backward)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * mask)

    return Tensor(np.where(mask, a.data, 0.0), parents=(a,), backward=backward)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    value = np.exp(a.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * value)

    return Tensor(value, parents=(a,), backward=backward)


def clamp(a, low: float, high: float) -> Tensor:
    """Hard clamp; gradient is 1 strictly inside [low, high], else 0."""
    a = _as_tensor(a)
    inside = (a.data > low) & (a.data < high)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * inside)

    return Tensor(np.clip(a.data, low, high), parents=(a,), backward=backward)


def take_cols(a, index) -> Tensor:
    """Gather columns of a 2-D tensor; ``index`` is an integer array or slice."""
    a = _as_tensor(a)

    def backward(grad):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[:, index] = grad
            a._accumulate(full)

    return Tensor(a.data[:, index], parents=(a,), backward=backward)


def assemble_cols(n_cols: int, parts: list[tuple[np.ndarray, Tensor]]) -> Tensor:
    """Build (n, n_cols) by placing each part's columns at its indices.

    Parts must jointly cover all columns exactly once.
    """
    parts = [(np.asarray(idx), _as_tensor(t)) for idx, t in parts]
    n = parts[0][1].data.shape[0]
    data = np.empty((n, n_cols), dtype=np.float64)
    covered = 0
    for idx, t in parts:
        data[:, idx] = t.data
        covered += len(idx)
    if covered != n_cols:
        raise ValueError("assemble_cols parts do not cover all columns")

    def backward(grad):
        for idx, t in parts:
            if t.requires_grad:
                t._accumulate(grad[:, idx])

    return Tensor(data, parents=tuple(t for _, t in parts), backward=backward)


def scatter_matrix(vec, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> Tensor:
    """Place a parameter vector at fixed (row, col) positions of a zero matrix."""
    vec = _as_tensor(vec)
    data = np.zeros(shape, dtype=np.float64)
    data[rows, cols] = vec.data

    def backward(grad):
        if vec.requires_grad:
            vec._accumulate(grad[rows, cols])

    return Tensor(data, parents=(vec,), backward=backward)


def sum_rows(a) -> Tensor:
    """Row sums of a 2-D tensor: (n, d) -> (n,)."""
    a = _as_tensor(a)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(np.repeat(grad[:, None], a.data.shape[1], axis=1))

    return Tensor(a.data.sum(axis=1), parents=(a,), backward=backward)


def total(a) -> Tensor:
    """Sum of all entries -> scalar tensor."""
    a = _as_tensor(a)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(np.full_like(a.data, float(grad)))

    return Tensor(a.data.sum(), parents=(a,), backward=backward)


def mean(a) -> Tensor:
    """Mean of all entries -> scalar tensor."""
    a = _as_tensor(a)
    return mul(total(a), 1.0 / a.data.size)
