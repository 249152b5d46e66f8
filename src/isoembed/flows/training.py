"""Maximum-likelihood flow training and the density/gradient entry points.

The objective per row is the standard-normal negative log density of the
transformed vector minus the accumulated log-determinant:

    nll(x) = D/2 * log(2*pi) + ||f(x)||^2 / 2 - logdet(x)

averaged over the batch. Training uses adaptive-moment updates with the
conventional (0.9, 0.999, 1e-8) constants and a pinned-PRNG shuffle, so a
(matrix, architecture, config) triple always produces the same model.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..errors import EmptyInputError, NumericError, ShapeError, TrainingError
from ..rng import PinnedRng
from ..store import as_matrix
from .glow import GlowModel, GlowSpec
from .nice import NiceModel, NiceSpec

FlowModel = NiceModel | GlowModel
FlowSpec = NiceSpec | GlowSpec

ADAM_BETA_1 = 0.9
ADAM_BETA_2 = 0.999
ADAM_EPS = 1e-8
# Elements per in-place Adam pass: the block's slices of the four slabs and
# its two scratch buffers together take 1.5 MB.
ADAM_BLOCK = 32768
# Rows per forward call when transforming without a graph: bounds the hidden
# activations of wide coupling nets (5x1000 widths: 8 KB per row and layer).
FORWARD_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class FlowTrainConfig:
    epochs: int
    learning_rate: float = 1e-4
    batch_size: int = 256
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class TrainReport:
    epoch_nll: tuple[float, ...]
    steps: int
    initial_nll: float
    checksum: str


class Adam:
    """Adaptive-moment updates over flat float64 state.

    Construction moves the parameters into one slab: each parameter's
    ``.data`` and ``.grad`` become views of the parameter and gradient slabs,
    in parameter-traversal order, next to slabs for the first and second
    moments. Backward then accumulates straight into the gradient slab, and
    ``step`` updates every parameter in one pass over the slabs in blocks of
    ADAM_BLOCK elements. A parameter that receives no gradient sees zeros.
    While the optimizer is in use, parameter values must be written in place
    (``p.data[...] = value``): rebinding ``.data`` detaches it from the slab.
    """

    def __init__(self, params: list[ad.Tensor], learning_rate: float):
        self.params = params
        self.lr = learning_rate
        size = sum(p.data.size for p in params)
        self.data = np.empty(size)
        self.grad = np.zeros(size)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        offset = 0
        for p in params:
            shape, stop = p.data.shape, offset + p.data.size
            data = self.data[offset:stop].reshape(shape)
            data[...] = p.data
            p.data = data
            p.grad = self.grad[offset:stop].reshape(shape)
            offset = stop
        self._grad_views = [p.grad for p in params]
        block = min(ADAM_BLOCK, size)
        self._scratch = (np.empty(block), np.empty(block))
        self.t = 0

    def step(self) -> None:
        """One update of every parameter; per element the same operations in
        the same order as ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g**2``,
        ``p -= lr * (m/bias_1) / (sqrt(v/bias_2) + eps)``."""
        self.t += 1
        bias_1 = 1.0 - ADAM_BETA_1**self.t
        bias_2 = 1.0 - ADAM_BETA_2**self.t
        for start in range(0, self.data.size, ADAM_BLOCK):
            block = slice(start, start + ADAM_BLOCK)
            p, g, m, v = self.data[block], self.grad[block], self.m[block], self.v[block]
            a, b = (buf[: p.size] for buf in self._scratch)
            np.multiply(m, ADAM_BETA_1, out=m)
            np.multiply(g, 1 - ADAM_BETA_1, out=a)
            np.add(m, a, out=m)
            np.multiply(v, ADAM_BETA_2, out=v)
            np.multiply(g, g, out=a)
            np.multiply(a, 1 - ADAM_BETA_2, out=a)
            np.add(v, a, out=v)
            np.divide(m, bias_1, out=a)
            np.multiply(a, self.lr, out=a)
            np.divide(v, bias_2, out=b)
            np.sqrt(b, out=b)
            np.add(b, ADAM_EPS, out=b)
            np.divide(a, b, out=a)
            np.subtract(p, a, out=p)

    def zero_grad(self) -> None:
        """Zero the gradient slab and point every ``.grad`` back at its view."""
        self.grad.fill(0.0)
        for p, grad in zip(self.params, self._grad_views):
            p.grad = grad

    def release(self) -> None:
        """Detach the gradient views; parameters keep their slab views."""
        for p in self.params:
            p.grad = None


def build_model(dim: int, spec: FlowSpec, seed: int = 0) -> FlowModel:
    if isinstance(spec, NiceSpec):
        return NiceModel.build(dim, spec, seed)
    if isinstance(spec, GlowSpec):
        return GlowModel.build(dim, spec, seed)
    raise TypeError(f"unknown flow architecture spec: {type(spec).__name__}")


def _check_batch(model: FlowModel, batch) -> np.ndarray:
    x = as_matrix(batch)
    if x.shape[1] != model.dim:
        raise ShapeError(f"batch dim {x.shape[1]} does not match model dim {model.dim}")
    return x


def flow_forward(model: FlowModel, batch) -> tuple[np.ndarray, np.ndarray]:
    """Transform a batch; returns (z, per-row log|det Jacobian|).

    Runs without recording a graph, in chunks of FORWARD_CHUNK_ROWS rows.
    """
    x = _check_batch(model, batch)
    zs, logdets = [], []
    with ad.no_grad():
        for start in range(0, max(x.shape[0], 1), FORWARD_CHUNK_ROWS):
            z, logdet = model.forward_tensors(
                ad.constant(x[start : start + FORWARD_CHUNK_ROWS])
            )
            zs.append(z.data)
            logdets.append(logdet.data)
    return np.concatenate(zs), np.concatenate(logdets)


def flow_inverse(model: FlowModel, z) -> np.ndarray:
    return model.inverse(_check_batch(model, z))


def apply_flow(model: FlowModel, matrix) -> np.ndarray:
    """Row-wise transform, discarding log-determinants."""
    return flow_forward(model, matrix)[0]


def nll_tensor(model: FlowModel, x: np.ndarray) -> ad.Tensor:
    z, logdet = model.forward_tensors(ad.constant(x))
    per_row = ad.add(ad.mul(ad.sum_rows(ad.mul(z, z)), 0.5), ad.mul(logdet, -1.0))
    return ad.add(ad.mean(per_row), 0.5 * model.dim * math.log(2.0 * math.pi))


def nll(model: FlowModel, batch) -> float:
    """Mean negative log-likelihood (nats/vector) of the batch."""
    x = _check_batch(model, batch)
    if x.shape[0] == 0:
        raise EmptyInputError("nll needs a non-empty batch")
    with ad.no_grad():
        return float(nll_tensor(model, x).data)


def nll_gradient(model: FlowModel, batch) -> list[np.ndarray]:
    """Exact reverse-mode gradient of nll for every parameter, in
    parameter-traversal order."""
    x = _check_batch(model, batch)
    if x.shape[0] == 0:
        raise EmptyInputError("nll_gradient needs a non-empty batch")
    params = model.parameters()
    for p in params:
        p.grad = None
    loss = nll_tensor(model, x)
    loss.backward()
    return [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]


def dataset_nll(model: FlowModel, matrix, chunk_rows: int = 2048) -> float:
    """Mean nll over a full matrix, evaluated in row chunks."""
    x = _check_batch(model, matrix)
    if x.shape[0] == 0:
        raise EmptyInputError("dataset_nll needs at least one row")
    total = 0.0
    for start in range(0, x.shape[0], chunk_rows):
        chunk = x[start : start + chunk_rows]
        total += nll(model, chunk) * chunk.shape[0]
    return total / x.shape[0]


def model_checksum(model: FlowModel) -> str:
    digest = hashlib.sha256()
    for p in model.parameters():
        digest.update(p.data.tobytes())
    return digest.hexdigest()


def train_flow(matrix, spec: FlowSpec, cfg: FlowTrainConfig) -> tuple[FlowModel, TrainReport]:
    """Fit a flow by maximum likelihood; deterministic in (matrix, spec, cfg).

    Parameter init draws from a pinned stream seeded by cfg.seed, epoch
    shuffles from an independent child stream. Actnorm layers (if any) are
    data-initialized on the first training batch before the first update.
    """
    w = as_matrix(matrix)
    n = w.shape[0]
    if n == 0:
        raise EmptyInputError("train_flow needs at least one row")
    batch_size = min(cfg.batch_size, n)
    model = build_model(w.shape[1], spec, seed=cfg.seed)
    initial_nll = dataset_nll(model, w)

    shuffle_seed = int(PinnedRng(cfg.seed).u64(1)[0])
    shuffle_rng = PinnedRng(shuffle_seed)
    optimizer = Adam(model.parameters(), cfg.learning_rate)

    epoch_nll = []
    step = 0
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n) if cfg.shuffle else np.arange(n)
        if epoch == 0 and isinstance(model, GlowModel):
            model.initialize_actnorms(w[order[:batch_size]])
        batch_losses = []
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            optimizer.zero_grad()
            try:
                loss = nll_tensor(model, w[idx])
            except NumericError as exc:
                raise TrainingError(f"step {step}: {exc}") from exc
            value = float(loss.data)
            if not math.isfinite(value):
                raise TrainingError(f"step {step}: nll is not finite")
            loss.backward()
            # Free the step's activations and intermediate gradients before
            # the update and the next forward pass.
            del loss
            optimizer.step()
            batch_losses.append(value)
            step += 1
        epoch_nll.append(float(np.mean(batch_losses)))
    optimizer.release()
    report = TrainReport(
        epoch_nll=tuple(epoch_nll),
        steps=step,
        initial_nll=initial_nll,
        checksum=model_checksum(model),
    )
    return model, report
