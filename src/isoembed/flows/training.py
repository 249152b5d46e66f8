"""Maximum-likelihood flow training and the density/gradient entry points.

The objective per row is the standard-normal negative log density of the
transformed vector minus the accumulated log-determinant:

    nll(x) = D/2 * log(2*pi) + ||f(x)||^2 / 2 - logdet(x)

averaged over the batch. Training uses adaptive-moment updates with the
conventional (0.9, 0.999, 1e-8) constants and a pinned-PRNG shuffle, so a
(matrix, architecture, config) triple always produces the same model.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..errors import EmptyInputError, NumericError, ShapeError, TrainingError
from ..rng import PinnedRng
from ..store import as_matrix, check_out
from .chain import FlowModel
from .coupling import Coupling, NetWorkspace
from .glow import GlowModel, GlowSpec
from .nice import NiceModel, NiceSpec

FlowSpec = NiceSpec | GlowSpec

ADAM_BETA_1 = 0.9
ADAM_BETA_2 = 0.999
ADAM_EPS = 1e-8
# Elements per in-place Adam pass: the block's slices of the four slabs and
# its two scratch buffers together take 1.5 MB.
ADAM_BLOCK = 32768
# Rows per forward call when transforming without a graph. It bounds the
# hidden activations of wide coupling nets (5x1000 widths: 8 KB per row and
# layer), and at the walkthrough's widths (64 columns, nets 64 wide: 512 KB
# per array of a chunk) keeps one chunk's activations in L2. On a Xeon with
# 2 MiB of L2 per core, 7,680 rows through the walkthrough glow took 84.9 ms
# in 4,096-row chunks and 65.5 ms in 1,024-row ones (medians of 7, one BLAS
# thread), with the same bits at every chunk size from 256 to 4,096.
FORWARD_CHUNK_ROWS = 1024
# Rows per likelihood evaluation in ``dataset_nll``.
NLL_CHUNK_ROWS = 2048


@dataclass(frozen=True)
class FlowTrainConfig:
    epochs: int
    learning_rate: float = 1e-4
    batch_size: int = 256
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
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
    """Adaptive-moment updates of a flow model's parameter slab, in place,
    made during the backward pass as each layer's gradients become final.

    The moments live in two slabs of ``model.slab``'s length. The model's
    backward calls ``model.layer_done`` after each layer, in reverse
    traversal order. In that order, layers form update groups that close at
    ADAM_BLOCK elements or at the first layer. Each parameter's ``.grad`` is
    a fixed view at its offset in its group's window of one shared buffer
    (the largest group's size). A closing group's slab range is updated in
    blocks, each gradient block zeroed once used. ``step`` updates any group
    the backward did not reach (zero gradient) and ends the step. A backward
    run without the hook while the optimizer is attached (a layer's own
    ``backward``) would mix groups in the buffer, so ``nll_gradient``
    refuses a model whose optimizer is not released. Write parameter values
    in place (``p.data[...] =``).

    At the first step (``t == 0``) both moments are +0.0, so a block whose
    gradient is all zero (either sign) leaves p, m and v bit for bit as
    they are: m = +0·b1 + ±0·(1-b1) = +0, v = +0, and p - (+0) = p. Such a
    block only has its gradient zero-filled. In a fit's first step every
    block that lies within a coupling net's hidden layers is one (see
    ``CouplingNet.backward``).
    """

    def __init__(self, model: FlowModel, learning_rate: float):
        self.params = model.parameters()
        self.lr = learning_rate
        self.data = model.slab
        self.m = np.zeros(self.data.size)
        self.v = np.zeros(self.data.size)
        # (layers the backward has finished when the group closes, slab range)
        layers = model.layer_parameters()
        self.groups = []
        stop = end = self.data.size
        for count, params in enumerate(reversed(layers), 1):
            end -= sum(p.data.size for p in params)
            if stop - end >= ADAM_BLOCK or count == len(layers):
                self.groups.append((count, slice(end, stop)))
                stop = end
        self.grad = np.zeros(max(group.stop - group.start for _, group in self.groups))
        starts = [group.start for _, group in reversed(self.groups)]
        offset = 0
        for p in self.params:
            at = offset - starts[bisect.bisect_right(starts, offset) - 1]
            p.grad = self.grad[at : at + p.data.size].reshape(p.data.shape)
            offset += p.data.size
        block = min(ADAM_BLOCK, self.grad.size)
        self._scratch = (np.empty(block), np.empty(block))
        self.model = model
        model.layer_done = self._layer_done
        self.t = self._layers_done = self._groups_done = 0

    def _layer_done(self) -> None:
        self._layers_done += 1
        count, group = self.groups[self._groups_done]
        if self._layers_done == count:
            self._update(group)

    def _update(self, group: slice) -> None:
        """Step t+1 over one group; per element the same operations in the
        same order as ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g**2``,
        ``p -= lr * (m/bias_1) / (sqrt(v/bias_2) + eps)``."""
        bias_1 = 1.0 - ADAM_BETA_1 ** (self.t + 1)
        bias_2 = 1.0 - ADAM_BETA_2 ** (self.t + 1)
        for start in range(group.start, group.stop, ADAM_BLOCK):
            block = slice(start, min(start + ADAM_BLOCK, group.stop))
            p, m, v = self.data[block], self.m[block], self.v[block]
            g = self.grad[start - group.start : block.stop - group.start]
            if self.t == 0 and not g.any():
                g.fill(0.0)  # p, m and v would keep their bits
                continue
            a, b = (buf[: p.size] for buf in self._scratch)
            np.multiply(m, ADAM_BETA_1, out=m)
            np.multiply(g, 1 - ADAM_BETA_1, out=a)
            np.add(m, a, out=m)
            np.multiply(v, ADAM_BETA_2, out=v)
            np.multiply(g, g, out=a)
            g.fill(0.0)  # spent; zeroed while it is still in cache
            np.multiply(a, 1 - ADAM_BETA_2, out=a)
            np.add(v, a, out=v)
            np.divide(m, bias_1, out=a)
            np.multiply(a, self.lr, out=a)
            np.divide(v, bias_2, out=b)
            np.sqrt(b, out=b)
            np.add(b, ADAM_EPS, out=b)
            np.divide(a, b, out=a)
            np.subtract(p, a, out=p)
        self._groups_done += 1

    def step(self) -> None:
        """Ends one update of every parameter; leaves the buffer zeroed."""
        for _, group in self.groups[self._groups_done :]:
            self._update(group)
        self.t += 1
        self._layers_done = self._groups_done = 0

    def release(self) -> None:
        """Detach the gradient views and the hook; parameters keep their
        slab views."""
        for p in self.params:
            p.grad = None
        del self.model.layer_done


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


def _forward_chunks(model: FlowModel, x: np.ndarray, z: np.ndarray, logdet=None) -> None:
    """Run ``x`` through the kernel chain without a tape, FORWARD_CHUNK_ROWS
    rows at a time, writing each chunk's output into the same rows of ``z``
    (which may be ``x``: a chunk is read whole before it is written) and,
    unless None, its log-determinants into ``logdet``."""
    for start in range(0, x.shape[0], FORWARD_CHUNK_ROWS):
        stop = start + FORWARD_CHUNK_ROWS
        chunk, chunk_logdet, _ = model.kernel(x[start:stop])
        z[start:stop] = chunk
        if logdet is not None:
            logdet[start:stop] = chunk_logdet


def flow_forward(model: FlowModel, batch) -> tuple[np.ndarray, np.ndarray]:
    """Transform a batch; returns (z, per-row log|det Jacobian|).

    Runs the kernel chain without a tape, in chunks of FORWARD_CHUNK_ROWS rows.
    """
    x = _check_batch(model, batch)
    z, logdet = np.empty(x.shape), np.empty(x.shape[0])
    _forward_chunks(model, x, z, logdet)
    return z, logdet


def flow_inverse(model: FlowModel, z) -> np.ndarray:
    """Invert a batch of outputs, in chunks of FORWARD_CHUNK_ROWS rows."""
    z = _check_batch(model, z)
    x = np.empty(z.shape)
    for start in range(0, z.shape[0], FORWARD_CHUNK_ROWS):
        x[start : start + FORWARD_CHUNK_ROWS] = model.inverse(z[start : start + FORWARD_CHUNK_ROWS])
    return x


def apply_flow(model: FlowModel, matrix, out=None) -> np.ndarray:
    """Row-wise transform, discarding log-determinants.

    By default the result is a new array and ``matrix`` is left as it
    was. With ``out`` (a float64 array of the matrix's shape, which may be
    ``matrix`` itself) each chunk of FORWARD_CHUNK_ROWS rows is written
    into ``out`` as soon as it is mapped, with the bits of the default
    call, and ``out`` is returned. A non-finite matrix raises ValueError,
    and an ``out`` of another shape or dtype ShapeError, before ``out`` is
    written; a NumericError in a later chunk leaves the earlier chunks of
    ``out`` written.
    """
    x = _check_batch(model, matrix)
    if out is None:
        out = np.empty(x.shape)
    else:
        check_out(out, x.shape)
    _forward_chunks(model, x, out)
    return out


def _mean_nll(z: np.ndarray, logdet: np.ndarray) -> np.float64:
    """The batch mean of ``nll(x)`` from the chain's outputs. ``nll`` and
    ``nll_tensor`` share this order of operations: the training goldens pin
    its bits."""
    per_row = (z * z).sum(axis=1) * 0.5 + logdet * -1.0
    return per_row.sum() * (1.0 / z.shape[0]) + 0.5 * z.shape[1] * math.log(2.0 * math.pi)


def nll_tensor(model: FlowModel, x: np.ndarray, init_actnorms: bool = False) -> ad.Tensor:
    """``nll`` as one graph node over the model's kernel chain, which keeps
    its tape; ``init_actnorms`` data-initializes a glow's actnorms from this
    batch on the way. The backward's seeds (``g*z + g*z`` with g = 1/2n, and
    -1/n per row for the log-det) keep this order of operations: the
    training goldens pin their bits."""
    n = x.shape[0]
    z, logdet, tape = model.kernel(x, True, init_actnorms)

    def backward(grad):
        scale = float(grad) * (1.0 / n)
        gz = z * (scale * 0.5)
        model.backward(tape, gz + gz, np.full(n, -scale), False)

    return ad.Tensor(_mean_nll(z, logdet), requires_grad=True, backward=backward)


def nll(model: FlowModel, batch) -> float:
    """Mean negative log-likelihood (nats/vector) of the batch."""
    x = _check_batch(model, batch)
    if x.shape[0] == 0:
        raise EmptyInputError("nll needs a non-empty batch")
    z, logdet, _ = model.kernel(x)
    return float(_mean_nll(z, logdet))


def nll_gradient(model: FlowModel, batch) -> list[np.ndarray]:
    """Exact reverse-mode gradient of nll for every parameter, in
    parameter-traversal order. A model with an ``Adam`` attached raises
    TrainingError: its backward would run the optimizer's updates."""
    x = _check_batch(model, batch)
    if x.shape[0] == 0:
        raise EmptyInputError("nll_gradient needs a non-empty batch")
    if "layer_done" in vars(model):
        raise TrainingError("nll_gradient needs the model's optimizer released first")
    params = model.parameters()
    for p in params:
        p.grad = None
    loss = nll_tensor(model, x)
    loss.backward()
    return [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]


def dataset_nll(model: FlowModel, matrix) -> float:
    """Mean nll over a full matrix, evaluated in chunks of NLL_CHUNK_ROWS rows."""
    x = _check_batch(model, matrix)
    if x.shape[0] == 0:
        raise EmptyInputError("dataset_nll needs at least one row")
    total = 0.0
    for start in range(0, x.shape[0], NLL_CHUNK_ROWS):
        chunk = x[start : start + NLL_CHUNK_ROWS]
        total += nll(model, chunk) * chunk.shape[0]
    return total / x.shape[0]


def model_checksum(model: FlowModel) -> str:
    """SHA-256 of every parameter's bytes in traversal order: the slab."""
    return hashlib.sha256(model.slab).hexdigest()


@contextmanager
def step_workspaces(model: FlowModel, rows: int):
    """Lends each coupling net of ``model`` a ``NetWorkspace`` for batches
    of up to ``rows`` rows while the block runs, and frees them on exit.
    Inside, each forward's backward must run before the next forward."""
    nets = [layer.net for steps in model.levels for step in steps for layer in step
            if isinstance(layer, Coupling)]
    for net in nets:
        net.work = NetWorkspace(net, rows)
    try:
        yield
    finally:
        for net in nets:
            net.work = None


def train_flow(matrix, spec: FlowSpec, cfg: FlowTrainConfig) -> tuple[FlowModel, TrainReport]:
    """Fit a flow by maximum likelihood; deterministic in (matrix, spec, cfg).

    Parameter init draws from a pinned stream seeded by cfg.seed, epoch
    shuffles from an independent child stream. Actnorm layers (if any) are
    data-initialized from the first training batch inside the first step's
    forward pass, each just before it runs. The coupling nets write their
    hidden activations and gradients into workspaces lent for the fit.
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
    optimizer = Adam(model, cfg.learning_rate)

    epoch_nll = []
    step = 0
    with step_workspaces(model, batch_size):
        for epoch in range(cfg.epochs):
            order = shuffle_rng.permutation(n) if cfg.shuffle else np.arange(n)
            batch_losses = []
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                try:
                    loss = nll_tensor(model, w[idx], init_actnorms=step == 0)
                except NumericError as exc:
                    raise TrainingError(f"step {step}: {exc}") from exc
                value = float(loss.data)
                if not math.isfinite(value):
                    raise TrainingError(f"step {step}: nll is not finite")
                loss.backward()
                # Free the step's tape before the next forward pass.
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
