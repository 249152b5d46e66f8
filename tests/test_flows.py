"""Flow models: exact inverses, log-determinants against numerical
Jacobians, gradients against finite differences, and training contracts."""

import hashlib
import itertools
import math
import os
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoembed import autodiff as ad
from isoembed.errors import (
    CorpusFormatError,
    IsoembedError,
    NumericError,
    ShapeError,
    TrainingError,
)
from isoembed.flows import training
from isoembed.flows import coupling
from isoembed.flows.chain import ActNorm, Scale
from isoembed.flows.coupling import CouplingNet, NetWorkspace, ParameterSlab, rectify
from isoembed.flows.glow import GlowStep, LuLinear
from isoembed.flows import (
    CLAMP,
    AffineCoupling,
    FlowTrainConfig,
    GlowModel,
    GlowSpec,
    NiceModel,
    NiceSpec,
    apply_flow,
    build_model,
    dataset_nll,
    flow_forward,
    flow_inverse,
    load_flow,
    model_checksum,
    nll,
    nll_gradient,
    save_flow,
    train_flow,
)
from isoembed.rng import PinnedRng

SMALL_NICE = NiceSpec(couplings=2, hidden=(8, 8))
SMALL_GLOW = GlowSpec(levels=2, depth=2, hidden=(8,))


def randomize(model, seed: int, scale: float = 0.3):
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.data += rng.normal(0.0, scale, p.data.shape)
    return model


def numerical_jacobian_logdet(model, x0: np.ndarray, h: float = 1e-5) -> float:
    d = x0.size
    jac = np.zeros((d, d))
    for j in range(d):
        step = np.zeros(d)
        step[j] = h
        plus, _ = flow_forward(model, (x0 + step)[None, :])
        minus, _ = flow_forward(model, (x0 - step)[None, :])
        jac[:, j] = (plus[0] - minus[0]) / (2.0 * h)
    _, logdet = np.linalg.slogdet(jac)
    return logdet


def finite_difference_grads(model, batch: np.ndarray, h: float = 1e-5):
    grads = []
    for p in model.parameters():
        g = np.zeros_like(p.data)
        flat_p, flat_g = p.data.ravel(), g.ravel()
        for k in range(flat_p.size):
            keep = flat_p[k]
            flat_p[k] = keep + h
            up = nll(model, batch)
            flat_p[k] = keep - h
            down = nll(model, batch)
            flat_p[k] = keep
            flat_g[k] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rel=1e-4, floor=1e-8):
    for got, want in zip(analytic, numeric):
        diff = np.abs(got - want)
        scale = np.maximum(np.abs(got), np.abs(want))
        assert np.all((diff <= floor) | (diff <= rel * scale)), (
            f"gradient mismatch: max abs diff {diff.max()}, "
            f"max rel {np.max(diff / np.maximum(scale, floor))}"
        )


def actnorms_initialized(model) -> bool:
    return all(step.actnorm.initialized for steps in model.levels for step in steps)


class TestIdentityAtInit:
    def test_nice_is_exact_identity(self):
        model = build_model(6, SMALL_NICE, seed=3)
        x = np.random.default_rng(0).normal(size=(4, 6)) * 3
        z, logdet = flow_forward(model, x)
        np.testing.assert_array_equal(z, x)
        np.testing.assert_array_equal(logdet, np.zeros(4))

    def test_glow_initial_nll_matches_raw_data(self):
        """Fresh multi-level model is a pure permutation: zero logdet and
        norm-preserving, so its nll equals the analytic standard-normal nll
        of the raw batch."""
        model = build_model(8, SMALL_GLOW, seed=4)
        x = np.random.default_rng(1).normal(size=(16, 8)) * 2
        z, logdet = flow_forward(model, x)
        np.testing.assert_allclose(np.abs(logdet), 0.0, atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.norm(z, axis=1), np.linalg.norm(x, axis=1), atol=1e-12
        )
        analytic = (
            0.5 * 8 * math.log(2 * math.pi)
            + 0.5 * float((x * x).sum(axis=1).mean())
        )
        assert nll(model, x) == pytest.approx(analytic, abs=1e-10)


class TestForwardInverse:
    def test_nice_roundtrip(self):
        model = randomize(build_model(10, SMALL_NICE, seed=5), seed=6)
        x = np.random.default_rng(2).uniform(-10, 10, size=(256, 10))
        z, _ = flow_forward(model, x)
        np.testing.assert_allclose(flow_inverse(model, z), x, atol=1e-9)

    def test_glow_roundtrip(self):
        """Perturbation kept small: affine couplings amplify by exp(scale)
        per step, so wild parameters push activations to 1e9 where float64
        rounding alone exceeds the tolerance. This setting still reaches
        |z| ~ 4e7."""
        model = randomize(build_model(10, SMALL_GLOW, seed=7), seed=8, scale=0.05)
        x = np.random.default_rng(3).uniform(-10, 10, size=(256, 10))
        z, _ = flow_forward(model, x)
        np.testing.assert_allclose(flow_inverse(model, z), x, atol=1e-6)

    def test_glow_output_keeps_all_dimensions(self):
        model = build_model(12, GlowSpec(levels=3, depth=1, hidden=(4,)), seed=9)
        x = np.random.default_rng(4).normal(size=(5, 12))
        z, _ = flow_forward(model, x)
        assert z.shape == x.shape
        np.testing.assert_allclose(flow_inverse(model, z), x, atol=1e-9)

    def test_dim_mismatch(self):
        model = build_model(6, SMALL_NICE, seed=0)
        with pytest.raises(ShapeError):
            flow_forward(model, np.ones((2, 5)))


class TestNonFiniteChecks:
    """Forward and inverse check each step's output: the first step that
    leaves a non-finite value raises NumericError naming its level and step."""

    def test_nice_forward_names_the_coupling(self):
        model = build_model(4, NiceSpec(couplings=2, hidden=(4,)), seed=0)
        # The second coupling shifts the even columns by its output bias.
        model.levels[0][1][0].net.biases[-1].data[...] = 1.79e308
        x = np.ones((2, 4))
        x[:, ::2] = 1e307
        with np.errstate(all="ignore"), pytest.raises(
            NumericError, match=r"^nice step 0\.1 produced non-finite values$"
        ):
            flow_forward(model, x)

    def test_nice_inverse_names_the_scaling(self):
        model = build_model(4, NiceSpec(couplings=2, hidden=(4,)), seed=0)
        model.levels[0][2][0].log_scale.data[...] = -800.0
        with np.errstate(all="ignore"), pytest.raises(
            NumericError, match=r"^nice step 0\.2 inverse produced non-finite values$"
        ):
            flow_inverse(model, np.ones((2, 4)))

    def test_glow_forward_names_the_step(self):
        model = build_model(4, GlowSpec(levels=1, depth=2, hidden=(4,)), seed=0)
        model.levels[0][1].actnorm.log_scale.data[...] = 800.0
        with np.errstate(all="ignore"), pytest.raises(
            NumericError, match=r"^glow step 0\.1 produced non-finite values$"
        ):
            flow_forward(model, np.ones((2, 4)))

    def test_glow_inverse_names_the_first_step_it_inverts(self):
        """The inverse runs the last level first: its actnorm overflows."""
        model = build_model(4, GlowSpec(levels=2, depth=1, hidden=(4,)), seed=0)
        for steps in model.levels:
            steps[0].actnorm.log_scale.data[...] = -10.0
        with np.errstate(all="ignore"), pytest.raises(
            NumericError, match=r"^glow step 1\.0 inverse produced non-finite values$"
        ):
            flow_inverse(model, np.full((1, 4), 1e305))

    def test_training_wraps_the_step_error(self):
        """Batch 0 holds column 0 constant, so its actnorm scales by 1e8;
        batch 1's 1e301 in that column then overflows in the first step."""
        w = np.random.default_rng(16).normal(size=(8, 4))
        w[:4, 0] = 1.0
        w[4:, 0] = 1e301
        cfg = FlowTrainConfig(epochs=1, batch_size=4, seed=1, shuffle=False)
        with np.errstate(all="ignore"), pytest.raises(
            TrainingError, match=r"^step 1: glow step 0\.0 produced non-finite values$"
        ) as caught:
            train_flow(w, GlowSpec(levels=1, depth=1, hidden=(4,)), cfg)
        assert isinstance(caught.value.__cause__, NumericError)

    def test_untrained_net_overflow_surfaces_in_the_first_training_step(self):
        """A forward without a tape skips the hidden layers of a net whose
        output layer is zero, so hidden activations that overflow, which
        ``h @ 0`` would turn into NaN, go unseen by ``dataset_nll``: the
        initial NLL is that of the identity flow. The first training step's
        forward runs them and raises."""
        spec = NiceSpec(couplings=2, hidden=(64,))
        x = np.full((8, 4), 10.0)
        model = build_model(4, spec, seed=0)
        model.levels[0][0][0].net.weights[0].data[...] = 1e308
        with np.errstate(all="ignore"):
            assert dataset_nll(model, x) == dataset_nll(build_model(4, spec, seed=0), x)
            with pytest.raises(NumericError, match=r"^nice step 0\.0 produced"):
                training.nll_tensor(model, x)
        cfg = FlowTrainConfig(epochs=1, batch_size=8, seed=0)
        with np.errstate(all="ignore"), pytest.raises(
            TrainingError, match=r"^step 0: nice step 0\.0 produced non-finite values$"
        ):
            train_flow(np.full((8, 4), 1e308), spec, cfg)


class TestLogDet:
    def test_diagonal_linear_anchor(self):
        """A mixing layer realizing diag(2, 0.5) has logdet log2 + log0.5 = 0."""
        model = build_model(2, GlowSpec(levels=1, depth=1, hidden=(4,)), seed=1)
        step = model.levels[0][0]
        # The layer gets its permutation when it is built, over the step's
        # own slab views.
        linear = LuLinear.from_parameters(np.array([0, 1]), np.ones(2), *step.linear.parameters())
        model.levels[0][0] = GlowStep(step.actnorm, linear, step.coupling)
        linear.log_diag.data[...] = np.log(np.array([2.0, 0.5]))
        x = np.array([[1.0, 1.0], [2.0, -1.0]])
        z, logdet = flow_forward(model, x)
        np.testing.assert_allclose(logdet, np.zeros(2), atol=1e-14)
        np.testing.assert_allclose(z, x * [2.0, 0.5], atol=1e-14)

    @pytest.mark.parametrize("spec", [SMALL_NICE, SMALL_GLOW], ids=["nice", "glow"])
    def test_matches_numerical_jacobian(self, spec):
        rng = np.random.default_rng(10)
        for trial in range(4):
            model = randomize(build_model(6, spec, seed=trial), seed=100 + trial)
            x0 = rng.normal(size=6)
            _, logdet = flow_forward(model, x0[None, :])
            numeric = numerical_jacobian_logdet(model, x0)
            assert logdet[0] == pytest.approx(numeric, rel=1e-4, abs=1e-8)

    def test_composition_additivity(self):
        """Whole-model logdet equals the sum of per-step logdets computed
        by running the layers one at a time."""
        model = randomize(build_model(6, GlowSpec(levels=1, depth=3, hidden=(8,)), seed=11), 12)
        x = np.random.default_rng(5).normal(size=(7, 6))
        _, whole = flow_forward(model, x)
        h = ad.constant(x)
        total = ad.constant(np.zeros(7))
        for step in model.levels[0]:
            for layer in step:
                h, total = layer.forward(h, total)
        np.testing.assert_allclose(whole, total.data, atol=1e-12)


class TestNll:
    def test_identity_origin_anchor(self):
        """Identity flow at the origin in 2-D: nll is exactly log(2*pi)."""
        model = build_model(2, NiceSpec(couplings=2, hidden=(4,)), seed=0)
        assert nll(model, np.zeros((1, 2))) == pytest.approx(
            math.log(2 * math.pi), abs=1e-12
        )

    def test_gaussian_batch_near_analytic_mean(self):
        """Monte-Carlo oracle: per-row nll has mean D/2*(log 2pi + 1) and
        variance D/2, so the batch mean lands within 3 sigma."""
        from isoembed.rng import PinnedRng

        model = build_model(16, NiceSpec(couplings=2, hidden=(4,)), seed=0)
        n = 4096
        batch = PinnedRng(42).gaussians(n * 16).reshape(n, 16)
        expected = 8 * (math.log(2 * math.pi) + 1.0)
        three_sigma = 3.0 * math.sqrt(16 / 2 / n)
        assert nll(model, batch) == pytest.approx(expected, abs=three_sigma)

    def test_row_permutation_invariance(self):
        model = randomize(build_model(6, SMALL_NICE, seed=1), 2)
        rng = np.random.default_rng(6)
        batch = rng.normal(size=(32, 6))
        shuffled = batch[rng.permutation(32)]
        assert nll(model, shuffled) == pytest.approx(nll(model, batch), abs=1e-12)

    @pytest.mark.parametrize("perturbed", [False, True], ids=["fresh", "perturbed"])
    @pytest.mark.parametrize("spec", [SMALL_NICE, SMALL_GLOW], ids=["nice", "glow"])
    def test_equals_the_graph_node_bitwise(self, spec, perturbed):
        """``nll`` runs the kernel chain without a tape and ``nll_tensor``
        with one; a fresh flow's nets skip their hidden layers only in the
        first. The values are the same bits."""
        model = build_model(8, spec, seed=60)
        if perturbed:
            randomize(model, seed=61, scale=0.1)
        x = np.random.default_rng(62).normal(size=(37, 8)) * 2.0 + 0.5
        assert nll(model, x) == float(training.nll_tensor(model, x).data)

    def test_dataset_nll_weights_its_chunks_by_rows(self):
        """2,049 rows: a chunk of NLL_CHUNK_ROWS and a chunk of one row.
        The likelihood values make no graph node."""
        assert training.NLL_CHUNK_ROWS == 2048
        model = randomize(build_model(6, SMALL_GLOW, seed=63), seed=64, scale=0.1)
        x = np.random.default_rng(65).normal(size=(2049, 6))
        with mock.patch.object(ad.Tensor, "__init__", side_effect=AssertionError("graph node")):
            value = dataset_nll(model, x)
        head, tail = (float(training.nll_tensor(model, part).data) for part in (x[:2048], x[2048:]))
        assert value == (head * 2048 + tail * 1) / 2049

    def test_non_finite_forward_raises(self):
        model = build_model(4, GlowSpec(levels=1, depth=2, hidden=(4,)), seed=0)
        model.levels[0][1].actnorm.log_scale.data[...] = 800.0
        with np.errstate(all="ignore"), pytest.raises(
            NumericError, match=r"^glow step 0\.1 produced non-finite values$"
        ):
            nll(model, np.ones((2, 4)))


class TestGradients:
    def test_scale_gradient_hand_oracle(self):
        """At identity init the nll is D/2 log 2pi + ||x e^s||^2/2 - sum(s),
        so d nll / d s_d = x_d^2 - 1 on a single row."""
        model = build_model(5, NiceSpec(couplings=2, hidden=(4,)), seed=0)
        x = np.array([[0.5, -1.5, 2.0, 0.0, 1.0]])
        grads = nll_gradient(model, x)
        np.testing.assert_allclose(grads[-1], x[0] ** 2 - 1.0, atol=1e-12)

    @pytest.mark.parametrize("spec", [SMALL_NICE, SMALL_GLOW], ids=["nice", "glow"])
    def test_matches_finite_differences(self, spec):
        model = randomize(build_model(6, spec, seed=21), seed=22, scale=0.2)
        batch = np.random.default_rng(7).normal(size=(4, 6))
        analytic = nll_gradient(model, batch)
        numeric = finite_difference_grads(model, batch)
        assert_grads_close(analytic, numeric)

    def test_duplicated_batch_leaves_gradient_unchanged(self):
        model = randomize(build_model(6, SMALL_NICE, seed=23), seed=24)
        batch = np.random.default_rng(8).normal(size=(5, 6))
        doubled = np.vstack([batch, batch])
        for a, b in zip(nll_gradient(model, batch), nll_gradient(model, doubled)):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_walkthrough_glow_graph_has_one_node_per_layer(self):
        """The likelihood is one node over the model's kernel chain, which
        runs the layer backwards itself (47 nodes when each layer, log-det
        update, level split and likelihood op was a node; 227 as per-op
        graph). The input is a plain array, so backward's walk visits that
        node alone."""
        model = build_model(64, GlowSpec(levels=2, depth=3, hidden=(64, 64)), seed=0)
        loss = training.nll_tensor(model, np.random.default_rng(9).normal(size=(64, 64)))
        nodes, visited, seen, stack = 0, 0, set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes += node._backward is not None
                # As in ``Tensor.backward``: a tensor that needs no gradient
                # ends the walk.
                visited += node.requires_grad
                stack.extend(node._parents)
        assert nodes <= 2
        assert visited <= 2

    def test_level_boundary_turns_negative_zero_gradients_positive(self, monkeypatch):
        """Entering a level, the gradient of the columns it factored out
        joins the input gradient of the level above as zeros plus each part,
        as the per-op graph's column merge did, so -0.0 arrives as +0.0."""
        model = build_model(8, SMALL_GLOW, seed=70)
        z, _, tape = model.kernel(np.random.default_rng(71).normal(size=(4, 8)), keep=True)
        received = []
        backward = AffineCoupling.backward

        def record(layer, cache, grad, logdet_grad, need_dx, *layer_done):
            received.append(grad.copy())
            return backward(layer, cache, grad, logdet_grad, need_dx, *layer_done)

        monkeypatch.setattr(AffineCoupling, "backward", record)
        model.backward(tape, np.full(z.shape, -0.0), np.zeros(4), False)
        # Couplings run backward from the last; level 0's last is next after
        # the depth couplings of level 1.
        assert np.signbit(received[0]).all()
        assert not np.signbit(received[SMALL_GLOW.depth][:, model.sizes[1] :]).any()


class TestTraining:
    def test_epochs_contract(self):
        w = np.random.default_rng(9).normal(size=(64, 4))
        with pytest.raises(ValueError):
            FlowTrainConfig(epochs=0)
        _, report = train_flow(w, SMALL_NICE, FlowTrainConfig(epochs=1, batch_size=32, seed=1))
        assert len(report.epoch_nll) == 1
        assert report.steps == 2

    def test_deterministic(self):
        w = np.random.default_rng(10).normal(size=(96, 6)) * 2 + 1
        cfg = FlowTrainConfig(epochs=2, batch_size=32, seed=5)
        model_a, report_a = train_flow(w, SMALL_NICE, cfg)
        model_b, report_b = train_flow(w, SMALL_NICE, cfg)
        assert report_a == report_b
        for pa, pb in zip(model_a.parameters(), model_b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_glow_actnorm_initialized_and_training_helps(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(256, 8)) * [8, 8, 1, 1, 1, 1, 1, 1] + 5.0
        model, report = train_flow(
            w, SMALL_GLOW, FlowTrainConfig(epochs=3, batch_size=64, seed=3)
        )
        assert actnorms_initialized(model)
        assert report.epoch_nll[-1] < report.initial_nll

    def test_nice_training_reduces_nll(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(256, 6)) * 4.0
        model, report = train_flow(
            w,
            NiceSpec(couplings=2, hidden=(16,)),
            FlowTrainConfig(epochs=20, learning_rate=1e-2, batch_size=64, seed=13),
        )
        assert report.epoch_nll[-1] < 0.9 * report.initial_nll

    def test_batch_size_clipped_to_rows(self):
        w = np.random.default_rng(13).normal(size=(10, 4))
        _, report = train_flow(w, SMALL_NICE, FlowTrainConfig(epochs=2, batch_size=256, seed=0))
        assert report.steps == 2

    def test_divergence_raises_training_error(self):
        """An absurd learning rate on tiny data drives the scale layer up
        until exp overflows; the failing step index is reported."""
        rng = np.random.default_rng(14)
        w = rng.normal(size=(64, 4)) * 0.01
        with np.errstate(over="ignore"), pytest.raises(TrainingError, match="step"):
            train_flow(
                w,
                NiceSpec(couplings=2, hidden=(4,)),
                FlowTrainConfig(epochs=10, learning_rate=500.0, batch_size=64, seed=1),
            )

    def test_apply_flow_matches_forward(self):
        model = randomize(build_model(6, SMALL_NICE, seed=30), seed=31)
        w = np.random.default_rng(15).normal(size=(12, 6))
        np.testing.assert_array_equal(apply_flow(model, w), flow_forward(model, w)[0])


def numpy_actnorm_init(model, batch: np.ndarray) -> None:
    """Reference data-dependent init written with plain numpy layer maps,
    independent of the layers' kernels."""
    active = batch
    for li, steps in enumerate(model.levels):
        for step in steps:
            step.actnorm.data_init(active)
            an, lu, cp = step.actnorm, step.linear, step.coupling
            active = (active + an.shift.data) * np.exp(an.log_scale.data)
            lower = np.eye(lu.dim)
            lower[np.tril_indices(lu.dim, -1)] = lu.lower.data
            upper = np.diag(np.exp(lu.log_diag.data) * lu.signs)
            upper[np.triu_indices(lu.dim, 1)] = lu.upper.data
            active = active @ (np.eye(lu.dim)[:, lu.permutation] @ (lower @ upper))
            m = len(cp.moved_idx)
            raw = active[:, cp.cond_idx]
            for i, (w, b) in enumerate(zip(cp.net.weights, cp.net.biases)):
                raw = raw @ w.data + b.data
                if i < len(cp.net.weights) - 1:
                    raw = np.maximum(raw, 0.0)
            moved = active[:, cp.moved_idx] * np.exp(np.clip(raw[:, m:], -CLAMP, CLAMP))
            active = active.copy()
            active[:, cp.moved_idx] = moved + raw[:, :m]
        if li < len(model.levels) - 1:
            active = active[:, : model.sizes[li + 1]]


class TestForwardWithoutGraph:
    @pytest.mark.parametrize("spec", [SMALL_NICE, SMALL_GLOW], ids=["nice", "glow"])
    def test_flow_forward_equals_graph_mode(self, spec):
        model = randomize(build_model(8, spec, seed=50), seed=51)
        x = np.random.default_rng(52).normal(size=(20, 8))
        z, logdet = flow_forward(model, x)
        z_graph, logdet_graph = model.forward_tensors(ad.constant(x))
        assert z_graph.requires_grad
        np.testing.assert_array_equal(z, z_graph.data)
        np.testing.assert_array_equal(logdet, logdet_graph.data)

    def test_chunked_forward_matches_one_chunk(self, monkeypatch):
        model = randomize(build_model(8, SMALL_GLOW, seed=53), seed=54)
        x = np.random.default_rng(55).normal(size=(23, 8))
        z, logdet = flow_forward(model, x)
        monkeypatch.setattr(training, "FORWARD_CHUNK_ROWS", 5)
        z_chunked, logdet_chunked = flow_forward(model, x)
        np.testing.assert_allclose(z_chunked, z, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(logdet_chunked, logdet, rtol=1e-12, atol=1e-12)

    def test_inverse_works_in_chunks(self, traced_peak):
        """Through a net 1000 wide, the inverse of 16,384 rows holds its
        output and one chunk's hidden activations, not the whole batch's
        (151.7 MB when it inverted the batch at once)."""
        model = randomize(build_model(16, NiceSpec(couplings=2, hidden=(1000,)), seed=18), seed=19)
        z = np.random.default_rng(20).normal(size=(16384, 16))
        with traced_peak() as traced:
            x = flow_inverse(model, z)
        assert traced.peak < 2 * training.FORWARD_CHUNK_ROWS * 1000 * 8
        np.testing.assert_allclose(flow_forward(model, x)[0], z, atol=1e-9)

    def test_actnorm_init_matches_numpy_reference(self):
        batch = np.random.default_rng(56).normal(size=(32, 8)) * 3.0 + 1.0
        model = randomize(build_model(8, SMALL_GLOW, seed=57), seed=58)
        reference = randomize(build_model(8, SMALL_GLOW, seed=57), seed=58)
        model.initialize_actnorms(batch)
        numpy_actnorm_init(reference, batch)
        assert actnorms_initialized(model)
        for pa, pb in zip(model.parameters(), reference.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)


# Chunk size for the ``out=`` tests: a few rows, so a handful of rows
# spans several chunks.
SMALL_CHUNK = 4
OUT_MODELS = {
    "nice": randomize(build_model(8, SMALL_NICE, seed=60), seed=61),
    "glow": randomize(build_model(8, SMALL_GLOW, seed=62), seed=63),
}


class TestApplyFlowOut:
    """``apply_flow(model, rows, out=...)`` writes each chunk's output into
    ``out`` as soon as the chunk is mapped."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(sorted(OUT_MODELS)),
        st.integers(0, 3 * SMALL_CHUNK + 2),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_out_has_the_bits_of_the_pure_call(self, arch, n, in_place, seed):
        model = OUT_MODELS[arch]
        rows = np.random.default_rng(seed).normal(size=(n, 8)) * 2.0
        before = rows.copy()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(training, "FORWARD_CHUNK_ROWS", SMALL_CHUNK)
            pure = apply_flow(model, rows)
            assert pure.tobytes() == flow_forward(model, rows)[0].tobytes()
            assert rows.tobytes() == before.tobytes()
            out = rows if in_place else np.full_like(rows, np.nan)
            assert apply_flow(model, rows, out=out) is out
        assert out.tobytes() == pure.tobytes()
        if not in_place:
            assert rows.tobytes() == before.tobytes()

    @pytest.mark.parametrize(
        "out",
        [np.zeros((5, 8)), np.zeros((7, 8)), np.zeros((6, 7)), np.zeros(48),
         np.zeros((6, 8), dtype=np.float32)],
        ids=["fewer-rows", "more-rows", "narrower", "flat", "float32"],
    )
    def test_wrong_out_raises_before_anything_is_written(self, out):
        rows = np.random.default_rng(64).normal(size=(6, 8))
        with pytest.raises(ShapeError, match="^out is "):
            apply_flow(OUT_MODELS["glow"], rows, out=out)
        assert not out.any()

    def test_non_finite_rows_raise_before_anything_is_written(self, monkeypatch):
        monkeypatch.setattr(training, "FORWARD_CHUNK_ROWS", SMALL_CHUNK)
        rows = np.random.default_rng(65).normal(size=(3 * SMALL_CHUNK, 8))
        rows[-1, 3] = np.inf
        before = rows.tobytes()
        with pytest.raises(ValueError, match="NaN or Inf"):
            apply_flow(OUT_MODELS["nice"], rows, out=rows)
        assert rows.tobytes() == before

    def test_numeric_error_leaves_the_earlier_chunks_written(self, monkeypatch):
        """The second coupling's bias overflows the second chunk's 1e307s."""
        model = build_model(4, NiceSpec(couplings=2, hidden=(4,)), seed=0)
        model.levels[0][1][0].net.biases[-1].data[...] = 1.79e308
        monkeypatch.setattr(training, "FORWARD_CHUNK_ROWS", 2)
        rows = np.ones((6, 4))
        rows[2:4, ::2] = 1e307
        out = np.full(rows.shape, -1.0)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="step 0.1"):
            apply_flow(model, rows, out=out)
        assert out[:2].tobytes() == apply_flow(model, rows[:2]).tobytes()
        assert (out[2:] == -1.0).all()

    @pytest.mark.parametrize("spec", [NiceSpec(couplings=2, hidden=(64,)),
                                      GlowSpec(levels=2, depth=2, hidden=(64,))],
                             ids=["nice", "glow"])
    @pytest.mark.parametrize("chunks", [1, 3, 40])
    def test_in_place_peak_is_one_chunk_whatever_the_rows(self, spec, chunks, traced_peak):
        """Mapping rows in place holds one chunk's activations (1,024 rows
        through nets 64 wide: 0.5 MB per array, 2.3 arrays at the peak),
        not the rows: joining every chunk's output and copying it back held
        21 arrays' worth for 40 chunks of 16 columns."""
        model = randomize(build_model(16, spec, seed=21), seed=22)
        rows = np.random.default_rng(23).normal(size=(chunks * training.FORWARD_CHUNK_ROWS + 2, 16))
        with traced_peak() as traced:
            apply_flow(model, rows, out=rows)
        assert traced.peak < 3 * training.FORWARD_CHUNK_ROWS * 64 * 8


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("flw1")


def flow_bytes(model, directory: Path) -> bytes:
    path = directory / "saved.flw"
    save_flow(model, path)
    return path.read_bytes()


def load_bytes(blob: bytes, directory: Path):
    path = directory / "blob.flw"
    path.write_bytes(blob)
    return load_flow(path)


def reloaded(model, directory: Path):
    path = directory / "saved.flw"
    save_flow(model, path)
    return load_flow(path)


class TestSerialization:
    @pytest.mark.parametrize("spec", [SMALL_NICE, SMALL_GLOW], ids=["nice", "glow"])
    def test_round_trip(self, tmp_path, spec):
        model = randomize(build_model(8, spec, seed=41), seed=42)
        if isinstance(model, GlowModel):
            model.initialize_actnorms(np.random.default_rng(16).normal(size=(32, 8)))
        path = tmp_path / "model.flw"
        save_flow(model, path)
        loaded = load_flow(path)
        assert type(loaded) is type(model)
        x = np.random.default_rng(17).normal(size=(9, 8))
        za, la = flow_forward(model, x)
        zb, lb = flow_forward(loaded, x)
        np.testing.assert_array_equal(za, zb)
        np.testing.assert_array_equal(la, lb)
        assert flow_bytes(loaded, tmp_path) == flow_bytes(model, tmp_path)

    def test_bad_magic(self, scratch):
        with pytest.raises(CorpusFormatError, match="magic"):
            load_bytes(b"WRNG" + bytes(32), scratch)

    def test_truncated(self, scratch):
        model = build_model(6, SMALL_NICE, seed=0)
        blob = flow_bytes(model, scratch)
        with pytest.raises(CorpusFormatError, match="truncated"):
            load_bytes(blob[:-10], scratch)

    def test_trailing_bytes(self, scratch):
        model = build_model(6, SMALL_NICE, seed=0)
        with pytest.raises(CorpusFormatError, match="trailing"):
            load_bytes(flow_bytes(model, scratch) + b"\0", scratch)


# FLW1 offset of step 0's permutation (u32 each) in a glow file: 13-byte
# header, then levels, depth, n_hidden and the hidden widths (u32 each). The
# step's signs (i8 each) and actnorm flag (u8) follow the permutation.
GLOW_DIM = 8
GLOW_STEP0 = 13 + 12 + 4 * len(SMALL_GLOW.hidden)


def patched_glow(directory: Path, offset: int, raw: bytes) -> bytes:
    blob = bytearray(flow_bytes(build_model(GLOW_DIM, SMALL_GLOW, seed=3), directory))
    blob[offset : offset + len(raw)] = raw
    return bytes(blob)


class TestFormatValidation:
    def test_permutation_entry_out_of_range(self, scratch):
        perm = list(range(GLOW_DIM))
        perm[3] = GLOW_DIM
        blob = patched_glow(scratch, GLOW_STEP0, struct.pack(f"<{GLOW_DIM}I", *perm))
        with pytest.raises(CorpusFormatError, match="permutation"):
            load_bytes(blob, scratch)

    def test_duplicate_permutation(self, scratch):
        blob = patched_glow(scratch, GLOW_STEP0, bytes(4 * GLOW_DIM))
        with pytest.raises(CorpusFormatError, match="permutation"):
            load_bytes(blob, scratch)

    def test_zero_sign(self, scratch):
        blob = patched_glow(scratch, GLOW_STEP0 + 4 * GLOW_DIM + 2, b"\0")
        with pytest.raises(CorpusFormatError, match="sign"):
            load_bytes(blob, scratch)

    def test_actnorm_flag_not_boolean(self, scratch):
        blob = patched_glow(scratch, GLOW_STEP0 + 5 * GLOW_DIM, b"\2")
        with pytest.raises(CorpusFormatError, match="actnorm flag"):
            load_bytes(blob, scratch)

    def test_negative_signs_and_flags_load(self, scratch):
        model = build_model(GLOW_DIM, SMALL_GLOW, seed=3)
        step = model.levels[0][1]
        step.linear.signs = np.array([-1.0, 1.0] * (GLOW_DIM // 2))
        step.actnorm.initialized = True
        loaded = reloaded(model, scratch)
        np.testing.assert_array_equal(loaded.levels[0][1].linear.signs, step.linear.signs)
        assert loaded.levels[0][1].actnorm.initialized
        assert not loaded.levels[0][0].actnorm.initialized
        x = np.random.default_rng(4).normal(size=(5, GLOW_DIM))
        np.testing.assert_array_equal(flow_forward(loaded, x)[0], flow_forward(model, x)[0])

    @pytest.mark.parametrize(
        "arch",
        [
            # NICE, 4 couplings of 5x1000 hidden: 16.3M parameters announced
            struct.pack("<4sIBI", b"FLW1", 1, 0, 64)
            + struct.pack("<II5I", 4, 5, *(1000,) * 5),
            # glow 2x3 of 5x1000 hidden: 24.5M parameters announced
            struct.pack("<4sIBI", b"FLW1", 1, 1, 64)
            + struct.pack("<III5I", 2, 3, 5, *(1000,) * 5),
            # glow with the largest u32 depth over tiny nets
            struct.pack("<4sIBI", b"FLW1", 1, 1, 4) + struct.pack("<III1I", 1, 2**32 - 1, 1, 1),
            # glow with the largest u32 level count
            struct.pack("<4sIBI", b"FLW1", 1, 1, 2**32 - 1)
            + struct.pack("<III1I", 2**32 - 1, 1, 1, 1),
            # NICE announcing the largest u32 number of hidden widths
            struct.pack("<4sIBI", b"FLW1", 1, 0, 64) + struct.pack("<II", 4, 2**32 - 1),
        ],
        ids=["nice-paper-width", "glow-paper-width", "huge-depth", "huge-levels", "huge-n-hidden"],
    )
    def test_wide_header_with_short_payload_rejected_before_allocating(self, scratch, arch, traced_peak):
        path = scratch / "wide.flw"
        path.write_bytes(arch + bytes(64))
        with traced_peak() as traced:
            with pytest.raises(CorpusFormatError):
                load_flow(path)
        assert traced.peak < 1_000_000

    @pytest.mark.parametrize(
        "arch",
        [
            struct.pack("<4sIBI", b"FLW1", 1, 0, 8) + struct.pack("<II", 0, 0),
            struct.pack("<4sIBI", b"FLW1", 1, 0, 8) + struct.pack("<II1I", 1, 1, 0),
            struct.pack("<4sIBI", b"FLW1", 1, 0, 1) + struct.pack("<II", 1, 0),
            struct.pack("<4sIBI", b"FLW1", 1, 1, 8) + struct.pack("<III", 0, 1, 0),
            struct.pack("<4sIBI", b"FLW1", 1, 1, 8) + struct.pack("<III", 1, 0, 0),
            struct.pack("<4sIBI", b"FLW1", 1, 1, 3) + struct.pack("<III", 2, 1, 0),
        ],
        ids=["no-couplings", "zero-width", "nice-dim-1", "no-levels", "no-depth", "too-many-levels"],
    )
    def test_invalid_architecture(self, scratch, arch):
        with pytest.raises(CorpusFormatError, match="invalid architecture"):
            load_bytes(arch + bytes(64), scratch)


@st.composite
def small_flows(draw):
    """A small NICE or glow model with random parameters, signs and flags."""
    hidden = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    if draw(st.booleans()):
        spec = NiceSpec(couplings=draw(st.integers(1, 3)), hidden=hidden)
        dim = draw(st.integers(2, 7))
    else:
        levels = draw(st.integers(1, 2))
        spec = GlowSpec(levels=levels, depth=draw(st.integers(1, 3)), hidden=hidden)
        dim = draw(st.integers(2 * levels, 7))
    model = build_model(dim, spec, seed=draw(st.integers(0, 2**32)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    for p in model.parameters():
        p.data[...] = rng.normal(size=p.data.shape)
    if isinstance(model, GlowModel):
        for steps in model.levels:
            for step in steps:
                step.linear.signs = rng.choice([-1.0, 1.0], size=step.linear.dim)
                step.actnorm.initialized = bool(rng.integers(2))
    return model


class TestFormatProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_flows())
    def test_round_trip_is_byte_exact(self, scratch, model):
        blob = flow_bytes(model, scratch)
        loaded = load_bytes(blob, scratch)
        assert flow_bytes(loaded, scratch) == blob
        assert model_checksum(loaded) == model_checksum(model)

    @settings(max_examples=15, deadline=None)
    @given(small_flows())
    def test_every_truncation_and_trailing_byte_rejected(self, scratch, model):
        """The file is written once, then lengthened by one zero byte and
        cut back to every shorter length in turn."""
        path = scratch / "cut.flw"
        save_flow(model, path)
        size = path.stat().st_size
        os.truncate(path, size + 1)
        with pytest.raises(CorpusFormatError, match="trailing"):
            load_flow(path)
        for cut in reversed(range(size)):
            os.truncate(path, cut)
            with pytest.raises(CorpusFormatError):
                load_flow(path)

    @settings(max_examples=150, deadline=None)
    @given(small_flows(), st.lists(st.tuples(st.integers(0), st.integers(1, 255)), min_size=1, max_size=3))
    def test_byte_flips_load_or_raise_typed_errors(self, scratch, model, flips):
        blob = bytearray(flow_bytes(model, scratch))
        for position, mask in flips:
            # Half of the flips land in the first 64 bytes: header and widths.
            span = min(64, len(blob)) if position % 2 else len(blob)
            blob[position % span] ^= mask
        try:
            loaded = load_bytes(bytes(blob), scratch)
        except IsoembedError:
            return
        assert flow_bytes(loaded, scratch) == bytes(blob)

    @settings(max_examples=20, deadline=None)
    @given(small_flows())
    def test_loading_draws_nothing(self, scratch, model):
        blob = flow_bytes(model, scratch)
        no_draws = AssertionError("a load drew from the seeded stream")
        with mock.patch.object(PinnedRng, "gaussians", side_effect=no_draws), mock.patch.object(
            PinnedRng, "u64", side_effect=no_draws
        ):
            loaded = load_bytes(blob, scratch)
        assert flow_bytes(loaded, scratch) == blob


class TestUntrainedNet:
    """Without a tape, a net whose output layer is zero with a +0.0 bias,
    as every net is built, outputs +0.0 without running its hidden layers."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(0, 9),
        hidden=st.lists(st.integers(1, 12), max_size=3),
        scale=st.sampled_from([1e-300, 1.0, 1e100]),
        zeros=st.sampled_from(["built", "negative weights", "negative weights and bias"]),
    )
    def test_equals_the_full_computation(self, seed, rows, hidden, scale, zeros):
        """The full computation is the forward that keeps a tape; a bias
        with a -0.0 in it makes the net run its layers."""
        net = CouplingNet.build(3, 4, tuple(hidden), PinnedRng(seed))
        if zeros != "built":
            net.weights[-1].data[...] = -0.0
        if zeros == "negative weights and bias":
            net.biases[-1].data[::2] = -0.0
        x = np.random.default_rng(seed).normal(size=(rows, 3)) * scale
        full = net.kernel(x, keep=True)[0]
        assert net.kernel(x)[0].tobytes() == full.tobytes()

    def test_runs_no_hidden_layer(self, traced_peak):
        net = CouplingNet.build(32, 64, (1000, 1000), PinnedRng(21))
        x = np.random.default_rng(22).normal(size=(256, 32))
        with traced_peak() as traced:
            out = net.kernel(x)[0]
        assert not out.any()
        assert traced.peak < 256 * 1000 * 8


def masked_forward(net, x, edit=None):
    """A taped forward that keeps each hidden layer's rectifier mask, taken
    from the pre-activation before it is rectified: ``(out, (inputs, masks,
    work))``. Like the net's own, it writes into ``net.work`` if one is
    lent. ``edit``, if given, is applied to each hidden pre-activation
    first."""
    work = net.work
    rows = x.shape[0]
    inputs, masks = [], []
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(h)
        lent = work is not None and i != last
        h = np.matmul(h, w.data, out=work.hidden[i][:rows] if lent else None)
        h += b.data
        if i != last:
            if edit is not None:
                edit(h)
            masks.append(h > 0)
            rectify(h)
    return h, (inputs, masks, work)


def chain_backward(net, cache, grad, logdet_grad, need_dx):
    """The coupling net's backward layer by layer in full, over a tape that
    kept its masks: every hidden product runs, whatever the output layer
    holds."""
    inputs, masks, work = cache
    for i in reversed(range(len(net.weights))):
        if i < len(masks):
            grad *= masks[i]
        w, b = net.weights[i], net.biases[i]
        if b.grad is None:
            b._accumulate(grad.sum(axis=0))
        else:
            grad.sum(axis=0, out=b.grad)
        if w.grad is None:
            w._accumulate(inputs[i].T @ grad)
        else:
            np.matmul(inputs[i].T, grad, out=w.grad)
        if i == 0:
            return grad @ w.data.T if need_dx else None
        grad = np.matmul(grad, w.data.T, out=None if work is None else inputs[i])


def run_net_backward(net, x, grad, need_dx, buffered, oracle=False, lent=False, edit=None, layer_done=None):
    """A taped forward of ``x``, then the backward: the net's own, or with
    ``oracle`` ``chain_backward`` over the tape of ``masked_forward``.
    Returns the bytes of the output, of the input gradient (None without
    ``need_dx``) and of every parameter's gradient. ``buffered`` points each
    ``.grad`` at a view of one NaN-filled buffer, as an optimizer does;
    otherwise ``.grad`` starts as None. ``lent`` runs both passes in a
    ``NetWorkspace`` for the rows of ``x``. ``edit`` goes to
    ``masked_forward``; a test that edits the net's own pre-activations
    patches ``coupling.rectify``. ``layer_done`` goes to the net's own
    backward."""
    params = net.parameters()
    buffer = np.full(sum(p.data.size for p in params), np.nan)
    offset = 0
    for p in params:
        p.grad = buffer[offset : offset + p.data.size].reshape(p.data.shape) if buffered else None
        offset += p.data.size
    widest = max((w.data.shape[1] for w in net.weights[:-1]), default=0)
    net.work = NetWorkspace(net, x.shape[0], np.empty(x.shape[0] * widest, dtype=bool)) if lent else None
    if oracle:
        out, cache = masked_forward(net, x, edit)
        dx = chain_backward(net, cache, grad.copy(), None, need_dx)
    else:
        out, _, cache = net.kernel(x, keep=True)
        dx = net.backward(cache, grad.copy(), None, need_dx, layer_done)
    net.work = None
    return out.tobytes(), None if dx is None else dx.tobytes(), [p.grad.tobytes() for p in params]


class TestUntrainedNetBackward:
    """A net whose output weights are all zero (-0.0 included) writes its
    output layer's gradients and gives +0.0 to every hidden parameter and to
    the input without running its hidden layers: the full chain's bits."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(0, 9),
        hidden=st.lists(st.integers(1, 12), max_size=3),
        scale=st.sampled_from([1e-300, 1.0, 1e100]),
        output=st.sampled_from(["built", "negative zeros", "one nonzero"]),
        buffered=st.booleans(),
        need_dx=st.booleans(),
    )
    def test_equals_the_full_chain(self, seed, rows, hidden, scale, output, buffered, need_dx):
        net = CouplingNet.build(3, 4, tuple(hidden), PinnedRng(seed))
        w_out = net.weights[-1].data
        if output == "negative zeros":
            w_out[...] = -0.0
        elif output == "one nonzero":
            w_out[seed % w_out.shape[0], seed % 4] = 0.5
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, 3)) * scale
        grad = rng.normal(size=(rows, 4))
        got = run_net_backward(net, x, grad, need_dx, buffered)
        assert got == run_net_backward(net, x, grad, need_dx, buffered, oracle=True)

    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["built", "negative"])
    @pytest.mark.parametrize("buffered", [False, True], ids=["none", "buffer"])
    def test_reads_no_hidden_weight(self, buffered, zero):
        """Hidden weights overwritten with NaN after the taped forward: the
        hidden and input gradients stay +0.0 (the full chain gives NaN)."""
        net = CouplingNet.build(3, 4, (5, 6), PinnedRng(8))
        net.weights[-1].data[...] = zero
        params = net.parameters()
        x = np.random.default_rng(9).normal(size=(7, 3))
        grad = np.random.default_rng(10).normal(size=(7, 4))
        for p in params:
            p.grad = np.full(p.data.shape, np.nan) if buffered else None
        cache = net.kernel(x, keep=True)[2]
        for w in net.weights[:-1]:
            w.data[...] = np.nan
        dx = net.backward(cache, grad, None, True)
        assert dx.tobytes() == np.zeros((7, 3)).tobytes()
        for p in params[:-2]:
            assert p.grad.tobytes() == np.zeros(p.data.shape).tobytes()
        assert np.isfinite(params[-2].grad).all() and params[-2].grad.any()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("buffered", [False, True], ids=["none", "buffer"])
    def test_a_non_finite_gradient_takes_the_full_chain(self, bad, buffered):
        """Its bits, NaN included, are the full chain's."""
        net = CouplingNet.build(3, 4, (5, 6), PinnedRng(11))
        x = np.random.default_rng(12).normal(size=(6, 3))
        grad = np.random.default_rng(13).normal(size=(6, 4))
        grad[2, 1] = bad
        with np.errstate(invalid="ignore"):
            got = run_net_backward(net, x, grad, True, buffered)
            assert got == run_net_backward(net, x, grad, True, buffered, oracle=True)
        assert np.isnan(np.frombuffer(got[1])).any()


class TestRectifier:
    """The backward reads each mask back from the rectified activation as
    ``h > 0``."""

    @pytest.mark.parametrize("value", [-0.0, -1.5, -np.inf, np.nan, 0.0])
    def test_non_positive_and_nan_become_plus_zero(self, value):
        """At every position of arrays of many lengths, so that numpy's
        vector loop and its elementwise remainder are both covered."""
        for size in range(1, 40):
            for position in range(size):
                h = np.linspace(-2.0, 3.0, size)
                h[position] = value
                rectify(h)
                mask = h > 0
                assert not mask[position]
                assert h[position] == 0.0 and not np.signbit(h[position])

    def test_positives_and_inf_are_kept(self):
        h = np.array([np.inf, 1e-300, 2.5, -3.0, np.inf, 7.0, 5e-324])
        expected = h.copy()
        expected[3] = 0.0
        rectify(h)
        mask = h > 0
        assert h.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(mask, [True, True, True, False, True, True, True])


class TestMasksReadBack:
    """The net's backward reads each rectifier mask back from the rectified
    activation; ``masked_forward`` and ``chain_backward`` keep the masks
    taken from the pre-activations, as the tape once did."""

    @pytest.mark.parametrize("value", [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324])
    def test_equals_the_kept_masks(self, value, monkeypatch):
        """Each hidden pre-activation gets ``value`` in one column of every
        row, at every position of layers 1 to 40 wide, just before it is
        rectified. Output, input gradient and parameter gradients keep
        their bits in and out of a workspace, with gradients accumulated
        and written into a buffer, with and without the input gradient."""
        position = 0

        def inject(h):
            h[:, position] = value

        monkeypatch.setattr(coupling, "rectify", lambda h: (inject(h), rectify(h)))
        rng = np.random.default_rng(30)
        for size in range(1, 41):
            net = CouplingNet.build(3, 2, (size, size), PinnedRng(size))
            net.weights[-1].data[...] = rng.normal(size=(size, 2))
            x = rng.normal(size=(3, 3))
            grad = rng.normal(size=(3, 2))
            for position in range(size):
                for lent, buffered, need_dx in itertools.product((False, True), repeat=3):
                    with np.errstate(all="ignore"):
                        got = run_net_backward(net, x, grad, need_dx, buffered, lent=lent)
                        assert got == run_net_backward(
                            net, x, grad, need_dx, buffered, oracle=True, lent=lent, edit=inject
                        )

    def test_workspace_holds_one_mask_buffer(self):
        """The widest hidden layer's rows of bools, beside the activations."""
        net = CouplingNet.build(3, 4, (5, 9, 7), PinnedRng(31))
        work = NetWorkspace(net, 6, np.empty(6 * 9, dtype=bool))
        assert [h.shape for h in work.hidden] == [(6, 5), (6, 9), (6, 7)]
        assert [h.dtype for h in work.hidden] == [np.float64] * 3
        assert work.mask.dtype == bool and work.mask.shape == (6 * 9,)
        assert sorted(vars(work)) == ["hidden", "mask"]

    @pytest.mark.parametrize("spec", [SMALL_NICE, GlowSpec(levels=2, depth=2, hidden=(5, 9, 7))],
                             ids=["nice", "glow"])
    def test_step_workspaces_share_one_mask_buffer(self, spec):
        """Every net of a fit reads its rectifier masks into one buffer of
        the rows times the widest hidden layer, and keeps activation
        buffers of its own; the workspaces go when the block ends."""
        model = build_model(8, spec, seed=30)
        nets = [layer.net for steps in model.levels for step in steps for layer in step
                if isinstance(layer, coupling.Coupling)]
        with training.step_workspaces(model, 6):
            works = [net.work for net in nets]
            assert len(works) >= 2 and all(work.mask is works[0].mask for work in works)
            assert works[0].mask.dtype == bool and works[0].mask.shape == (6 * max(spec.hidden),)
            hidden = [h for work in works for h in work.hidden]
            assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(hidden, 2))
        assert all(net.work is None for net in nets)


class TestNetLayerHook:
    """``layer_done`` follows each net parameter's last read, with its
    gradient final."""

    @pytest.mark.parametrize("output", ["trained", "zero"])
    @pytest.mark.parametrize("buffered", [False, True], ids=["none", "buffer"])
    def test_fires_after_each_layers_last_read(self, output, buffered):
        """At each call the parameter just finished has its gradient
        recorded and its values overwritten with NaN, as an update would
        move them: the backward still gives the bits of one without the
        hook, and the recorded gradients are the final ones."""
        net = CouplingNet.build(3, 4, (5, 6, 7), PinnedRng(32))
        if output == "trained":
            net.weights[-1].data[...] = np.random.default_rng(33).normal(size=(7, 4))
        x = np.random.default_rng(34).normal(size=(8, 3))
        grad = np.random.default_rng(35).normal(size=(8, 4))
        expected = run_net_backward(net, x, grad, True, buffered, lent=True)
        recorded = []

        def layer_done():
            p = net.parameters()[-1 - len(recorded)]
            recorded.append(p.grad.tobytes())
            p.data[...] = np.nan

        got = run_net_backward(net, x, grad, True, buffered, lent=True, layer_done=layer_done)
        assert got == expected
        assert recorded[::-1] == got[2]


def layer_of(name: str, trained: bool):
    """(layer, input width): one of each layer type over 6 columns, its
    parameters as built or, when ``trained``, all drawn at random."""
    rng = PinnedRng(40)
    layer, width = {
        "scale": lambda: (Scale(ad.parameter(np.zeros(6))), 6),
        "actnorm": lambda: (ActNorm(6), 6),
        "lulinear": lambda: (LuLinear(6, rng), 6),
        "affine_coupling": lambda: (AffineCoupling.build(6, 1, (5, 4), rng), 6),
        "coupling_net": lambda: (CouplingNet.build(3, 6, (5, 4), rng), 3),
    }[name]()
    draws = np.random.default_rng(41)
    for p in layer.parameters() if trained else ():
        p.data[...] = draws.normal(0.0, 0.5, p.data.shape)
    return layer, width


class TestEveryGradientWrittenOnce:
    """A layer's own backward writes every parameter's gradient exactly
    once: into NaN-filled arrays it leaves the bytes it allocates itself
    when each ``.grad`` starts as None."""

    @staticmethod
    def backward(layer, width, need_dx, start):
        for p in layer.parameters():
            p.grad = None if start is None else np.full(p.data.shape, start)
        draws = np.random.default_rng(42)
        _, _, cache = layer.kernel(draws.normal(size=(7, width)), True)
        dx = layer.backward(cache, draws.normal(size=(7, 6)), draws.normal(size=7), need_dx)
        return [p.grad.tobytes() for p in layer.parameters()], None if dx is None else dx.tobytes()

    @pytest.mark.parametrize("need_dx", [False, True])
    @pytest.mark.parametrize("trained", [False, True], ids=["built", "trained"])
    @pytest.mark.parametrize(
        "name", ["scale", "actnorm", "lulinear", "affine_coupling", "coupling_net"]
    )
    def test_nan_arrays_end_as_allocated_ones(self, name, trained, need_dx):
        layer, width = layer_of(name, trained)
        grads, dx = self.backward(layer, width, need_dx, None)
        assert all(np.isfinite(p.grad).all() for p in layer.parameters())
        assert self.backward(layer, width, need_dx, np.nan) == (grads, dx)
        assert (dx is None) == (not need_dx)


# The FLW1 bytes of build_model(...) recorded from the seeded init that drew
# each Gaussian array in one pass and copied every layer into its own
# array. The wide cases span several Gaussian blocks per weight matrix.
BUILT_SHA256 = {
    "nice": (6, NiceSpec(couplings=3, hidden=(8, 8)), 11,
             "396c46e62c8792ca7be711dec77d01064f6d56c3c4343f52af5601be9b6290c3"),
    "glow": (12, GlowSpec(levels=2, depth=2, hidden=(16, 8)), 12,
             "45404c289fefdbdac475f4124c186796fe101e01f981971960c2cb091ad6c91c"),
    "nice_wide": (64, NiceSpec(couplings=2, hidden=(300, 200)), 3,
                  "b929d02d656526db0f07649d3778943ce19d5c561cdfcefb0b33def41ea59c70"),
    "glow_wide": (64, GlowSpec(levels=2, depth=2, hidden=(256, 256)), 4,
                  "79e3bb893482388592a31e19183a4c7b5998741a7d4cf9b93ef6c4150b465748"),
}


def assert_tiles_one_slab(params) -> np.ndarray:
    slab = params[0].data.base
    assert slab is not None and slab.ndim == 1
    offset = 0
    for p in params:
        assert p.data.base is slab
        assert np.shares_memory(p.data, slab[offset : offset + p.data.size])
        offset += p.data.size
    assert offset == slab.size
    return slab


class ShiftedSlab(ParameterSlab):
    """A zero slab of ``size`` elements that hands out its ``at``-th view
    ``by`` elements from where the one before it ends."""

    def __init__(self, size: int, at: int, by: int):
        super().__init__(np.zeros(size))
        self.at, self.by, self.count = at, by, 0

    def take(self, *shape):
        if self.count == self.at:
            self.pos += self.by
        self.count += 1
        return super().take(*shape)


class TestSeededBuild:
    @pytest.mark.parametrize("name", sorted(BUILT_SHA256))
    def test_bytes_match_the_recorded_init(self, scratch, name):
        dim, spec, seed, digest = BUILT_SHA256[name]
        assert hashlib.sha256(flow_bytes(build_model(dim, spec, seed), scratch)).hexdigest() == digest

    @pytest.mark.parametrize("spec", [SMALL_NICE, SMALL_GLOW], ids=["nice", "glow"])
    def test_built_and_loaded_models_are_trained_in_place(self, scratch, spec):
        built = build_model(8, spec, seed=60)
        for model in (built, reloaded(built, scratch)):
            assert assert_tiles_one_slab(model.parameters()) is model.slab
            optimizer = training.Adam(model, 1e-3)
            assert optimizer.data is model.slab
            assert all(p.data.base is model.slab for p in model.parameters())

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_assembly_uses_up_the_slab_exactly(self, extra):
        """A slab one element short or one element long is rejected."""
        nice_size = NiceModel.parameter_count(8, SMALL_NICE) + extra
        with pytest.raises(ValueError):
            NiceModel.assemble(8, SMALL_NICE, ParameterSlab(np.zeros(nice_size)))
        steps = [(np.arange(size), np.ones(size), False) for size in (8, 8, 4, 4)]
        glow_size = GlowModel.parameter_count(8, SMALL_GLOW) + extra
        with pytest.raises(ValueError):
            GlowModel.assemble(8, SMALL_GLOW, iter(steps), ParameterSlab(np.zeros(glow_size)))

    @pytest.mark.parametrize("by", [1, -1], ids=["gap", "overlap"])
    @pytest.mark.parametrize("arch", ["nice", "glow"])
    def test_parameters_that_leave_the_slab_tiling_are_rejected(self, arch, by):
        """An assembly whose slab hands out one view one element late (a
        gap) or early (an overlap), on a slab sized so that it is used up,
        builds no model, whichever view it is."""
        def assemble(at, by):
            if arch == "nice":
                params = ShiftedSlab(NiceModel.parameter_count(8, SMALL_NICE) + by, at, by)
                return NiceModel.assemble(8, SMALL_NICE, params)
            steps = iter([(np.arange(size), np.ones(size), False) for size in (8, 8, 4, 4)])
            params = ShiftedSlab(GlowModel.parameter_count(8, SMALL_GLOW) + by, at, by)
            return GlowModel.assemble(8, SMALL_GLOW, steps, params)

        count = len(assemble(0, 0).parameters())
        for at in range(1, count):
            with pytest.raises(ValueError, match="slab's view"):
                assemble(at, by)

    def test_step_leaves_the_gradient_buffer_zero(self):
        """The backward updates each group as it closes, so ``step`` finds
        nothing left to update."""
        model = build_model(8, SMALL_GLOW, seed=62)
        optimizer = training.Adam(model, 1e-3)
        before = model.slab.copy()
        x = np.random.default_rng(63).normal(size=(16, 8))
        training.nll_tensor(model, x).backward()
        assert (model.slab != before).any()
        updated = model.slab.copy()
        optimizer.step()
        assert model.slab.tobytes() == updated.tobytes()
        assert all(p.grad.base is optimizer.grad for p in model.parameters())

    def test_actnorm_init_inside_the_first_graph_forward(self):
        """One forward that initializes each actnorm on the way gives the
        loss and gradients of a separate init pass followed by a forward."""
        x = np.random.default_rng(64).normal(size=(24, 8)) * 2.0 + 0.5
        fused = randomize(build_model(8, SMALL_GLOW, seed=65), seed=66)
        separate = randomize(build_model(8, SMALL_GLOW, seed=65), seed=66)
        loss = training.nll_tensor(fused, x, init_actnorms=True)
        separate.initialize_actnorms(x)
        reference = training.nll_tensor(separate, x)
        assert actnorms_initialized(fused)
        assert loss.data.tobytes() == reference.data.tobytes()
        loss.backward()
        reference.backward()
        for p, q in zip(fused.parameters(), separate.parameters()):
            assert p.data.tobytes() == q.data.tobytes()
            assert p.grad.tobytes() == q.grad.tobytes()
