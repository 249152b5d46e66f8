"""The slab-backed, blocked Adam against the per-parameter formula it
replaced, and the slab views it hands to parameters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoembed import autodiff as ad
from isoembed.flows import FlowTrainConfig, GlowSpec, NiceSpec, build_model, train_flow
from isoembed.flows import training
from isoembed.flows.training import ADAM_BETA_1, ADAM_BETA_2, ADAM_BLOCK, ADAM_EPS, Adam


class PerParameterAdam:
    """The update as it was written before the slabs: one set of
    temporaries per parameter array."""

    def __init__(self, params, learning_rate):
        self.params = params
        self.lr = learning_rate
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self):
        self.t += 1
        bias_1 = 1.0 - ADAM_BETA_1**self.t
        bias_2 = 1.0 - ADAM_BETA_2**self.t
        for i, p in enumerate(self.params):
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[i] = ADAM_BETA_1 * self.m[i] + (1 - ADAM_BETA_1) * grad
            self.v[i] = ADAM_BETA_2 * self.v[i] + (1 - ADAM_BETA_2) * grad**2
            m_hat = self.m[i] / bias_1
            v_hat = self.v[i] / bias_2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# Parameter shapes whose total size lies below, at, just above and at no
# multiple of the block.
LAYOUTS = {
    "below": [(3, 4), (5,), (7,)],
    "at": [(128, 128), (ADAM_BLOCK - 128 * 128,)],
    "above": [(ADAM_BLOCK,), (1,)],
    "ragged": [(100, 700), (333,), (2, 3, 5)],
}


def test_layouts_cover_the_block_boundaries():
    totals = {name: sum(int(np.prod(s)) for s in shapes) for name, shapes in LAYOUTS.items()}
    assert totals["below"] < ADAM_BLOCK
    assert totals["at"] == ADAM_BLOCK
    assert totals["above"] == ADAM_BLOCK + 1
    assert totals["ragged"] > 2 * ADAM_BLOCK and totals["ragged"] % ADAM_BLOCK


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    learning_rate=st.sampled_from([1e-4, 1e-2, 0.5]),
    steps=st.integers(1, 4),
    no_grad=st.integers(0, 10),
)
def test_blocked_step_is_bitwise_the_per_parameter_formula(
    layout, seed, learning_rate, steps, no_grad
):
    """Over several steps, with gradients spanning many magnitudes, signed
    zeros, and one parameter that never receives a gradient."""
    shapes = LAYOUTS[layout]
    silent = no_grad % len(shapes)
    rng = np.random.default_rng(seed)
    start = [rng.normal(size=s) * 3.0 for s in shapes]
    fast = [ad.parameter(a) for a in start]
    slow = [ad.parameter(a) for a in start]
    optimizer = Adam(fast, learning_rate)
    oracle = PerParameterAdam(slow, learning_rate)
    for _ in range(steps):
        optimizer.zero_grad()
        for i, (f, s) in enumerate(zip(fast, slow)):
            if i == silent:
                s.grad = None
                continue
            g = rng.normal(size=f.data.shape) * 10.0 ** rng.uniform(-8, 3, size=f.data.shape)
            g.ravel()[::7] = -0.0
            f.grad[...] = g
            s.grad = g.copy()
        optimizer.step()
        oracle.step()
        for f, s in zip(fast, slow):
            assert f.data.tobytes() == s.data.tobytes()
    assert optimizer.m.tobytes() == np.concatenate([m.ravel() for m in oracle.m]).tobytes()
    assert optimizer.v.tobytes() == np.concatenate([v.ravel() for v in oracle.v]).tobytes()


def assert_views_of_slabs(params, optimizer):
    offset = 0
    for p in params:
        size = p.data.size
        assert p.data.base is optimizer.data
        assert p.grad.base is optimizer.grad
        assert np.shares_memory(p.data, optimizer.data[offset : offset + size])
        assert np.shares_memory(p.grad, optimizer.grad[offset : offset + size])
        offset += size
    assert offset == optimizer.data.size


@pytest.mark.parametrize("spec", [NiceSpec(couplings=2, hidden=(8,)), GlowSpec(2, 2, (8,))])
def test_parameters_view_the_slabs_in_traversal_order(spec):
    model = build_model(6, spec, seed=3)
    before = [p.data.copy() for p in model.parameters()]
    optimizer = Adam(model.parameters(), 1e-3)
    assert_views_of_slabs(model.parameters(), optimizer)
    for p, value in zip(model.parameters(), before):
        np.testing.assert_array_equal(p.data, value)
        assert not p.grad.any()


def test_parameters_stay_slab_views_after_actnorm_init():
    batch = np.random.default_rng(0).normal(size=(32, 8)) * 4.0 + 1.0
    model = build_model(8, GlowSpec(2, 2, (8,)), seed=5)
    reference = build_model(8, GlowSpec(2, 2, (8,)), seed=5)
    optimizer = Adam(model.parameters(), 1e-3)
    model.initialize_actnorms(batch)
    reference.initialize_actnorms(batch)
    assert model.actnorms_initialized
    assert_views_of_slabs(model.parameters(), optimizer)
    for p, q in zip(model.parameters(), reference.parameters()):
        assert p.data.tobytes() == q.data.tobytes()
    offset = 0
    for p in model.parameters():
        np.testing.assert_array_equal(optimizer.data[offset : offset + p.data.size], p.data.ravel())
        offset += p.data.size


def test_backward_accumulates_into_the_gradient_slab():
    x = np.random.default_rng(1).normal(size=(16, 6))
    model = build_model(6, GlowSpec(2, 1, (8,)), seed=2)
    optimizer = Adam(model.parameters(), 1e-3)
    expected = training.nll_gradient(build_model(6, GlowSpec(2, 1, (8,)), seed=2), x)
    optimizer.zero_grad()
    training.nll_tensor(model, x).backward()
    got = [p.grad for p in model.parameters()]
    np.testing.assert_array_equal(np.concatenate([g.ravel() for g in got]), optimizer.grad)
    for g, e in zip(got, expected):
        assert g.tobytes() == e.tobytes()


def test_training_releases_the_gradient_views():
    x = np.random.default_rng(2).normal(size=(40, 6))
    model, _ = train_flow(x, GlowSpec(2, 1, (8,)), FlowTrainConfig(epochs=1, batch_size=16))
    params = model.parameters()
    assert all(p.grad is None for p in params)
    slab = params[0].data.base
    assert slab is not None and all(p.data.base is slab for p in params)
