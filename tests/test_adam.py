"""The group-wise Adam against the per-parameter formula it replaced, the
update groups it forms, and the views it hands to parameters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoembed import autodiff as ad
from isoembed.errors import TrainingError
from isoembed.flows import FlowTrainConfig, GlowSpec, NiceSpec, build_model, train_flow
from isoembed.flows import training
from isoembed.flows.coupling import ParameterSlab
from isoembed.flows.training import ADAM_BETA_1, ADAM_BETA_2, ADAM_BLOCK, ADAM_EPS, Adam
from isoembed.flows.glow import GlowModel, active_sizes
from isoembed.flows.nice import NiceModel


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

    def assert_matches(self, optimizer):
        assert optimizer.m.tobytes() == np.concatenate([m.ravel() for m in self.m]).tobytes()
        assert optimizer.v.tobytes() == np.concatenate([v.ravel() for v in self.v]).tobytes()


class SlabModel:
    """Stand-in for a flow model: layers of parameters with the given
    starting values, laid over one slab in order, as ``assemble`` lays a
    flow's. ``backward`` writes each layer's gradient in reverse layer order
    and calls ``layer_done`` after each, as a flow's backward does."""

    def __init__(self, layers):
        params = ParameterSlab(np.concatenate([a.ravel() for layer in layers for a in layer]))
        self._layers = [[params.take(*a.shape) for a in layer] for layer in layers]
        self.slab = params.used_up()

    def layer_parameters(self):
        return self._layers

    def parameters(self):
        return [p for layer in self._layers for p in layer]

    def layer_done(self):
        pass

    def backward(self, grads):
        """``grads`` per parameter in traversal order; None leaves one silent."""
        grads = iter(reversed(grads))
        for layer in reversed(self._layers):
            for p in reversed(layer):
                g = next(grads)
                if g is not None:
                    p.grad[...] = g
            self.layer_done()


def expected_groups(layer_sizes):
    """The layers of each update group, in backward order: a group closes
    once it holds ADAM_BLOCK elements, or at the first layer."""
    groups, current, held = [], [], 0
    for i in reversed(range(len(layer_sizes))):
        current.append(i)
        held += layer_sizes[i]
        if held >= ADAM_BLOCK or i == 0:
            groups.append(current)
            current, held = [], 0
    return groups


def layer_sizes(model):
    return [sum(p.data.size for p in params) for params in model.layer_parameters()]


# Layers of parameter shapes whose total size lies below, at, just above and
# at no multiple of the block, and that form one, two and three groups; the
# ragged layout has a layer larger than the block.
LAYOUTS = {
    "below": [[(3, 4), (5,)], [(7,)]],
    "at": [[(128, 128)], [(ADAM_BLOCK - 128 * 128,)]],
    "above": [[(ADAM_BLOCK,)], [(1,)]],
    "two": [[(1,)], [(ADAM_BLOCK,)]],
    "ragged": [[(9,)], [(100, 300)], [(40000,), (5,)], [(333,), (2, 3, 5)],
               [(ADAM_BLOCK + 1,)], [(7, 11)]],
}
GROUPS = {"below": 1, "at": 1, "above": 1, "two": 2, "ragged": 3}


def layered(layout, arrays):
    """A ``SlabModel`` of ``arrays``, in order, in the layers of a layout."""
    arrays = iter(arrays)
    return SlabModel([[next(arrays) for _ in layer] for layer in LAYOUTS[layout]])


def test_layouts_cover_the_block_boundaries():
    totals = {
        name: sum(int(np.prod(s)) for layer in layers for s in layer)
        for name, layers in LAYOUTS.items()
    }
    assert totals["below"] < ADAM_BLOCK
    assert totals["at"] == ADAM_BLOCK
    assert totals["above"] == ADAM_BLOCK + 1
    assert totals["ragged"] > 2 * ADAM_BLOCK and totals["ragged"] % ADAM_BLOCK
    assert max(int(np.prod(s)) for layer in LAYOUTS["ragged"] for s in layer) > ADAM_BLOCK
    for name, layers in LAYOUTS.items():
        model = layered(name, [np.zeros(s) for layer in layers for s in layer])
        optimizer = Adam(model, 1e-3)
        assert len(optimizer.groups) == GROUPS[name] == len(expected_groups(layer_sizes(model)))


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
    """Over several steps, each through the backward hook, with gradients
    spanning many magnitudes, signed zeros, and one parameter that never
    receives a gradient."""
    shapes = [s for layer in LAYOUTS[layout] for s in layer]
    silent = no_grad % len(shapes)
    rng = np.random.default_rng(seed)
    start = [rng.normal(size=s) * 3.0 for s in shapes]
    model = layered(layout, start)
    fast = model.parameters()
    slow = [ad.parameter(a) for a in start]
    optimizer = Adam(model, learning_rate)
    oracle = PerParameterAdam(slow, learning_rate)
    for _ in range(steps):
        grads = []
        for i, f in enumerate(fast):
            g = rng.normal(size=f.data.shape) * 10.0 ** rng.uniform(-8, 3, size=f.data.shape)
            g.ravel()[::7] = -0.0
            grads.append(None if i == silent else g)
        for s, g in zip(slow, grads):
            s.grad = None if g is None else g.copy()
        model.backward(grads)
        optimizer.step()
        oracle.step()
        for f, s in zip(fast, slow):
            assert f.data.tobytes() == s.data.tobytes()
        assert not optimizer.grad.any()
    oracle.assert_matches(optimizer)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    learning_rate=st.sampled_from([1e-4, 1e-2, 0.5]),
    steps=st.integers(1, 6),
)
def test_the_sign_of_a_zero_gradient_never_reaches_the_state(seed, learning_rate, steps):
    """A coupling net's backward writes its gradients into the buffer, so a
    -0.0 arrives as -0.0 where adding it to the zeroed buffer gave +0.0.
    The update cannot tell: ``m`` starts at +0.0, and since beta_1 > 1/2
    ``m * beta_1`` of a nonzero ``m`` stays nonzero, so ``m`` is never -0.0;
    ``v`` takes ``g * g``; ``p`` moves by ``m`` and ``v`` alone. Two
    optimizers, one fed the other's gradients with the sign of every zero
    flipped, stay byte-identical in p, m and v after every step. Gradients
    mix normal values, signed zeros and the smallest subnormals."""
    shapes = [s for layer in LAYOUTS["ragged"] for s in layer]
    rng = np.random.default_rng(seed)
    start = [rng.normal(size=s) for s in shapes]
    models = [layered("ragged", start) for _ in range(2)]
    optimizers = [Adam(model, learning_rate) for model in models]
    for _ in range(steps):
        grads = []
        for s in shapes:
            g = rng.normal(size=s)
            kind = rng.integers(4, size=s)
            g[kind == 1] = np.copysign(0.0, g[kind == 1])
            g[kind == 2] = np.copysign(5e-324, g[kind == 2])
            grads.append(g)
        models[0].backward(grads)
        models[1].backward([np.where(g == 0.0, -g, g) for g in grads])
        for optimizer in optimizers:
            optimizer.step()
        a, b = optimizers
        assert a.data.tobytes() == b.data.tobytes()
        assert a.m.tobytes() == b.m.tobytes()
        assert a.v.tobytes() == b.v.tobytes()


def assert_views_of_slabs(model, optimizer):
    """Each ``.data`` views the parameter slab at its offset, and each
    ``.grad`` the gradient buffer at its offset in its group's window; the
    buffer is as large as the largest group."""
    params = model.layer_parameters()
    sizes = [sum(p.data.size for p in layer) for layer in params]
    groups = expected_groups(sizes)
    assert optimizer.grad.size == max(sum(sizes[i] for i in group) for group in groups)
    assert [count for count, _ in optimizer.groups] == np.cumsum([len(g) for g in groups]).tolist()
    item = optimizer.data.itemsize
    offset = optimizer.data.size
    for group in groups:
        start = offset - sum(sizes[i] for i in group)
        at = 0
        for p in (p for i in reversed(group) for p in params[i]):
            assert p.data.base is optimizer.data
            assert p.grad.base is optimizer.grad
            assert address(p.data) == address(optimizer.data) + (start + at) * item
            assert address(p.grad) == address(optimizer.grad) + at * item
            at += p.data.size
        offset = start
    assert offset == 0


def address(array):
    return array.__array_interface__["data"][0]


SPECS = [NiceSpec(couplings=2, hidden=(8,)), GlowSpec(2, 2, (8,)), NiceSpec(3, (200, 200)),
         GlowSpec(2, 2, (200, 200))]


@pytest.mark.parametrize("spec", SPECS)
def test_parameters_view_the_slabs_in_traversal_order(spec):
    model = build_model(16, spec, seed=3)
    before = [p.data.copy() for p in model.parameters()]
    optimizer = Adam(model, 1e-3)
    assert_views_of_slabs(model, optimizer)
    for p, value in zip(model.parameters(), before):
        np.testing.assert_array_equal(p.data, value)
        assert not p.grad.any()


def test_parameters_stay_slab_views_after_actnorm_init():
    batch = np.random.default_rng(0).normal(size=(32, 8)) * 4.0 + 1.0
    model = build_model(8, GlowSpec(2, 2, (8,)), seed=5)
    reference = build_model(8, GlowSpec(2, 2, (8,)), seed=5)
    optimizer = Adam(model, 1e-3)
    model.initialize_actnorms(batch)
    reference.initialize_actnorms(batch)
    assert all(step.actnorm.initialized for steps in model.levels for step in steps)
    assert_views_of_slabs(model, optimizer)
    for p, q in zip(model.parameters(), reference.parameters()):
        assert p.data.tobytes() == q.data.tobytes()
    offset = 0
    for p in model.parameters():
        np.testing.assert_array_equal(optimizer.data[offset : offset + p.data.size], p.data.ravel())
        offset += p.data.size


@pytest.mark.parametrize("spec", SPECS[2:], ids=["nice", "glow"])
def test_backward_accumulates_into_the_gradient_buffer(spec, monkeypatch):
    """Each group closes right after the backward of its last layer, holding
    exactly the gradients ``nll_gradient`` gives its parameters; after the
    backward every group is updated and the buffer is zero again."""
    x = np.random.default_rng(1).normal(size=(16, 16))
    model = build_model(16, spec, seed=2)
    optimizer = Adam(model, 1e-3)
    expected = training.nll_gradient(build_model(16, spec, seed=2), x)
    expected = np.concatenate([g.ravel() for g in expected])
    events = []
    monkeypatch.setattr(model, "layer_done", lambda: (events.append("layer"), optimizer._layer_done()))
    update = optimizer._update

    def record(group):
        events.append(group)
        got = optimizer.grad[: group.stop - group.start]
        assert got.tobytes() == expected[group].tobytes()
        update(group)

    optimizer._update = record
    training.nll_tensor(model, x).backward()
    assert len(optimizer.groups) >= 3
    closes = [events[:i].count("layer") for i, e in enumerate(events) if e != "layer"]
    assert closes == [count for count, _ in optimizer.groups]
    assert [e for e in events if e != "layer"] == [group for _, group in optimizer.groups]
    assert events[-1] != "layer" and not optimizer.grad.any()
    optimizer.step()
    assert optimizer.t == 1 and not optimizer.grad.any()


@pytest.mark.parametrize("spec", SPECS[2:], ids=["nice", "glow"])
def test_steps_in_workspaces_see_the_nll_gradient(spec):
    """``train_flow`` runs its steps in workspaces lent for the fit: here a
    full batch, a short one on row views of the same buffers, and two full
    ones. At every step each update group closes holding exactly the bytes
    ``nll_gradient`` gives a released copy of the model at that step."""
    x = np.random.default_rng(14).normal(size=(53, 16)) * 2.0 + 0.5
    model = build_model(16, spec, seed=15)
    optimizer = Adam(model, 1e-2)
    update = optimizer._update
    expected = []

    def record(group):
        assert optimizer.grad[: group.stop - group.start].tobytes() == expected[group].tobytes()
        update(group)

    optimizer._update = record
    with training.step_workspaces(model, 16):
        for step, start in enumerate((0, 16, 21, 37)):
            batch = x[start : start + (5 if step == 1 else 16)]
            released = build_model(16, spec, seed=15)
            released.slab[...] = model.slab
            if step == 0 and isinstance(released, GlowModel):
                released.initialize_actnorms(batch)
            expected = np.concatenate([g.ravel() for g in training.nll_gradient(released, batch)])
            training.nll_tensor(model, batch, init_actnorms=step == 0).backward()
            optimizer.step()
    assert optimizer.t == 4


def test_step_without_a_backward_updates_with_zero_gradients():
    """A group the backward did not reach is updated by ``step`` as if its
    gradients were zero: the moments of an earlier step carry it."""
    rng = np.random.default_rng(4)
    shapes = [s for layer in LAYOUTS["ragged"] for s in layer]
    start = [rng.normal(size=s) for s in shapes]
    model = layered("ragged", start)
    slow = [ad.parameter(a) for a in start]
    optimizer = Adam(model, 1e-2)
    oracle = PerParameterAdam(slow, 1e-2)
    grads = [rng.normal(size=s) for s in shapes]
    for s, g in zip(slow, grads):
        s.grad = g.copy()
    model.backward(grads)
    optimizer.step()
    oracle.step()
    for s in slow:
        s.grad = None
    optimizer.step()
    oracle.step()
    for f, s in zip(model.parameters(), slow):
        assert f.data.tobytes() == s.data.tobytes()
    oracle.assert_matches(optimizer)


@pytest.mark.parametrize("spec", SPECS[2:], ids=["nice", "glow"])
def test_training_is_bitwise_the_per_parameter_formula(spec):
    """The steps of ``train_flow``, with shuffling and a short last batch,
    against ``PerParameterAdam`` fed with ``nll_gradient`` on a second
    copy, compared after every step."""
    x = np.random.default_rng(9).normal(size=(37, 16)) * 2.0 + 0.5
    model = build_model(16, spec, seed=11)
    reference = build_model(16, spec, seed=11)
    optimizer = Adam(model, 1e-2)
    assert len(optimizer.groups) >= 3
    oracle = PerParameterAdam(reference.parameters(), 1e-2)
    rng = np.random.default_rng(10)
    step = 0
    for _ in range(2):
        order = rng.permutation(len(x))
        for start in range(0, len(x), 16):
            batch = x[order[start : start + 16]]
            training.nll_tensor(model, batch, init_actnorms=step == 0).backward()
            optimizer.step()
            if step == 0 and isinstance(spec, GlowSpec):
                reference.initialize_actnorms(batch)
            grads = training.nll_gradient(reference, batch)
            for p, g in zip(reference.parameters(), grads):
                p.grad = g
            oracle.step()
            for p, q in zip(model.parameters(), reference.parameters()):
                assert p.data.tobytes() == q.data.tobytes()
            oracle.assert_matches(optimizer)
            step += 1
    assert step == 6


@pytest.mark.parametrize("spec", SPECS[2:], ids=["nice", "glow"])
def test_nll_gradient_refuses_a_model_with_an_optimizer_attached(spec):
    """Its backward would run the optimizer's group updates with no step to
    end them, so nll_gradient raises before it touches a gradient; once the
    optimizer is released it gives the gradient of a model never trained."""
    x = np.random.default_rng(12).normal(size=(16, 16)) * 2.0 + 0.5
    model = build_model(16, spec, seed=13)
    optimizer = Adam(model, 1e-2)
    training.nll_tensor(model, x, init_actnorms=True).backward()
    optimizer.step()
    params = model.parameters()
    views = [p.grad for p in params]
    before = [a.tobytes() for a in (model.slab, optimizer.m, optimizer.v, optimizer.grad)]
    with pytest.raises(TrainingError, match="optimizer"):
        training.nll_gradient(model, x)
    assert [a.tobytes() for a in (model.slab, optimizer.m, optimizer.v, optimizer.grad)] == before
    assert all(p.grad is view for p, view in zip(params, views))
    optimizer.release()
    untrained = build_model(16, spec, seed=13)
    untrained.slab[...] = model.slab
    expected = training.nll_gradient(untrained, x)
    got = training.nll_gradient(model, x)
    assert [g.tobytes() for g in got] == [g.tobytes() for g in expected]


@pytest.mark.parametrize(
    "spec", [GlowSpec(2, 3, (256, 256)), NiceSpec(3, (1000, 1000))], ids=["glow", "nice-paper-width"]
)
def test_optimizer_holds_no_full_gradient_slab(spec, traced_peak):
    """For a model of several groups the optimizer allocates its two moment
    slabs and a buffer of the largest group's size, and a training step in
    its workspaces allocates no array as large as one hidden-to-hidden
    weight: the nets write their weight gradients into the buffer."""
    model = build_model(32, spec, seed=1)
    x = np.random.default_rng(3).normal(size=(8, 32))
    with traced_peak() as built:
        optimizer = Adam(model, 1e-3)
    sizes = layer_sizes(model)
    groups = expected_groups(sizes)
    assert len(groups) >= 3
    assert optimizer.grad.size == max(sum(sizes[i] for i in group) for group in groups)
    assert built.peak < 2.5 * model.slab.nbytes
    with training.step_workspaces(model, len(x)):
        training.nll_tensor(model, x, init_actnorms=True).backward()
        optimizer.step()
        with traced_peak() as stepped:
            training.nll_tensor(model, x).backward()
            optimizer.step()
    weight = max(p.data.nbytes for p in model.parameters() if p.data.ndim == 2)
    assert weight == spec.hidden[-1] ** 2 * 8
    assert stepped.peak < weight


def paper_width_model(arch):
    """A 64-dim flow at the paper's 5x1000 widths over a zero slab, laid out
    without drawing: its slab is allocated but never written."""
    if arch == "nice":
        spec = NiceSpec()
        return NiceModel.assemble(64, spec, ParameterSlab.zeros(NiceModel.parameter_count(64, spec)))
    spec = GlowSpec()
    steps = ((np.arange(size), np.ones(size), False)
             for size in active_sizes(64, spec.levels) for _ in range(spec.depth))
    return GlowModel.assemble(64, spec, steps, ParameterSlab.zeros(GlowModel.parameter_count(64, spec)))


@pytest.mark.parametrize("arch", ["nice", "glow"])
def test_paper_width_gradient_buffer_is_one_net_layer(arch, traced_peak):
    """Groups close within a net, so the shared buffer holds one 1000x1000
    layer and its bias, not a whole coupling (4,069,096 elements for NICE
    with its scale, 4,105,288 for glow with the next step's actnorm and
    LU). The assembly copies nothing of the slab."""
    with traced_peak() as traced:
        model = paper_width_model(arch)
    assert traced.peak - model.slab.nbytes < 2**20
    optimizer = Adam(model, 1e-3)
    assert optimizer.grad.size == 1000 * 1000 + 1000
    assert len(optimizer.groups) > len(model.levels[0])


def test_a_fit_holds_one_net_layers_gradient(traced_peak):
    """A fit of nets with four wide hidden layers allocates the parameter
    slab, its two moment slabs, a gradient buffer the size of one hidden
    layer and less than another layer besides; a buffer for a whole net
    would take three layers more."""
    x = np.random.default_rng(5).normal(size=(48, 8))
    spec = NiceSpec(couplings=2, hidden=(600,) * 4)
    with traced_peak() as traced:
        model, _ = train_flow(x, spec, FlowTrainConfig(epochs=1, batch_size=16))
    layer = (600 * 600 + 600) * 8
    assert traced.peak < 3 * model.slab.nbytes + 2 * layer


def test_training_releases_the_gradient_views():
    x = np.random.default_rng(2).normal(size=(40, 6))
    model, _ = train_flow(x, GlowSpec(2, 1, (8,)), FlowTrainConfig(epochs=1, batch_size=16))
    params = model.parameters()
    assert all(p.grad is None for p in params)
    assert "layer_done" not in vars(model)
    slab = params[0].data.base
    assert slab is not None and all(p.data.base is slab for p in params)


def zero_state_model(rng):
    """Two layers of one block each, and so two groups, whose starting
    values hold -0.0 entries."""
    start = [rng.normal(size=ADAM_BLOCK) for _ in range(2)]
    for p in start:
        p[::5] = -0.0
    return SlabModel([[start[0]], [start[1]]]), start


def zero_gradient(rng):
    """All zero, a third of it -0.0."""
    g = np.zeros(ADAM_BLOCK)
    g[rng.integers(3, size=ADAM_BLOCK) == 0] = -0.0
    return g


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_first_step_leaves_a_zero_gradient_block_as_it_is(seed):
    """At t == 0 both moments are +0.0: a block whose gradient is zero of
    either sign keeps p, m and v bit for bit, and its gradient is left
    +0.0. It is the first layer's, so its group closes last and nothing
    overwrites its part of the buffer. A block with one nonzero element is
    updated as the formula says."""
    rng = np.random.default_rng(seed)
    model, start = zero_state_model(rng)
    slow = [ad.parameter(a) for a in start]
    optimizer = Adam(model, 1e-2)
    oracle = PerParameterAdam(slow, 1e-2)
    one = zero_gradient(rng)
    one[rng.integers(ADAM_BLOCK)] = rng.normal()
    grads = [zero_gradient(rng), one]
    assert np.signbit(grads[0]).any() and np.signbit(start[0]).any()
    for s, g in zip(slow, grads):
        s.grad = g.copy()
    model.backward(grads)
    zero = slice(0, ADAM_BLOCK)
    assert model.slab[zero].tobytes() == start[0].tobytes()
    assert optimizer.m[zero].tobytes() == optimizer.v[zero].tobytes() == np.zeros(ADAM_BLOCK).tobytes()
    assert optimizer.grad.tobytes() == np.zeros(optimizer.grad.size).tobytes()
    optimizer.step()
    oracle.step()
    moved = ADAM_BLOCK + np.flatnonzero(one)
    assert optimizer.m[moved].all() and optimizer.v[moved].all()
    assert model.slab[moved] != start[1][moved - ADAM_BLOCK]
    for f, s in zip(model.parameters(), slow):
        assert f.data.tobytes() == s.data.tobytes()
    oracle.assert_matches(optimizer)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_later_steps_decay_the_moments_of_a_zero_gradient_block(seed):
    """At t >= 1 a zero-gradient block still scales m by beta_1 and v by
    beta_2 and moves p by them."""
    rng = np.random.default_rng(seed)
    model, start = zero_state_model(rng)
    slow = [ad.parameter(a) for a in start]
    optimizer = Adam(model, 1e-2)
    oracle = PerParameterAdam(slow, 1e-2)
    for grads in ([rng.normal(size=ADAM_BLOCK) for _ in range(2)],
                  [zero_gradient(rng), zero_gradient(rng)]):
        for s, g in zip(slow, grads):
            s.grad = g.copy()
        before = [a.copy() for a in (model.slab, optimizer.m, optimizer.v)]
        model.backward(grads)
        optimizer.step()
        oracle.step()
        for f, s in zip(model.parameters(), slow):
            assert f.data.tobytes() == s.data.tobytes()
        oracle.assert_matches(optimizer)
    slab, m, v = before
    np.testing.assert_array_equal(optimizer.m, m * ADAM_BETA_1)
    np.testing.assert_array_equal(optimizer.v, v * ADAM_BETA_2)
    assert (model.slab != slab).all()
