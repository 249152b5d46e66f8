"""Gradient engine: every op and the fused-layer node checked against
central finite differences."""

import numpy as np
import pytest

from isoembed import autodiff as ad
from isoembed.flows import CLAMP, ActNorm, AffineCoupling, CouplingNet, LuLinear
from isoembed.flows.nice import AdditiveCoupling
from isoembed.rng import PinnedRng


def finite_difference(fn, params: list[np.ndarray], h: float = 1e-6) -> list[np.ndarray]:
    """Central-difference gradient of a scalar function of numpy arrays."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p, flat_g = p.ravel(), g.ravel()
        for k in range(flat_p.size):
            keep = flat_p[k]
            flat_p[k] = keep + h
            up = fn()
            flat_p[k] = keep - h
            down = fn()
            flat_p[k] = keep
            flat_g[k] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def check(build, arrays, atol=1e-7):
    """build(tensors) -> scalar Tensor; compares backward grads to FD."""
    tensors = [ad.parameter(a.copy()) for a in arrays]
    out = build(tensors)
    out.backward()
    analytic = [t.grad for t in tensors]

    def value():
        fresh = [ad.Tensor(t.data) for t in tensors]
        return float(build(fresh).data)

    numeric = finite_difference(value, [t.data for t in tensors])
    for got, want in zip(analytic, numeric):
        np.testing.assert_allclose(got, want, atol=atol, rtol=1e-5)


RNG = np.random.default_rng(0)


class TestOps:
    def test_add_broadcast(self):
        x, b = RNG.normal(size=(4, 3)), RNG.normal(size=3)
        check(lambda t: ad.total(ad.mul(ad.add(t[0], t[1]), ad.add(t[0], t[1]))), [x, b])

    def test_mul_broadcast(self):
        x, s = RNG.normal(size=(4, 3)), RNG.normal(size=3)
        check(lambda t: ad.total(ad.mul(t[0], t[1])), [x, s])

    def test_scalar_broadcast_to_rows(self):
        v, s = RNG.normal(size=5), RNG.normal(size=())
        check(lambda t: ad.total(ad.mul(ad.add(t[0], t[1]), ad.add(t[0], t[1]))), [v, s])

    def test_reused_node_accumulates(self):
        """A tensor consumed by two branches must sum both gradients."""
        x = RNG.normal(size=(2, 2))

        def build(t):
            y = ad.mul(t[0], 3.0)
            return ad.add(ad.total(ad.mul(y, y)), ad.total(ad.mul(y, t[0])))

        check(build, [x])


class TestBackwardContract:
    def test_scalar_only(self):
        t = ad.parameter(np.ones(3))
        with pytest.raises(ValueError):
            ad.mul(t, 2.0).backward()

    def test_constants_collect_no_grad(self):
        c = ad.constant(np.ones((2, 2)))
        p = ad.parameter(np.ones((2, 2)))
        out = ad.total(ad.mul(c, p))
        out.backward()
        assert c.grad is None
        np.testing.assert_array_equal(p.grad, np.ones((2, 2)))

    def test_parents_of_add_get_distinct_gradient_arrays(self):
        """add routes one upstream array to both parents; each must store
        its own copy so that accumulating into one leaves the other alone."""
        a, b = ad.parameter(1.0), ad.parameter(2.0)
        ad.add(a, b).backward()
        assert a.grad is not b.grad
        a.grad += 5.0
        assert float(b.grad) == 1.0


class Affine:
    """Test layer for ``ad.fused``: y = x @ w + v, log-det contribution
    sum(v) per row."""

    def __init__(self, w: ad.Tensor, v: ad.Tensor):
        self.w, self.v = w, v

    def kernel(self, x, keep=False):
        return x @ self.w.data + self.v.data, self.v.data.sum(), x if keep else None

    def backward(self, x, grad, logdet_grad, need_dx):
        self.w._accumulate(x.T @ grad)
        self.v._accumulate(grad.sum(axis=0))
        self.v._accumulate(np.full_like(self.v.data, logdet_grad.sum()))
        return grad @ self.w.data.T if need_dx else None


class TestFused:
    def test_gradients_through_output_and_logdet(self):
        x, w, v, ld = (RNG.normal(size=s) for s in [(4, 3), (3, 3), 3, 4])

        def build(t):
            y, logdet = ad.fused(Affine(t[1], t[2]), t[0], t[3])
            return ad.add(ad.total(ad.mul(y, y)), ad.total(ad.mul(logdet, logdet)))

        check(build, [x, w, v, ld])

    def test_logdet_alone_reaches_the_parameters(self):
        w, v = ad.parameter(np.eye(2)), ad.parameter(np.ones(2))
        _, logdet = ad.fused(Affine(w, v), ad.constant(np.ones((3, 2))), ad.constant(np.zeros(3)))
        ad.total(logdet).backward()
        np.testing.assert_array_equal(w.grad, np.zeros((2, 2)))
        np.testing.assert_array_equal(v.grad, np.full(2, 3.0))

    def test_one_node_per_layer(self):
        w, v = ad.parameter(np.eye(2)), ad.parameter(np.ones(2))
        x = ad.constant(np.ones((3, 2)))
        y, logdet = ad.fused(Affine(w, v), x, ad.constant(np.zeros(3)))
        assert y._parents == (x,)
        assert logdet._parents[1] is y
        y, logdet = ad.fused(Affine(w, v), y)
        assert logdet is None


def check_layer(layer, forward, x: np.ndarray, scale: float = 0.3, atol: float = 1e-6):
    """Gradients of a flow layer's fused node against central differences,
    for its parameters (randomized by ``scale``) and its input, through its
    output and, where it has one, its log-det."""
    rng = np.random.default_rng(1)
    for p in layer.parameters():
        p.data[...] += rng.normal(0.0, scale, p.data.shape)
    weight = rng.normal(size=x.shape[0])

    def loss(inp, logdet_in):
        y, logdet = forward(layer, inp, logdet_in)
        out = ad.total(ad.mul(ad.mul(y, y), 0.5))
        return out if logdet is None else ad.add(out, ad.total(ad.mul(logdet, weight)))

    x_param, logdet_param = ad.parameter(x), ad.parameter(rng.normal(size=x.shape[0]))
    loss(x_param, logdet_param).backward()
    params = layer.parameters()
    analytic = [p.grad for p in params] + [x_param.grad]

    def value():
        return float(loss(ad.constant(x), ad.constant(logdet_param.data)).data)

    numeric = finite_difference(value, [p.data for p in params] + [x])
    for got, want in zip(analytic, numeric):
        np.testing.assert_allclose(got, want, atol=atol, rtol=1e-5)
    if logdet_param.grad is not None:
        np.testing.assert_array_equal(logdet_param.grad, weight)


def with_logdet(layer, x, logdet):
    return layer.forward(x, logdet)


def without_logdet(layer, x, logdet):
    return ad.fused(layer, x)[0], None


class TestFusedFlowLayers:
    def test_actnorm(self):
        check_layer(ActNorm(5), with_logdet, RNG.normal(size=(6, 5)))

    def test_lulinear_with_negative_signs(self):
        layer = LuLinear.from_parameters(
            np.array([2, 0, 4, 1, 3]), np.array([1.0, -1.0, -1.0, 1.0, -1.0]),
            ad.parameter(np.zeros(10)), ad.parameter(np.zeros(5)), ad.parameter(np.zeros(10)),
        )
        check_layer(layer, with_logdet, RNG.normal(size=(6, 5)))

    def test_affine_coupling_with_clamped_scales(self):
        layer = AffineCoupling.build(6, 1, (4,), PinnedRng(3))
        x = RNG.normal(size=(8, 6)) * 2.0
        # Unclamped scales reach exp(5), so the loss is ~1e4 and its central
        # differences carry absolute errors of ~1e-5.
        check_layer(layer, with_logdet, x, scale=2.0, atol=1e-4)
        pre = layer.net.kernel(x[:, layer.cond_idx])[0][:, 3:]
        assert (np.abs(pre) > CLAMP).any() and (np.abs(pre) < CLAMP).any()

    def test_coupling_net(self):
        net = CouplingNet.build(3, 4, (5, 4), PinnedRng(4))
        check_layer(net, lambda layer, x, _: (layer.tensor_apply(x), None), RNG.normal(size=(6, 3)))

    def test_additive_coupling(self):
        layer = AdditiveCoupling(5, 0, CouplingNet.build(3, 2, (4,), PinnedRng(5)))
        check_layer(layer, without_logdet, RNG.normal(size=(6, 5)))

    def test_constant_input_gets_no_gradient(self):
        layer = AffineCoupling.build(4, 0, (3,), PinnedRng(6))
        x = ad.constant(RNG.normal(size=(3, 4)))
        y, logdet = layer.forward(x, ad.constant(np.zeros(3)))
        ad.add(ad.total(ad.mul(y, y)), ad.total(logdet)).backward()
        assert x.grad is None
        assert all(p.grad is not None for p in layer.parameters())
