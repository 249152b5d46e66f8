"""Gradient engine: every op checked against central finite differences."""

import numpy as np
import pytest

from isoembed import autodiff as ad


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

    def test_matmul(self):
        a, b = RNG.normal(size=(3, 4)), RNG.normal(size=(4, 2))
        check(lambda t: ad.total(ad.mul(ad.matmul(t[0], t[1]), 1.5)), [a, b])

    def test_relu(self):
        x = RNG.normal(size=(6, 3)) + 0.2
        check(lambda t: ad.total(ad.mul(ad.relu(t[0]), ad.relu(t[0]))), [x])

    def test_exp(self):
        x = RNG.normal(size=(2, 3)) * 0.5
        check(lambda t: ad.total(ad.exp(t[0])), [x])

    def test_clamp_inside_and_outside(self):
        x = np.array([[-3.0, -0.5, 0.2, 2.5]])
        check(lambda t: ad.total(ad.mul(ad.clamp(t[0], -1.0, 1.0), 2.0)), [x])

    def test_take_and_assemble_cols(self):
        x = RNG.normal(size=(3, 5))

        def build(t):
            left = ad.take_cols(t[0], np.array([0, 2, 4]))
            right = ad.take_cols(t[0], np.array([1, 3]))
            merged = ad.assemble_cols(
                5, [(np.array([0, 2, 4]), ad.mul(left, 2.0)), (np.array([1, 3]), right)]
            )
            return ad.total(ad.mul(merged, merged))

        check(build, [x])

    def test_scatter_matrix(self):
        v = RNG.normal(size=3)
        flat = np.array([0, 1, 2]) * 3 + np.array([1, 2, 0])

        def build(t):
            m = ad.scatter_matrix(t[0], flat, (3, 3))
            return ad.total(ad.mul(m, m))

        check(build, [v])

    def test_sum_rows_and_mean(self):
        x = RNG.normal(size=(4, 3))
        check(lambda t: ad.mean(ad.sum_rows(ad.mul(t[0], t[0]))), [x])

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

    def test_assemble_requires_full_cover(self):
        x = ad.parameter(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ad.assemble_cols(3, [(np.array([0, 1]), x)])

    def test_parents_of_add_get_distinct_gradient_arrays(self):
        """add routes one upstream array to both parents; each must store
        its own copy so that accumulating into one leaves the other alone."""
        a, b = ad.parameter(1.0), ad.parameter(2.0)
        ad.add(a, b).backward()
        assert a.grad is not b.grad
        a.grad += 5.0
        assert float(b.grad) == 1.0


def every_op(p: list[ad.Tensor]) -> list[ad.Tensor]:
    """Apply each op once, chained; returns every intermediate output."""
    x, w, v = p
    outs = [ad.matmul(x, w)]
    outs.append(ad.add(outs[-1], v))
    outs.append(ad.relu(outs[-1]))
    outs.append(ad.clamp(outs[-1], -0.5, 0.5))
    outs.append(ad.exp(outs[-1]))
    outs.append(ad.mul(outs[-1], x))
    left = ad.take_cols(outs[-1], np.array([0, 2]))
    right = ad.take_cols(outs[-1], slice(1, 2))
    outs += [left, right]
    outs.append(ad.assemble_cols(3, [(np.array([0, 2]), left), (np.array([1]), right)]))
    outs.append(ad.scatter_matrix(v, np.array([0, 1, 2]) * 3 + np.array([2, 0, 1]), (3, 3)))
    outs.append(ad.matmul(outs[-2], outs[-1]))
    outs.append(ad.sum_rows(outs[-1]))
    outs.append(ad.total(outs[-1]))
    outs.append(ad.mean(outs[-2]))
    return outs


class TestNoGrad:
    def params(self):
        rng = np.random.default_rng(3)
        return [
            ad.parameter(rng.normal(size=(4, 3))),
            ad.parameter(rng.normal(size=(3, 3))),
            ad.parameter(rng.normal(size=3)),
        ]

    def test_values_bitwise_equal_to_graph_mode(self):
        graph = every_op(self.params())
        with ad.no_grad():
            plain = every_op(self.params())
        for g, n in zip(graph, plain):
            assert g.requires_grad
            np.testing.assert_array_equal(n.data, g.data)

    def test_records_no_parents_or_closures(self):
        with ad.no_grad():
            outs = every_op(self.params())
        for out in outs:
            assert not out.requires_grad
            assert out._parents == ()
            assert out._backward is None

    def test_mode_restored_after_exception_and_nesting(self):
        p = ad.parameter(np.ones(2))
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                with ad.no_grad():
                    pass
                assert not ad.add(p, 1.0).requires_grad
                raise RuntimeError("boom")
        out = ad.total(ad.add(p, 1.0))
        assert out.requires_grad and out._parents and out._backward is not None
        out.backward()
        np.testing.assert_array_equal(p.grad, np.ones(2))
