"""Gradient correctness tests for the autograd framework.

Every op is checked against central finite differences, including via
hypothesis-generated shapes/values for the core arithmetic.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import (
    Tensor,
    as_tensor,
    concat,
    segment_sum_csr,
    stack,
    where_positive,
)


def numgrad(f, x, eps=1e-6):
    """Central finite-difference gradient of scalar-valued f at x."""
    g = np.zeros_like(x, dtype=float)
    for idx in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2 * eps)
    return g


def check_grad(op, x0, rtol=1e-5, atol=1e-7):
    """Compare autograd against finite differences for y = sum(op(x))."""
    x = Tensor(x0, requires_grad=True)
    op(x).sum().backward()
    expected = numgrad(lambda v: op(Tensor(v)).sum().item(), x0)
    np.testing.assert_allclose(x.grad, expected, rtol=rtol, atol=atol)


ARRS = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).map(lambda m: (n, m))
)


class TestElementwiseGrads:
    @pytest.mark.parametrize("op", [
        lambda t: t * 3.0 + 1.0,
        lambda t: t * t,
        lambda t: t / 2.5,
        lambda t: 1.0 / (t + 3.0),
        lambda t: -t,
        lambda t: t ** 3,
        lambda t: t.exp(),
        lambda t: (t + 3.0).log(),
        lambda t: (t + 3.0).sqrt(),
        lambda t: t.tanh(),
        lambda t: t.sigmoid(),
        lambda t: t.softplus(),
    ])
    def test_op_gradient(self, op):
        rng = np.random.default_rng(0)
        check_grad(op, rng.uniform(-1.5, 1.5, size=(3, 4)))

    def test_relu_gradient_away_from_kink(self):
        x0 = np.array([[-2.0, -0.5], [0.5, 2.0]])
        check_grad(lambda t: t.relu(), x0)

    def test_broadcasting_add(self):
        a0 = np.random.default_rng(1).normal(size=(3, 4))
        b0 = np.random.default_rng(2).normal(size=(4,))
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_broadcasting_mul_grad(self):
        rng = np.random.default_rng(3)
        a0, b0 = rng.normal(size=(3, 4)), rng.normal(size=(1, 4))
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, np.broadcast_to(b0, (3, 4)))
        np.testing.assert_allclose(b.grad, a0.sum(axis=0, keepdims=True))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-2, 2), min_size=2, max_size=8))
    def test_chained_ops_property(self, values):
        x0 = np.array(values)
        check_grad(lambda t: (t * t + t.sigmoid()).tanh(), x0, rtol=1e-4)


class TestMatmulGrads:
    def test_2d_2d(self):
        rng = np.random.default_rng(4)
        a0, b0 = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, numgrad(
            lambda v: (Tensor(v) @ Tensor(b0)).sum().item(), a0), rtol=1e-5)
        np.testing.assert_allclose(b.grad, numgrad(
            lambda v: (Tensor(a0) @ Tensor(v)).sum().item(), b0), rtol=1e-5)

    def test_1d_2d(self):
        rng = np.random.default_rng(5)
        a0, b0 = rng.normal(size=4), rng.normal(size=(4, 3))
        a = Tensor(a0, requires_grad=True)
        (a @ Tensor(b0)).sum().backward()
        np.testing.assert_allclose(a.grad, b0.sum(axis=1))

    def test_2d_1d(self):
        rng = np.random.default_rng(6)
        a0, b0 = rng.normal(size=(3, 4)), rng.normal(size=4)
        b = Tensor(b0, requires_grad=True)
        (Tensor(a0) @ b).sum().backward()
        np.testing.assert_allclose(b.grad, a0.sum(axis=0))

    def test_1d_1d(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (a @ Tensor(np.array([3.0, 4.0]))).backward()
        np.testing.assert_allclose(a.grad, [3.0, 4.0])

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2, 2))) @ Tensor(np.zeros((2, 2)))


class TestAffine:
    """The fused ``x @ W + b`` op must be bit-identical to the chain."""

    def test_matches_chain_bitwise_2d(self):
        rng = np.random.default_rng(7)
        x0, w0, b0 = (rng.normal(size=(5, 4)), rng.normal(size=(4, 3)),
                      rng.normal(size=3))
        fused = Tensor(x0).affine(Tensor(w0), Tensor(b0))
        chain = Tensor(x0) @ Tensor(w0) + Tensor(b0)
        assert np.array_equal(fused.data, chain.data)

    def test_matches_chain_bitwise_1d(self):
        rng = np.random.default_rng(8)
        x0, w0, b0 = (rng.normal(size=4), rng.normal(size=(4, 3)),
                      rng.normal(size=3))
        fused = Tensor(x0).affine(Tensor(w0), Tensor(b0))
        chain = Tensor(x0) @ Tensor(w0) + Tensor(b0)
        assert np.array_equal(fused.data, chain.data)

    def test_grads_match_chain(self):
        rng = np.random.default_rng(9)
        x0, w0, b0 = (rng.normal(size=(5, 4)), rng.normal(size=(4, 3)),
                      rng.normal(size=3))

        def run(op):
            x = Tensor(x0, requires_grad=True)
            w = Tensor(w0, requires_grad=True)
            b = Tensor(b0, requires_grad=True)
            (op(x, w, b) * op(x, w, b)).sum().backward()
            return x.grad, w.grad, b.grad

        fused = run(lambda x, w, b: x.affine(w, b))
        chain = run(lambda x, w, b: x @ w + b)
        for got, want in zip(fused, chain):
            assert np.array_equal(got, want)

    def test_3d_input_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2, 2))).affine(
                Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)))


class TestReductionsAndShapes:
    def test_sum_axis_grad(self):
        x0 = np.random.default_rng(7).normal(size=(3, 4))
        check_grad(lambda t: t.sum(axis=0).tanh(), x0)

    def test_mean_grad(self):
        x0 = np.random.default_rng(8).normal(size=(5,))
        x = Tensor(x0, requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full(5, 0.2))

    def test_reshape_grad(self):
        x0 = np.random.default_rng(9).normal(size=(2, 6))
        check_grad(lambda t: (t.reshape(3, 4) ** 2), x0)

    def test_transpose_grad(self):
        x0 = np.random.default_rng(10).normal(size=(2, 3))
        check_grad(lambda t: t.T * 2.0, x0)

    def test_getitem_grad_accumulates_repeats(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        x.gather_rows(np.array([0, 0, 2])).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0])


class TestFunctional:
    def test_concat_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        (concat([a, b], axis=1) * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 3), 2.0))

    def test_stack_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        stack([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))

    # segment_sum_csr: rows pre-sorted by id [0, 2, 2] into 4 segments
    # (1 and 3 stay empty); receivers [0, 2] start at rows [0, 1].
    SEG_IDS = np.array([0, 2, 2])
    SEG_NODES = np.array([0, 2])
    SEG_STARTS = np.array([0, 1])

    def test_segment_sum_values(self):
        vals = Tensor(np.arange(6.0).reshape(3, 2))
        out = segment_sum_csr(vals, self.SEG_NODES, self.SEG_STARTS,
                              self.SEG_IDS, 4)
        np.testing.assert_allclose(
            out.data, [[0.0, 1.0], [0.0, 0.0], [6.0, 8.0], [0.0, 0.0]])

    def test_segment_sum_grad(self):
        vals = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        weights = Tensor(np.arange(1.0, 9.0).reshape(4, 2))
        (segment_sum_csr(vals, self.SEG_NODES, self.SEG_STARTS,
                         self.SEG_IDS, 4) * weights).sum().backward()
        np.testing.assert_allclose(vals.grad, [[1, 2], [5, 6], [5, 6]])

    def test_segment_sum_validates_ids(self):
        ones = Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError, match="out of range"):
            segment_sum_csr(ones, np.array([0, 5]), np.array([0, 1]),
                            np.array([0, 5]), 2)
        with pytest.raises(ValueError, match="length"):
            segment_sum_csr(ones, np.array([0]), np.array([0]),
                            np.array([0]), 2)
        with pytest.raises(ValueError, match="mismatch"):
            segment_sum_csr(ones, np.array([0, 1]), np.array([0]),
                            np.array([0, 1]), 2)

    def test_where_positive(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([10.0, 20.0]), requires_grad=True)
        out = where_positive(np.array([1.0, -1.0]), a, b)
        np.testing.assert_allclose(out.data, [1.0, 20.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])


class TestTapeMechanics:
    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_detach_stops_gradient(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x.detach() * 5.0
        assert not y.requires_grad

    def test_backward_without_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(2)).backward()

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph(self):
        """x used through two paths that rejoin: grads sum correctly."""
        x0 = np.array([0.7, -0.3])
        check_grad(lambda t: (t.sigmoid() * t.tanh()), x0)

    def test_as_tensor_passthrough(self):
        t = Tensor(np.ones(2))
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)
