"""Primitive-level anchors and finite-difference checks for the graph engine."""

import math

import numpy as np
import pytest

from qforget.autodiff import (ItemSum, Var, add, concat_cols, cross_entropy,
                              embed, gelu, grad_check, kl_divergence_rows,
                              layer_norm, linear, log_sigmoid,
                              log_softmax_rows, matmul, mul, scale,
                              slice_cols, slice_rows, softmax_rows,
                              target_log_probs, vsum)
from qforget.errors import ContractError

GRAD_TOL = 1e-4
STEP = 1e-5


class TestSoftmax:
    def test_uniform_row(self):
        out = softmax_rows(Var(np.zeros((1, 4)))).value
        np.testing.assert_allclose(out, 0.25)

    def test_overflow_stability(self):
        out = softmax_rows(Var(np.array([[1000.0, 0.0]]))).value
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-300)
        assert np.all(np.isfinite(out))

    def test_closed_form_two_logits(self):
        out = softmax_rows(Var(np.array([[1.0, 2.0]]))).value
        e = math.e
        np.testing.assert_allclose(out, [[1 / (1 + e), e / (1 + e)]], rtol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = softmax_rows(Var(rng.normal(0, 5, (50, 17)))).value
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out >= 0)


class TestCrossEntropy:
    def test_uniform_logits_v8(self):
        loss = cross_entropy(Var(np.zeros((3, 8))), [0, 5, 7])
        np.testing.assert_allclose(float(loss.value), math.log(8), rtol=1e-15)

    def test_saturated_target(self):
        logits = np.zeros((1, 8))
        logits[0, 2] = 50.0
        loss = cross_entropy(Var(logits), [2])
        assert float(loss.value) < 1e-9

    def test_closed_form(self):
        # -log softmax([1, 2])[0] = log(1 + e)
        loss = cross_entropy(Var(np.array([[1.0, 2.0]])), [0])
        np.testing.assert_allclose(float(loss.value), math.log(1 + math.e), rtol=1e-15)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(0, 3, (20, 9))
        targets = rng.integers(0, 9, 20)
        assert float(cross_entropy(Var(logits), targets).value) >= 0.0

    def test_target_log_probs_backward_is_cross_entropys(self):
        # weighted by -1/m, target_log_probs' backward is cross_entropy's bit
        # for bit: both take the one form g (softmax - onehot)
        rng = np.random.default_rng(21)
        z, targets = rng.normal(0, 3, (5, 11)), [0, 4, 10, 4, 7]
        ce, tlp = Var(z.copy()), Var(z.copy())
        cross_entropy(ce, targets).backward()
        vsum(mul(target_log_probs(tlp, targets), Var(np.full(5, -1 / 5)))).backward()
        assert np.array_equal(ce.grad, tlp.grad)

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            cross_entropy(Var(np.zeros((2, 4))), [1, 4])


class TestKLDivergence:
    def test_identical_distributions(self):
        p = np.array([[0.2, 0.3, 0.5]])
        loss = kl_divergence_rows(p, Var(np.log(p)))
        np.testing.assert_allclose(float(loss.value), 0.0, atol=1e-15)

    def test_closed_form(self):
        # 0.25 log(0.25 / 0.5) + 0.75 log(0.75 / 0.5) = 0.75 log 3 - log 2
        loss = kl_divergence_rows(np.array([[0.25, 0.75]]),
                                  Var(np.log(np.array([[0.5, 0.5]]))))
        np.testing.assert_allclose(float(loss.value), 0.75 * math.log(3) - math.log(2),
                                   rtol=1e-15)

    def test_small_kl_keeps_its_relative_precision(self):
        # q = softmax(z + delta e_j) against p = softmax(z) has the exact KL
        # log1p(p_j expm1(delta)) - delta p_j, about 1e-11 at delta 1e-4:
        # the value must not take the rounding of the rows' normalizers
        rng = np.random.default_rng(20)
        for delta in (1e-4, 1e-2):
            for _ in range(50):
                z = rng.normal(0, 2, (1, 203))
                j = rng.integers(203)
                shifted = z.copy()
                shifted[0, j] += delta
                step = shifted[0, j] - z[0, j]  # delta as the float sum holds it
                p = softmax_rows(Var(z)).value
                exact = math.log1p(p[0, j] * math.expm1(step)) - step * p[0, j]
                got = float(kl_divergence_rows(p, log_softmax_rows(Var(shifted))).value)
                assert abs(got - exact) <= 1e-9 * exact

    def test_gibbs_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = rng.random((4, 6)) + 1e-3
            p /= p.sum(axis=1, keepdims=True)
            q = rng.random((4, 6)) + 1e-3
            q /= q.sum(axis=1, keepdims=True)
            assert float(kl_divergence_rows(p, Var(np.log(q))).value) >= -1e-12

    def test_non_stochastic_reference(self):
        with pytest.raises(ContractError):
            kl_divergence_rows(np.array([[0.7, 0.7]]), Var(np.zeros((1, 2))))
        with pytest.raises(ContractError):  # a zero entry drops q's mass there
            kl_divergence_rows(np.array([[1.0, 0.0]]), Var(np.log(np.array([[0.5, 0.5]]))))


class TestLogSigmoid:
    def test_zero(self):
        np.testing.assert_allclose(float(log_sigmoid(Var(0.0)).value),
                                   -math.log(2), rtol=1e-15)

    def test_deep_negative_no_overflow(self):
        out = float(log_sigmoid(Var(-1000.0)).value)
        np.testing.assert_allclose(out, -1000.0, rtol=1e-12)

    def test_closed_form(self):
        np.testing.assert_allclose(float(log_sigmoid(Var(2.0)).value),
                                   -math.log1p(math.exp(-2)), rtol=1e-15)


class TestBackward:
    def test_diamond_graph_accumulates(self):
        # a feeds two consumers; gradient must be the sum of both paths
        a = Var(np.array(3.0))
        out = add(mul(a, a), mul(a, a))
        out.backward()
        np.testing.assert_allclose(a.grad, 12.0)

    def test_each_node_fires_once(self):
        a = Var(np.array(2.0))
        b = mul(a, a)
        calls = []
        orig = b._backward
        b._backward = lambda g: (calls.append(1), orig(g))
        out = add(b, b)  # b consumed twice
        out.backward()
        assert len(calls) == 1
        np.testing.assert_allclose(a.grad, 8.0)

    def test_scalar_root_required(self):
        with pytest.raises(ContractError):
            add(Var(np.ones(3)), Var(np.ones(3))).backward()

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ContractError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Var(np.ones((2, 3))), Var(np.ones((2, 3))))

    def test_intermediates_are_consumed(self):
        x, w = Var(np.arange(6.0).reshape(2, 3)), Var(np.ones((4, 3)))
        h = linear(x, w)
        g = gelu(h)
        out = vsum(mul(g, g))
        out.backward()
        for node in (h, g, out):
            assert node.grad is None and node._backward is None and node.parents is None
        assert x.grad.shape == (2, 3) and w.grad.shape == (4, 3)
        assert x.parents == () and w.parents == ()

    def test_leaf_gradients_sum_over_graphs(self):
        a = Var(np.array([1.0, -2.0]))
        assert a.grad is None
        vsum(mul(a, a)).backward()          # 2a
        scale(vsum(a), 3.0).backward()      # 3
        np.testing.assert_array_equal(a.grad, [5.0, -1.0])

    def test_second_backward_over_consumed_graph_raises(self):
        a = Var(np.array(2.0))
        b = mul(a, a)
        out = scale(b, 3.0)
        out.backward()
        with pytest.raises(ContractError, match="consumed"):
            out.backward()
        with pytest.raises(ContractError, match="consumed"):
            add(b, a).backward()  # a new root over a consumed node
        np.testing.assert_array_equal(a.grad, 12.0)


class TestItemSum:
    @staticmethod
    def pieces(a):
        rows = [np.array([0.5, -1.0]), np.array([2.0, 0.25]), np.array([-3.0, 1.5])]
        return [lambda r=r: vsum(mul(a, Var(r))) for r in rows] + \
               [lambda: vsum(gelu(mul(a, a)))]

    def test_backward_equals_whole_graph_bit_for_bit(self):
        start = np.array([0.3, -0.7])
        a, b = Var(start.copy()), Var(start.copy())
        whole = ItemSum(self.pieces(a), -1.0 / 7.0).graph()
        whole.backward()
        value = ItemSum(self.pieces(b), -1.0 / 7.0).backward()
        assert value == float(whole.value)
        assert np.array_equal(a.grad, b.grad)

    def test_outer_scale_reaches_gradient_not_value(self):
        start = np.array([0.3, -0.7])
        a, b = Var(start.copy()), Var(start.copy())
        whole = ItemSum(self.pieces(a), 0.5).graph()
        scale(whole, 10.0).backward()
        assert ItemSum(self.pieces(b), 0.5).backward(10.0) == float(whole.value)
        assert np.array_equal(a.grad, b.grad)


class TestGradCheck:
    """Every primitive against central differences at 5 random points."""

    def _check(self, build, shape, points=5):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(points):
            x = rng.normal(0, 1, shape)
            worst = max(worst, grad_check(build(rng), x, STEP))
        assert worst < GRAD_TOL, worst

    def test_matmul(self):
        rng = np.random.default_rng(7)
        b = Var(rng.normal(size=(4, 2)))
        w = Var(rng.normal(size=(3, 2)))
        self._check(lambda r: (lambda v: vsum(mul(matmul(v, b), w))), (3, 4))

    def test_linear(self):
        rng = np.random.default_rng(8)
        w = Var(rng.normal(size=(5, 4)))
        m = Var(rng.normal(size=(3, 5)))
        self._check(lambda r: (lambda v: vsum(mul(linear(v, w), m))), (3, 4))

    def test_linear_weight_side(self):
        rng = np.random.default_rng(9)
        x = Var(rng.normal(size=(3, 4)))
        m = Var(rng.normal(size=(3, 5)))
        self._check(lambda r: (lambda v: vsum(mul(linear(x, v), m))), (5, 4))

    def test_add_mul_scale(self):
        rng = np.random.default_rng(10)
        b = Var(rng.normal(size=(3, 4)))
        self._check(lambda r: (lambda v: vsum(scale(mul(add(v, b), b), 1.7))), (3, 4))

    def test_softmax(self):
        rng = np.random.default_rng(11)
        m = Var(rng.normal(size=(3, 4)))
        self._check(lambda r: (lambda v: vsum(mul(softmax_rows(v), m))), (3, 4))

    def test_log_softmax(self):
        rng = np.random.default_rng(12)
        m = Var(rng.normal(size=(3, 4)))
        self._check(lambda r: (lambda v: vsum(mul(log_softmax_rows(v), m))), (3, 4))

    def test_layer_norm_all_inputs(self):
        rng = np.random.default_rng(13)
        g = Var(rng.normal(1, 0.3, 4))
        b = Var(rng.normal(size=4))
        m = Var(rng.normal(size=(3, 4)))
        self._check(lambda r: (lambda v: vsum(mul(layer_norm(v, g, b), m))), (3, 4))
        x = Var(rng.normal(size=(3, 4)))
        self._check(lambda r: (lambda v: vsum(mul(layer_norm(x, v, b), m))), (4,))
        self._check(lambda r: (lambda v: vsum(mul(layer_norm(x, g, v), m))), (4,))

    def test_gelu(self):
        self._check(lambda r: (lambda v: vsum(gelu(v))), (3, 4))

    def test_embed(self):
        rng = np.random.default_rng(14)
        m = Var(rng.normal(size=(5, 4)))
        ids = [0, 2, 2, 1, 5]
        self._check(lambda r: (lambda v: vsum(mul(embed(v, ids), m))), (6, 4))

    def test_slices_and_concat(self):
        rng = np.random.default_rng(15)
        m = Var(rng.normal(size=(3, 4)))
        m2 = Var(rng.normal(size=(2, 4)))
        self._check(lambda r: (lambda v: vsum(mul(
            concat_cols([slice_cols(v, 0, 2), slice_cols(v, 2, 4)]), m))), (3, 4))
        self._check(lambda r: (lambda v: vsum(mul(slice_rows(v, 1, 3), m2))), (4, 4))

    def test_cross_entropy(self):
        self._check(lambda r: (lambda v: cross_entropy(v, [1, 3, 0])), (3, 4))

    def test_target_log_probs(self):
        rng = np.random.default_rng(16)
        w = Var(rng.normal(size=3))
        self._check(lambda r: (lambda v: vsum(mul(target_log_probs(v, [1, 3, 0]), w))), (3, 4))

    def test_log_sigmoid(self):
        self._check(lambda r: (lambda v: vsum(log_sigmoid(v))), (3, 4))

    def test_kl(self):
        p = np.array([[0.2, 0.3, 0.4, 0.1], [0.25] * 4, [0.1, 0.1, 0.1, 0.7]])
        self._check(lambda r: (lambda v: kl_divergence_rows(p, log_softmax_rows(v))), (3, 4))

    def test_sum_of_squares_oracle(self):
        # quadratics have exact central differences up to rounding
        rng = np.random.default_rng(17)
        err = grad_check(lambda v: vsum(mul(v, v)), rng.normal(size=(4, 3)), STEP)
        assert err < 1e-6

    def test_constant_function(self):
        assert grad_check(lambda v: Var(5.0), np.ones((2, 2)), STEP) == 0.0
