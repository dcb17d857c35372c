import numpy as np
import pytest

from conftest import numeric_grad
from tape import Var, add_at_cols, gather_cols


class TestScalarChains:
    def test_squared_product_example(self):
        # loss = (w*a)^2 with a=2, w=1 -> dloss/dw = 2*w*a^2 = 8
        w = Var(1.0)
        loss = (w * 2.0) ** 2
        loss.backward()
        assert float(w.grad) == pytest.approx(8.0)

    def test_diamond_graph_accumulates_both_paths(self):
        x = Var(3.0)
        y = x * x + x  # dy/dx = 2x + 1 = 7
        y.backward()
        assert float(x.grad) == pytest.approx(7.0)

    def test_subtraction_and_negation(self):
        a, b = Var(2.0), Var(5.0)
        out = (a - b) * (-a)
        out.backward()
        # d/da [(a-b)(-a)] = -2a + b = 1 ; d/db = a = 2
        assert float(a.grad) == pytest.approx(1.0)
        assert float(b.grad) == pytest.approx(2.0)

    def test_backward_requires_scalar(self):
        v = Var(np.ones(3))
        with pytest.raises(ValueError):
            v.backward()


class TestPrimitiveGradients:
    def test_tanh(self):
        x0 = np.array([0.3, -1.2, 4.0])
        x = Var(x0)
        (x.tanh().sum()).backward()
        np.testing.assert_allclose(x.grad, 1 - np.tanh(x0) ** 2, atol=1e-12)

    def test_mean_and_pow(self):
        x0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        x = Var(x0)
        ((x ** 3).mean()).backward()
        np.testing.assert_allclose(x.grad, 3 * x0**2 / 4, atol=1e-12)

    def test_broadcast_mul_scalar_weight(self):
        w = Var(0.7)
        a0 = np.arange(6.0).reshape(2, 3)
        a = Var(a0)
        ((w * a).sum()).backward()
        assert float(w.grad) == pytest.approx(a0.sum())
        np.testing.assert_allclose(a.grad, 0.7 * np.ones((2, 3)))

    def test_add_with_broadcasting(self):
        row = Var(np.array([1.0, 2.0, 3.0]))
        full = Var(np.zeros((4, 3)))
        ((row + full).sum()).backward()
        np.testing.assert_allclose(row.grad, 4 * np.ones(3))
        np.testing.assert_allclose(full.grad, np.ones((4, 3)))

    @pytest.mark.parametrize("op", ["mul", "add", "tanh"])
    def test_against_finite_differences(self, op):
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=(3, 4))
        y0 = rng.normal(size=(3, 4))

        def forward(xv):
            x = Var(xv)
            if op == "mul":
                return (x * Var(y0)).sum()
            if op == "add":
                return (x + Var(y0)).mean()
            return x.tanh().sum()

        x = Var(x0)
        node = {"mul": lambda: (x * Var(y0)).sum(),
                "add": lambda: (x + Var(y0)).mean(),
                "tanh": lambda: x.tanh().sum()}[op]()
        node.backward()
        fd = numeric_grad(lambda xv: float(forward(xv).value), x0)
        np.testing.assert_allclose(x.grad, fd, atol=1e-6)


class TestArrayOps:
    def test_gather_cols_routes_adjoints(self):
        x = Var(np.arange(8.0).reshape(2, 4))
        cols = np.array([0, 2])
        (gather_cols(x, cols).sum()).backward()
        expected = np.zeros((2, 4))
        expected[:, cols] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_add_at_cols_value_and_gradients(self):
        x0 = np.zeros((2, 4))
        d0 = np.ones((2, 2))
        x, d = Var(x0), Var(d0)
        out = add_at_cols(x, np.array([1, 3]), d)
        expected = x0.copy()
        expected[:, [1, 3]] += 1.0
        np.testing.assert_allclose(out.value, expected)
        (out * out).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * expected)
        np.testing.assert_allclose(d.grad, 2 * expected[:, [1, 3]])

    def test_each_node_visited_once(self):
        # reusing a node in two branches must not double-run its backward
        x = Var(2.0)
        shared = x * x
        out = shared + shared
        out.backward()
        assert float(x.grad) == pytest.approx(8.0)  # d/dx 2x^2
