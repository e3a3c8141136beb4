import numpy as np
import pytest

from gsaudio import autodiff as ad
from gsaudio.autodiff import Tape, Tensor, finite_difference_check
from gsaudio.errors import ContractViolation


def test_square_gradient_at_three():
    x = Tensor(np.array(3.0), param=True)
    tape = Tape()
    y = ad.mul(tape, x, x)
    grads = tape.backward(y)
    assert grads[x] == pytest.approx(6.0, abs=1e-12)


def test_sigmoid_gradient_at_zero():
    x = Tensor(np.array(0.0), param=True)
    tape = Tape()
    y = ad.sigmoid(tape, x)
    grads = tape.backward(y)
    assert grads[x] == pytest.approx(0.25, abs=1e-12)


def test_two_layer_perceptron_matches_finite_differences():
    rng = np.random.default_rng(0)
    w1 = Tensor(rng.standard_normal((8, 16)))
    b1 = Tensor(rng.standard_normal(16))
    w2 = Tensor(rng.standard_normal((16, 1)))
    b2 = Tensor(rng.standard_normal(1))

    def f(tape, x):
        h = ad.relu(tape, ad.add(tape, ad.matmul(tape, x, w1), b1))
        return ad.mean(tape, ad.add(tape, ad.matmul(tape, h, w2), b2))

    err = finite_difference_check(f, rng.standard_normal((1, 8)), step=1e-5)
    assert err < 1e-4


def test_non_finite_tensor_rejected():
    with pytest.raises(ContractViolation):
        Tensor(np.array([1.0, np.nan]))


@pytest.mark.parametrize("name", [
    "matmul", "add", "sub", "mul", "relu", "sigmoid", "square", "abs",
    "concat", "mean", "mean_axis", "sum", "row_prod", "scale",
])
def test_primitive_gradients_exact(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    other = Tensor(rng.standard_normal((4, 5)))
    weights = Tensor(rng.standard_normal((5, 3)))

    def build(tape, x):
        if name == "matmul":
            return ad.mean(tape, ad.matmul(tape, x, weights))
        if name == "add":
            return ad.mean(tape, ad.add(tape, x, other))
        if name == "sub":
            return ad.mean(tape, ad.sub(tape, other, x))
        if name == "mul":
            return ad.mean(tape, ad.mul(tape, x, other))
        if name == "relu":
            return ad.mean(tape, ad.relu(tape, x))
        if name == "sigmoid":
            return ad.mean(tape, ad.sigmoid(tape, x))
        if name == "square":
            return ad.mean(tape, ad.square(tape, x))
        if name == "abs":
            return ad.mean(tape, ad.absolute(tape, x))
        if name == "concat":
            return ad.mean(tape, ad.concat(tape, [x, other], axis=1))
        if name == "mean":
            return ad.mean(tape, x)
        if name == "mean_axis":
            return ad.total(tape, ad.mean(tape, x, axis=0, keepdims=True))
        if name == "sum":
            return ad.total(tape, x)
        if name == "row_prod":
            return ad.total(tape, ad.row_prod(tape, x))
        if name == "scale":
            return ad.mean(tape, ad.scale(tape, x, -2.5))
        raise AssertionError(name)

    # keep relu/abs away from their kinks so the central difference is clean
    point = rng.standard_normal((4, 5))
    point[np.abs(point) < 0.05] += 0.1
    err = finite_difference_check(build, point, step=1e-6)
    assert err < 1e-6, f"{name}: {err}"


def test_broadcast_add_gradient():
    rng = np.random.default_rng(1)
    rows = Tensor(rng.standard_normal((6, 4)))

    def f(tape, x):
        return ad.mean(tape, ad.add(tape, rows, x))

    err = finite_difference_check(f, rng.standard_normal((1, 4)))
    assert err < 1e-7


def test_forward_determinism():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 3))
    w = rng.standard_normal((3, 3))

    def run():
        tape = Tape()
        xt = Tensor(x, param=True)
        y = ad.mean(tape, ad.sigmoid(tape, ad.matmul(tape, xt, Tensor(w))))
        return y.data.copy(), tape.backward(y)[xt].copy()

    y1, g1 = run()
    y2, g2 = run()
    assert np.array_equal(y1, y2)
    assert np.array_equal(g1, g2)


def test_backward_linearity():
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((4,))
    a, b = 1.7, -0.4

    def grad_of(fn):
        x = Tensor(x0, param=True)
        tape = Tape()
        out = fn(tape, x)
        return tape.backward(out)[x]

    f = lambda t, x: ad.total(t, ad.square(t, x))
    g = lambda t, x: ad.total(t, ad.sigmoid(t, x))
    combo = lambda t, x: ad.add(t, ad.scale(t, f(t, x), a), ad.scale(t, g(t, x), b))
    lhs = grad_of(combo)
    rhs = a * grad_of(f) + b * grad_of(g)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_multiple_uses_accumulate():
    x = Tensor(np.array([2.0]), param=True)
    tape = Tape()
    y = ad.add(tape, ad.mul(tape, x, x), x)  # x^2 + x -> 2x + 1 = 5
    grads = tape.backward(y)
    assert grads[x][0] == pytest.approx(5.0, abs=1e-12)


def test_finite_difference_check_constant_gradient():
    err = finite_difference_check(lambda t, x: ad.total(t, x), np.array([1.0, -2.0, 0.5]))
    assert err <= 1e-10


def test_finite_difference_check_sum_of_squares():
    x0 = np.array([1.0, 2.0, 3.0])
    x = Tensor(x0, param=True)
    tape = Tape()
    out = ad.total(tape, ad.square(tape, x))
    grads = tape.backward(out)
    assert np.allclose(grads[x], [2.0, 4.0, 6.0], atol=1e-12)
    err = finite_difference_check(lambda t, v: ad.total(t, ad.square(t, v)), x0)
    assert err < 1e-7


def test_finite_difference_requires_positive_step():
    with pytest.raises(ContractViolation):
        finite_difference_check(lambda t, x: ad.mean(t, x), np.ones(2), step=0.0)
