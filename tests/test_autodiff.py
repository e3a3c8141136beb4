import tracemalloc
import zlib

import numpy as np
import pytest

from gsaudio import autodiff as ad
from gsaudio.autodiff import RowSparse, Tape, Tensor, finite_difference_check
from gsaudio.errors import ContractViolation, EvaluationError

from conftest import dense_form


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


def test_non_finite_op_output_is_a_numeric_failure_naming_the_op():
    x = Tensor(np.array([[1e200, 1.0]]), param=True)
    with np.errstate(over="ignore"), pytest.raises(
            EvaluationError, match=r"^non-finite output of square on inputs of shape \(1, 2\)$"):
        ad.square(Tape(), x)


@pytest.mark.parametrize("name", [
    "matmul", "add", "sub", "mul", "relu", "sigmoid", "square",
    "concat", "mean", "mean_axis", "sum", "volume", "scale", "gather_rows",
])
def test_primitive_gradients_exact(name):
    # crc32, not hash(): a str hash changes with every interpreter start
    rng = np.random.default_rng(zlib.crc32(name.encode()))
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
        if name == "concat":
            return ad.mean(tape, ad.concat(tape, [x, other]))
        if name == "mean":
            return ad.mean(tape, x)
        if name == "mean_axis":
            return ad.total(tape, ad.mean(tape, x, axis=0, keepdims=True))
        if name == "sum":
            return ad.total(tape, x)
        if name == "volume":  # row 2 is never read
            return ad.volume(tape, x, [0, 1, 3])
        if name == "scale":
            return ad.mean(tape, ad.scale(tape, x, -2.5))
        if name == "gather_rows":  # row 1 is never gathered
            rows = ad.gather_rows(tape, x, [0, 2, 3])
            return ad.total(tape, ad.sigmoid(tape, ad.matmul(tape, rows, weights)))
        raise AssertionError(name)

    # keep relu and volume's |x| away from their kinks so the central difference is clean
    point = rng.standard_normal((4, 5))
    point[np.abs(point) < 0.05] += 0.1
    err = finite_difference_check(build, point, step=1e-6)
    assert err < 1e-6, f"{name}: {err}"


def test_mean_over_an_axis_backward_makes_no_input_sized_array():
    # the gradient is a read-only broadcast of one row, not a copy of x's size
    x = Tensor(np.random.default_rng(4).standard_normal((16384, 64)), param=True)
    tape = Tape()
    out = ad.mean(tape, x, axis=0, keepdims=True)
    tracemalloc.start()
    try:
        grads = tape.backward(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.data.nbytes / 8
    assert np.array_equal(grads[x], np.full(x.shape, 1.0 / 16384))
    assert not grads[x].flags.writeable


def test_volume_gradient_has_the_bits_of_the_composition():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((64, 52))
    x[3, 0] = x[9, 51] = x[17, 20] = 0.0  # one zero: first, last and a middle column
    x[30, 5] = x[30, 40] = 0.0  # two zeros: every cofactor of the row is 0
    x[41] = 0.0
    x[50, 7] = -0.0
    rows = np.array([0, 3, 9, 17, 30, 41, 50, 63])
    block = x[rows]
    left, right = np.ones_like(block), np.ones_like(block)
    np.cumprod(np.abs(block[:, :-1]), axis=1, out=left[:, 1:])
    np.cumprod(np.abs(block[:, :0:-1]), axis=1, out=right[:, -2::-1])
    g = np.float64(-0.37)
    want = 0.0 + (g * (left * right)) * np.sign(block)
    a = Tensor(x, param=True)
    tape = Tape()
    got = tape.backward(ad.scale(tape, ad.volume(tape, a, rows), g))[a]
    assert isinstance(got, RowSparse)
    assert np.array_equal(got.rows, rows)
    assert got.values.tobytes() == want.tobytes()
    assert not np.any(np.signbit(got.values[got.values == 0.0]))


@pytest.mark.parametrize("indices", [[2, 2, 0], [0, 3, 1], [-1, 2], [[0, 1]]],
                         ids=["repeated", "unsorted", "negative", "2-d"])
def test_volume_rejects_indices_that_are_not_strictly_increasing(indices):
    with pytest.raises(ContractViolation, match="^volume needs"):
        ad.volume(None, Tensor(np.ones((4, 3))), indices)


def gather_rows_gradient(indices, upstream, n_rows):
    """Dense form of the gradient that ``gather_rows`` sends back to an
    (n_rows, K) input when the gradient arriving at its output is
    ``upstream``."""
    x = Tensor(np.ones((n_rows, upstream.shape[1])), param=True)
    tape = Tape()
    rows = ad.gather_rows(tape, x, indices)
    return tape.backward(ad.total(tape, ad.mul(tape, rows, Tensor(upstream))))[x].dense()


def test_gather_rows_unique_indices_give_add_at_bits():
    rng = np.random.default_rng(5)
    indices = np.array([0, 2, 3, 7, 8])
    upstream = rng.standard_normal((indices.size, 4))
    upstream[1, 2] = upstream[3, 0] = -0.0
    upstream[4, 1] = 0.0
    want = np.zeros((10, 4))
    np.add.at(want, indices, upstream)
    got = gather_rows_gradient(indices, upstream, 10)
    assert got.tobytes() == want.tobytes()
    # -0.0 arrives at the gradient as +0.0, as np.add.at writes it; a plain
    # assignment would keep the sign bit
    assigned = np.zeros((10, 4))
    assigned[indices] = upstream
    assert got.tobytes() != assigned.tobytes()


@pytest.mark.parametrize("index_sets", [
    # a train step's order: the last gather on the tape covers the others
    [[3, 7], [0, 4, 9], [0, 3, 4, 7, 9]],
    [[1, 2, 5, 6], [2, 3, 6, 8], [0, 1, 8]],
    [[0, 1], [4, 5], [8, 9]],
    [[2, 4, 6]],
], ids=["subset", "overlapping", "disjoint", "single"])
@pytest.mark.parametrize("dense_too", [False, True], ids=["sparse", "with-dense"])
def test_merged_row_sparse_gradient_has_the_dense_sum_bits(index_sets, dense_too):
    rng = np.random.default_rng(len(index_sets[0]) + 7 * len(index_sets))
    x = Tensor(rng.standard_normal((10, 4)), param=True)
    tape = Tape()
    terms, upstreams = [], []
    if dense_too:
        w = rng.standard_normal((10, 4))
        w[0, 0] = w[2, 1] = -0.0
        terms.append(ad.total(tape, ad.mul(tape, x, Tensor(w))))
    for idx in index_sets:
        up = rng.standard_normal((len(idx), 4))
        up[0, 1] = up[-1, 3] = -0.0
        upstreams.append((np.array(idx), up))
        terms.append(ad.total(tape, ad.mul(tape, ad.gather_rows(tape, x, idx), Tensor(up))))
    out = terms[0]
    for term in terms[1:]:
        out = ad.add(tape, out, term)
    got = tape.backward(out)[x]
    # the dense composition: one zero gradient per gather with the rows
    # added in, summed in backward order, the reverse of the tape's
    want = None
    for idx, up in reversed(upstreams):
        full = np.zeros((10, 4))
        full[idx] += up
        want = full if want is None else want + full
    if dense_too:
        want = want + w
    assert dense_form(got).tobytes() == want.tobytes()
    if not dense_too:
        assert isinstance(got, RowSparse)
        assert np.array_equal(got.rows, np.unique(np.concatenate(index_sets)))


def test_gather_rows_forward_and_len():
    a = Tensor(np.arange(12.0).reshape(4, 3))
    out = ad.gather_rows(None, a, [0, 2, 3])
    assert np.array_equal(out.data, a.data[[0, 2, 3]])
    assert len(a) == 4
    assert len(out) == 3


@pytest.mark.parametrize("indices", [[2, 2, 0], [0, 3, 1], [-1, 2], [[0, 1]]],
                         ids=["repeated", "unsorted", "negative", "2-d"])
def test_gather_rows_rejects_indices_that_are_not_strictly_increasing(indices):
    a = Tensor(np.arange(12.0).reshape(4, 3))
    with pytest.raises(ContractViolation):
        ad.gather_rows(None, a, indices)


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("wrt", ["x", "w", "b"])
def test_dense_matches_finite_differences(relu, rows, wrt):
    rng = np.random.default_rng(rows * 10 + relu)
    inputs = {"x": rng.standard_normal((rows, 5)),
              "w": rng.standard_normal((5, 6)),
              "b": rng.standard_normal(6)}
    # the pre-activations straddle zero but keep clear of the relu kink, so
    # the central difference never crosses it
    pre_act = inputs["x"] @ inputs["w"] + inputs["b"]
    assert np.abs(pre_act).min() > 1e-3
    assert (pre_act > 0).any() and (pre_act < 0).any()
    fixed = {k: Tensor(v) for k, v in inputs.items() if k != wrt}
    head = Tensor(rng.standard_normal((6, 1)))

    def f(tape, v):
        args = dict(fixed, **{wrt: v})
        out = ad.dense(tape, args["x"], args["w"], args["b"], relu=relu)
        return ad.total(tape, ad.sigmoid(tape, ad.matmul(tape, out, head)))

    err = finite_difference_check(f, inputs[wrt], step=1e-6)
    assert err < 1e-6, err


def test_dense_one_entry_equals_three_op_composition():
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((9, 4)), param=True)
    w = Tensor(rng.standard_normal((4, 3)), param=True)
    b = Tensor(rng.standard_normal(3), param=True)
    for relu in (False, True):
        fused_tape, plain_tape = Tape(), Tape()
        fused = ad.dense(fused_tape, x, w, b, relu=relu)
        plain = ad.add(plain_tape, ad.matmul(plain_tape, x, w), b)
        if relu:
            plain = ad.relu(plain_tape, plain)
        assert len(fused_tape.entries) == 1
        assert fused.data.tobytes() == plain.data.tobytes()
        fused_grads = fused_tape.backward(ad.total(fused_tape, ad.square(fused_tape, fused)))
        plain_grads = plain_tape.backward(ad.total(plain_tape, ad.square(plain_tape, plain)))
        for t in (x, w, b):
            assert fused_grads[t].tobytes() == plain_grads[t].tobytes()


def test_dense_rejects_width_mismatch():
    x = Tensor(np.ones((2, 4)))
    b = Tensor(np.zeros(3))
    with pytest.raises(ContractViolation):
        ad.dense(None, x, Tensor(np.ones((5, 3))), b)
    with pytest.raises(ContractViolation):
        ad.dense(None, Tensor(np.ones(4)), Tensor(np.ones((4, 3))), b)


BLOCK_WIDTHS = (3, 2, 2)


def block_inputs(seed):
    """A one-row block, a seven-row block and a second one-row block, with
    weights and bias for a (7, 6) dense output."""
    rng = np.random.default_rng(seed)
    return {"row": rng.standard_normal((1, 3)),
            "rows": rng.standard_normal((7, 2)),
            "last": rng.standard_normal((1, 2)),
            "w": rng.standard_normal((sum(BLOCK_WIDTHS), 6)),
            "b": rng.standard_normal(6)}


def tiled_pre_activation(inputs):
    x = np.concatenate([np.repeat(inputs["row"], 7, axis=0), inputs["rows"],
                        np.repeat(inputs["last"], 7, axis=0)], axis=1)
    return x @ inputs["w"] + inputs["b"]


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("wrt", ["row", "rows", "w", "b"])
def test_block_dense_matches_finite_differences(relu, wrt):
    inputs = block_inputs(21)
    # as in the single-block test: both signs, clear of the relu kink
    pre_act = tiled_pre_activation(inputs)
    assert np.abs(pre_act).min() > 1e-3
    assert (pre_act > 0).any() and (pre_act < 0).any()
    fixed = {k: Tensor(v) for k, v in inputs.items() if k != wrt}
    head = Tensor(np.random.default_rng(22).standard_normal((6, 1)))

    def f(tape, v):
        args = dict(fixed, **{wrt: v})
        out = ad.dense(tape, [args["row"], args["rows"], args["last"]], args["w"], args["b"],
                       relu=relu)
        return ad.total(tape, ad.sigmoid(tape, ad.matmul(tape, out, head)))

    err = finite_difference_check(f, inputs[wrt], step=1e-5)
    assert err < 1e-6, err


def test_block_dense_matches_tiled_input():
    inputs = block_inputs(23)
    params = {k: Tensor(v, param=True) for k, v in inputs.items()}
    tape = Tape()
    out = ad.dense(tape, [params["row"], params["rows"], params["last"]],
                   params["w"], params["b"], relu=True)
    assert len(tape.entries) == 1
    assert out.shape == (7, 6)
    assert np.max(np.abs(out.data - np.maximum(tiled_pre_activation(inputs), 0.0))) < 1e-14
    grads = tape.backward(ad.total(tape, out))
    # the tiled rows' gradients summed back onto the one row
    g = (tiled_pre_activation(inputs) > 0).astype(float)
    w_row, w_rows, w_last = np.split(inputs["w"], np.cumsum(BLOCK_WIDTHS)[:-1])
    assert np.allclose(grads[params["row"]], (g @ w_row.T).sum(axis=0, keepdims=True))
    assert np.allclose(grads[params["rows"]], g @ w_rows.T)
    assert np.allclose(grads[params["last"]], (g @ w_last.T).sum(axis=0, keepdims=True))
    assert grads[params["w"]].shape == inputs["w"].shape
    assert np.allclose(grads[params["b"]], g.sum(axis=0))


@pytest.mark.parametrize("one_row", [True, False], ids=["one-row-blocks", "rows-only"])
def test_dense_bias_gradient_has_the_bytes_of_the_column_sum(one_row):
    inputs = block_inputs(26)
    if one_row:
        blocks = [Tensor(inputs[k], param=True) for k in ("row", "rows", "last")]
    else:
        blocks = Tensor(np.random.default_rng(26).standard_normal((7, 7)), param=True)
    w, b = Tensor(inputs["w"], param=True), Tensor(inputs["b"], param=True)
    upstream = np.random.default_rng(27).standard_normal((7, 6))
    tape = Tape()
    out = ad.dense(tape, blocks, w, b, relu=True)
    grads = tape.backward(ad.total(tape, ad.mul(tape, out, Tensor(upstream))))
    want = (upstream * (out.data > 0.0)).sum(axis=0)
    assert grads[b].shape == (6,)
    assert grads[b].tobytes() == want.tobytes()


def test_block_dense_one_row_output_and_constant_blocks():
    rng = np.random.default_rng(24)
    a = Tensor(rng.standard_normal((1, 3)), param=True)
    c = Tensor(rng.standard_normal((1, 2)))
    w = Tensor(rng.standard_normal((5, 4)), param=True)
    b = Tensor(rng.standard_normal(4), param=True)
    tape = Tape()
    out = ad.dense(tape, [a, c], w, b)
    assert out.shape == (1, 4)
    assert np.allclose(out.data, np.concatenate([a.data, c.data], axis=1) @ w.data + b.data)
    assert tape.entries[0].bwd(np.ones((1, 4)))[1] is None
    grads = tape.backward(ad.total(tape, out))
    assert set(grads) == {a, w, b}


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("rows", [1, 7])
def test_single_block_dense_is_byte_equal_to_matmul_plus_bias(relu, rows):
    rng = np.random.default_rng(25 + rows)
    x, w, b = rng.standard_normal((rows, 5)), rng.standard_normal((5, 3)), rng.standard_normal(3)
    want = x @ w + b
    if relu:
        want = np.maximum(want, 0.0)
    for arg in (Tensor(x), [Tensor(x)], x):
        got = ad.dense(None, arg, Tensor(w), Tensor(b), relu=relu)
        assert got.data.tobytes() == want.tobytes()


@pytest.mark.parametrize("blocks", [
    [np.ones(3), np.ones((4, 2))],  # a 1-D block
    [np.ones((4, 2, 1)), np.ones((4, 3))],  # a 3-D block
    [np.ones((1, 2)), np.ones((4, 2))],  # widths sum to 4, w has 5 rows
    [np.ones((4, 2)), np.ones((3, 3))],  # two many-row blocks of 4 and 3 rows
    [],
])
def test_block_dense_rejects_bad_blocks(blocks):
    with pytest.raises(ContractViolation):
        ad.dense(None, [Tensor(x) for x in blocks], Tensor(np.ones((5, 3))),
                 Tensor(np.zeros(3)))


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
