import numpy as np
import pytest

from gsaudio.autodiff import RowSparse, Tensor
from gsaudio.errors import ContractViolation
from gsaudio.optim import BETA1, BETA2, EPS, Adam, RowAdam


def make_param(value):
    return Tensor(np.asarray(value, dtype=np.float64), param=True)


def row_sparse(g, rows):
    """Rows ``rows`` of the dense gradient ``g`` as a row-sparse gradient."""
    return RowSparse(rows, g[rows], g.shape)


def test_first_step_magnitude():
    p = make_param([0.0])
    opt = Adam([p], lr=0.1)
    opt.step({p: np.array([1.0])})
    delta = abs(p.data[0])
    assert 0.0999 <= delta <= 0.1
    assert p.data[0] < 0  # moves against the gradient


def test_zero_gradient_leaves_parameter_unchanged():
    p = make_param([1.5, -2.0])
    opt = Adam([p], lr=0.1)
    opt.step({p: np.zeros(2)})
    assert np.array_equal(p.data, [1.5, -2.0])


def test_opposite_gradients_give_mirrored_updates():
    a = make_param([0.3])
    b = make_param([0.3])
    opt_a = Adam([a], lr=0.05)
    opt_b = Adam([b], lr=0.05)
    g = np.array([0.7])
    opt_a.step({a: g})
    opt_b.step({b: -g})
    da = a.data[0] - 0.3
    db = b.data[0] - 0.3
    assert da == pytest.approx(-db, abs=1e-15)


def test_shape_mismatch_rejected():
    p = make_param(np.zeros((2, 2)))
    opt = Adam([p], lr=1e-3)
    with pytest.raises(ContractViolation):
        opt.step({p: np.zeros(3)})


def test_step_counter_and_moments_track_shape():
    p = make_param(np.zeros((3, 4)))
    opt = Adam([p], lr=1e-3)
    for i in range(1, 4):
        opt.step({p: np.full((3, 4), 0.1)})
        [t] = opt.t
        assert type(t) is int and t == i
        assert opt.m[0].shape == (3, 4)
        assert opt.v[0].shape == (3, 4)


def test_untracked_gradients_ignored():
    p = make_param([1.0])
    stranger = make_param([1.0])
    opt = Adam([p], lr=0.1)
    opt.step({stranger: np.array([1.0])})
    assert p.data[0] == 1.0
    assert stranger.data[0] == 1.0


def per_tensor_step(row, g, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference: one lazy update of a single (1, K) tensor with its own
    moments and step count."""
    row["t"] += 1
    row["m"] = beta1 * row["m"] + (1.0 - beta1) * g
    row["v"] = beta2 * row["v"] + (1.0 - beta2) * (g * g)
    m_hat = row["m"] / (1.0 - beta1 ** row["t"])
    v_hat = row["v"] / (1.0 - beta2 ** row["t"])
    row["data"] = row["data"] - lr * m_hat / (np.sqrt(v_hat) + eps)


def fresh_row(data):
    return {"data": data.copy(), "m": np.zeros_like(data), "v": np.zeros_like(data), "t": 0}


class RowCase:
    """An (N, K) parameter stepped on row subsets next to N separate (1, K)
    tensors stepped one by one."""

    lr = 3e-3

    def __init__(self, rng, n, k):
        self.rng = rng
        init = rng.standard_normal((n, k))
        self.p = make_param(init.copy())
        self.opt = RowAdam(self.p, lr=self.lr)
        self.rows = [fresh_row(init[i : i + 1]) for i in range(n)]

    def steps(self, count):
        for _ in range(count):
            n = len(self.rows)
            active = np.sort(self.rng.choice(n, size=int(self.rng.integers(1, n + 1)),
                                             replace=False))
            g = self.rng.standard_normal(self.p.data.shape)
            self.opt.step({self.p: row_sparse(g, active)})
            for i in active:
                per_tensor_step(self.rows[i], g[i : i + 1], self.lr)
            self.check()

    def check(self):
        for key, got in (("data", self.p.data), ("m", self.opt.m), ("v", self.opt.v)):
            assert np.array_equal(got, np.concatenate([r[key] for r in self.rows])), key
        assert np.array_equal(self.opt.t, [r["t"] for r in self.rows])


def test_row_steps_equal_per_tensor_steps_bit_for_bit():
    case = RowCase(np.random.default_rng(11), n=7, k=5)
    case.steps(15)
    # rows outside a step's set kept their counts, so the counts now differ
    assert len({r["t"] for r in case.rows}) > 2


def out_of_place_step(opt, p, m, v, t, g, rows):
    """Reference: the out-of-place update of the parameter's ``rows``, the
    formula the in-place step must reproduce byte for byte."""
    g = g[rows]
    t[rows] += 1
    m_rows = BETA1 * m[rows] + (1.0 - BETA1) * g
    v_rows = BETA2 * v[rows] + (1.0 - BETA2) * (g * g)
    m[rows] = m_rows
    v[rows] = v_rows
    shape = (-1,) + (1,) * (p.ndim - 1)
    c1 = np.array([1.0 - BETA1 ** int(s) for s in t[rows]]).reshape(shape)
    c2 = np.array([1.0 - BETA2 ** int(s) for s in t[rows]]).reshape(shape)
    p[rows] = p[rows] - opt.lr * (m_rows / c1) / (np.sqrt(v_rows / c2) + EPS)


@pytest.mark.parametrize("row_steps", [False, True])
def test_in_place_step_is_byte_equal_to_out_of_place_formula(row_steps):
    rng = np.random.default_rng(21)
    params = [make_param(rng.standard_normal((9, 4)))]
    if row_steps:
        opt = RowAdam(params[0], lr=2e-3)
    else:
        params.append(make_param(rng.standard_normal(9)))
        opt = Adam(params, lr=2e-3)
    ref = [(p.data.copy(), np.zeros(p.data.shape), np.zeros(p.data.shape),
            np.zeros(9, dtype=np.int64)) for p in params]
    for _ in range(40):
        grads = {p: rng.standard_normal(p.data.shape) for p in params}
        rows = (np.sort(rng.choice(9, size=int(rng.integers(1, 10)), replace=False))
                if row_steps else None)
        opt.step(grads if rows is None else {p: row_sparse(g, rows) for p, g in grads.items()})
        for p, state in zip(params, ref):
            out_of_place_step(opt, *state, grads[p], slice(None) if rows is None else rows)
    # a whole-parameter count stands for each of its rows' counts
    states = ([(opt.m, opt.v, opt.t)] if row_steps else
              [(m, v, np.full(9, t)) for m, v, t in zip(opt.m, opt.v, opt.t)])
    for p, (data, m, v, t), (m_got, v_got, t_got) in zip(params, ref, states):
        for got, want in ((p.data, data), (m_got, m), (v_got, v), (t_got, t)):
            assert got.tobytes() == want.tobytes()


def test_row_at_a_huge_step_count_steps_with_the_out_of_place_bytes():
    # a count is no table index: a row at 10**12 steps at once, with 1 - beta ** t
    rng = np.random.default_rng(23)
    p = make_param(rng.standard_normal((5, 3)))
    opt = RowAdam(p, lr=2e-3)
    opt.t[:] = [10**12 - 1, 0, 7, 10**12 - 1, 2]
    opt.m[:] = rng.standard_normal((5, 3))
    opt.v[:] = rng.uniform(0.0, 1.0, (5, 3))
    ref = (p.data.copy(), opt.m.copy(), opt.v.copy(), opt.t.copy())
    g = rng.standard_normal((5, 3))
    rows = np.array([0, 2, 3])
    opt.step({p: row_sparse(g, rows)})
    out_of_place_step(opt, *ref, g, rows)
    assert opt.t[0] == 10**12
    for got, want in zip((p.data, opt.m, opt.v, opt.t), ref):
        assert got.tobytes() == want.tobytes()


def test_reindex_appends_and_drops_rows():
    rng = np.random.default_rng(12)
    case = RowCase(rng, n=5, k=3)
    case.steps(6)
    new = rng.uniform(-0.01, 0.01, (3, 3))
    case.p.data = np.concatenate([case.p.data, new])
    case.opt.reindex(slice(None), 3)
    case.rows += [fresh_row(new[j : j + 1]) for j in range(3)]
    case.check()
    case.steps(6)
    keep = np.array([0, 2, 5, 6, 7])
    case.p.data = case.p.data[keep]
    case.opt.reindex(keep)
    case.rows = [case.rows[i] for i in keep]
    case.check()
    case.steps(6)


def test_rows_outside_the_step_are_untouched():
    p = make_param(np.ones((4, 2)))
    opt = RowAdam(p, lr=0.1)
    opt.step({p: row_sparse(np.ones((4, 2)), np.array([1, 3]))})
    m, v, t = opt.m, opt.v, opt.t
    assert np.array_equal(t, [0, 1, 0, 1])
    assert np.array_equal(p.data[[0, 2]], np.ones((2, 2)))
    assert np.all(m[[0, 2]] == 0.0) and np.all(v[[0, 2]] == 0.0)
    assert np.all(p.data[[1, 3]] < 1.0)


def test_state_round_trip_bit_identical():
    rng = np.random.default_rng(0)
    p1, p2 = make_param(rng.standard_normal(4)), make_param(rng.standard_normal((2, 2)))
    opt = Adam([p1, p2], lr=3e-3)
    for _ in range(5):
        opt.step({p1: rng.standard_normal(4), p2: rng.standard_normal((2, 2))})
    q1, q2 = make_param(p1.data.copy()), make_param(p2.data.copy())
    clone = Adam([q1, q2], lr=3e-3)
    clone.m = [m.copy() for m in opt.m]
    clone.v = [v.copy() for v in opt.v]
    clone.t = list(opt.t)
    g1, g2 = rng.standard_normal(4), rng.standard_normal((2, 2))
    opt.step({p1: g1, p2: g2})
    clone.step({q1: g1, q2: g2})
    assert np.array_equal(p1.data, q1.data)
    assert np.array_equal(p2.data, q2.data)


def test_version_starts_at_zero():
    assert make_param([1.0]).version == 0
    assert Tensor(np.zeros(3)).version == 0


def test_step_bumps_version_once_per_written_parameter():
    p, q, idle = make_param(np.zeros((3, 2))), make_param([0.5]), make_param([2.0])
    alphas = make_param(np.zeros((3, 2)))
    opt, opt_rows = Adam([p, q, idle], lr=0.1), RowAdam(alphas, lr=0.1)
    for i in range(1, 4):
        grads = {p: np.ones((3, 2)), q: np.ones(1),
                 alphas: row_sparse(np.ones((3, 2)), np.array([0]))}
        opt.step(grads)
        opt_rows.step(grads)
        assert (p.version, q.version, alphas.version) == (i, i, i)
    # a parameter without a gradient entry is not written and keeps its version
    assert idle.version == 0
    assert idle.data[0] == 2.0
    opt_rows.step({p: np.ones((3, 2))})
    assert alphas.version == 3


def test_adam_refuses_a_row_sparse_gradient():
    p = make_param(np.ones((4, 2)))
    opt = Adam([p], lr=0.1)
    with pytest.raises(ContractViolation, match="dense gradients only"):
        opt.step({p: row_sparse(np.ones((4, 2)), np.array([1]))})
    assert np.array_equal(p.data, np.ones((4, 2))) and opt.t == [0]


@pytest.mark.parametrize("case", ["dense", "wrong-shape"])
def test_row_adam_refuses_a_gradient_of_another_form_or_shape(case):
    p = make_param(np.ones((4, 2)))
    opt = RowAdam(p, lr=0.1)
    g = (np.ones((4, 2)) if case == "dense" else
         RowSparse(np.array([1]), np.ones((1, 3)), (4, 3)))
    with pytest.raises(ContractViolation):
        opt.step({p: g})
    assert np.array_equal(p.data, np.ones((4, 2))) and not opt.t.any()


@pytest.mark.parametrize("value", [np.ones(4), np.ones((2, 2, 2))])
def test_row_adam_tracks_only_a_parameter_matrix(value):
    with pytest.raises(ContractViolation, match="2-D"):
        RowAdam(make_param(value), lr=0.1)
    with pytest.raises(ContractViolation):
        RowAdam(Tensor(np.ones((4, 2))), lr=0.1)  # not a parameter
