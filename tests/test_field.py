import numpy as np
import pytest

from gsaudio import autodiff as ad
from gsaudio.autodiff import Tape, Tensor, finite_difference_check
from gsaudio.binauralizer import MaskNetwork
from gsaudio.errors import ContractViolation
from gsaudio.field import (COINCIDENT_EPS, FieldNetwork, anchor_context, guidance_rows,
                           pooled_context)
from gsaudio.model import SceneModel
from gsaudio.scene import Pose

from conftest import rewrite_model_bin, save_model_around


def guidance(point, anchor):
    return guidance_rows(np.asarray(point, dtype=np.float64).reshape(1, 3), anchor)[0]


def forward_one(net, alpha, g):
    """Context of one point: the field forward on a single (alpha, guidance) row."""
    return net.forward(None, Tensor(alpha[None, :]), Tensor(g[None, :])).data[0]


def split_blocks(net, x):
    """The (alpha, guidance) column blocks of the joined rows ``x``."""
    return Tensor(x.data[:, :net.alpha_dim]), Tensor(x.data[:, net.alpha_dim:])


def alpha_rows(alphas):
    """The (N, K) alpha tensor, the form SceneModel passes to pooled_context."""
    return Tensor(alphas, param=True)


def test_guidance_unit_x():
    assert np.allclose(guidance([1, 0, 0], [0, 0, 0]), [1, 0, 0])


def test_guidance_three_four_five():
    assert np.allclose(guidance([3, 4, 0], [0, 0, 0]), [0.6, 0.8, 0.0])


def test_guidance_antisymmetric():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(guidance(a, b), -guidance(b, a), atol=1e-12)


def test_guidance_unit_norm():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = guidance(rng.standard_normal(3) * 5, rng.standard_normal(3))
        assert abs(np.linalg.norm(g) - 1.0) < 1e-9


def test_guidance_rows_substitute_zero_for_coincident():
    positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    rows = guidance_rows(positions, np.zeros(3))
    assert np.array_equal(rows[0], [0.0, 0.0, 0.0])
    assert np.allclose(rows[1], [1.0, 0.0, 0.0])


def norm_guidance_rows(positions, anchor):
    """The row-norm form of ``guidance_rows``: ``np.linalg.norm`` over axis 1."""
    diff = positions - anchor
    norms = np.linalg.norm(diff, axis=1, keepdims=True)
    degenerate = norms[:, 0] < COINCIDENT_EPS
    rows = diff / np.where(degenerate[:, None], 1.0, norms)
    rows[degenerate] = 0.0
    return rows


def test_guidance_rows_match_the_norm_form_at_32768():
    rng = np.random.default_rng(31)
    positions = np.round(rng.uniform(0.0, 3.0, (32768, 3)), 1)
    anchor = positions[17].copy()
    positions[100] = anchor + 1e-10  # closer than COINCIDENT_EPS, not equal
    got = guidance_rows(positions, anchor)
    coincident = np.flatnonzero(~got.any(axis=1))
    assert coincident.size > 2 and 17 in coincident and 100 in coincident
    assert got.tobytes() == norm_guidance_rows(positions, anchor).tobytes()
    vicinity_rows = positions[:4916]
    assert (guidance_rows(vicinity_rows, anchor).tobytes()
            == norm_guidance_rows(vicinity_rows, anchor).tobytes())


def test_zero_weight_network_gives_zero_context():
    net = FieldNetwork(alpha_dim=52, rng=np.random.default_rng(0))
    for p in net.params():
        p.data = np.zeros_like(p.data)
    out = forward_one(net, np.random.default_rng(2).standard_normal(52), np.array([1.0, 0, 0]))
    assert np.array_equal(out, np.zeros(64))


def test_forward_deterministic():
    net = FieldNetwork(alpha_dim=52, rng=np.random.default_rng(1))
    rng = np.random.default_rng(3)
    alpha = rng.standard_normal(52)
    g = guidance(rng.standard_normal(3), np.zeros(3))
    assert np.array_equal(forward_one(net, alpha, g), forward_one(net, alpha, g))


def test_forward_matches_naive():
    net = FieldNetwork(alpha_dim=52, rng=np.random.default_rng(2))
    rng = np.random.default_rng(4)
    alpha = rng.standard_normal(52)
    g = rng.standard_normal(3)
    g /= np.linalg.norm(g)
    got = forward_one(net, alpha, g)
    x = np.concatenate([alpha, g])
    h = np.maximum(x @ net.w1.data + net.b1.data, 0.0)
    want = h @ net.w2.data + net.b2.data
    assert np.max(np.abs(got - want)) < 1e-12


def per_row_mean_context(net, x):
    """The mean of the per-row contexts: the second layer on every row, then
    the mean over the rows."""
    h = np.maximum(x @ net.w1.data + net.b1.data, 0.0)
    return (h @ net.w2.data + net.b2.data).mean(axis=0)


def test_forward_applies_the_second_layer_to_one_pooled_row():
    net = FieldNetwork(alpha_dim=52, rng=np.random.default_rng(12))
    x = Tensor(np.random.default_rng(12).standard_normal((40, 55)))
    tape = Tape()
    out = net.forward(tape, *split_blocks(net, x))
    assert [e.op for e in tape.entries] == ["dense", "mean", "dense"]
    first, _, second = tape.entries
    assert [t.shape for t in first.inputs[:2]] == [(40, 52), (40, 3)]
    assert second.inputs[0].shape == (1, 64)
    assert out.shape == (1, 64)


@pytest.mark.parametrize("name", ["w1", "b1", "w2", "b2"])
def test_pooled_forward_gradients_match_finite_differences(name):
    net = FieldNetwork(alpha_dim=5, rng=np.random.default_rng(13))
    rng = np.random.default_rng(13)
    for b in (net.b1, net.b2):  # nonzero biases, so their gradients are exercised
        b.data = rng.standard_normal(b.shape) * 0.3
    x = Tensor(rng.standard_normal((6, 8)))
    weights = Tensor(rng.standard_normal((1, 64)))
    original = getattr(net, name)

    def f(tape, p):
        setattr(net, name, p)
        try:
            out = net.forward(tape, *split_blocks(net, x))
        finally:
            setattr(net, name, original)
        return ad.total(tape, ad.mul(tape, out, weights))

    # piecewise linear in each parameter: a wide step adds no truncation
    # error while it crosses no relu kink, and it shrinks the round-off
    err = finite_difference_check(f, original.data, step=1e-4)
    assert err < 1e-6, f"{name}: {err}"


def test_forward_matches_the_per_row_mean_on_a_4916_row_vicinity():
    rng = np.random.default_rng(14)
    positions = rng.uniform(0.0, 6.0, (32768, 3))
    alphas = rng.standard_normal((32768, 52)) * 0.4
    net = FieldNetwork(alpha_dim=52, rng=np.random.default_rng(14))
    anchor = np.array([2.5, 1.7, 1.2])
    got, indices = anchor_context(None, net, positions, alpha_rows(alphas), anchor, 15.0)
    assert indices.size == 4916
    x = np.concatenate([alphas[indices], guidance_rows(positions[indices], anchor)], axis=1)
    want = per_row_mean_context(net, x)
    assert got.shape == (1, 64)
    assert np.max(np.abs(got.data[0] - want)) <= 1e-12


def make_scene(n=50, alpha_dim=52, seed=5):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0, 4, (n, 3))
    alphas = rng.standard_normal((n, alpha_dim)) * 0.4
    net = FieldNetwork(alpha_dim=alpha_dim, rng=np.random.default_rng(seed))
    listener = Pose.from_yaw(rng.uniform(0.5, 3.5, 3), 0.3)
    source = rng.uniform(0.5, 3.5, 3)
    return positions, alphas, net, listener, source


def test_pooled_context_of_one_point_equals_forward():
    positions = np.array([[1.0, 1.0, 1.0]])
    rng = np.random.default_rng(6)
    alphas = rng.standard_normal((1, 52))
    net = FieldNetwork(alpha_dim=52, rng=np.random.default_rng(6))
    listener = Pose.from_yaw([2.0, 2.0, 2.0], 0.0)
    source = np.array([0.0, 0.0, 0.0])
    ctx = pooled_context(None, net, positions, alpha_rows(alphas), listener, source, 100)
    c_s = forward_one(net, alphas[0], guidance(positions[0], source))
    c_l = forward_one(net, alphas[0], guidance(positions[0], listener.position))
    assert np.allclose(ctx.vector(), np.concatenate([c_s, c_l]), atol=1e-12)
    assert ctx.width == 128


def test_pooled_context_shuffle_invariant():
    positions, alphas, net, listener, source = make_scene()
    base = pooled_context(None, net, positions, alpha_rows(alphas), listener, source,
                          20).vector()
    rng = np.random.default_rng(7)
    perm = rng.permutation(len(positions))
    shuffled = pooled_context(None, net, positions[perm], alpha_rows(alphas[perm]), listener,
                              source, 20).vector()
    assert np.max(np.abs(base - shuffled)) < 1e-12


def test_pooled_context_matches_naive_recomputation():
    positions, alphas, net, listener, source = make_scene()
    ctx = pooled_context(None, net, positions, alpha_rows(alphas), listener, source, 20)

    def naive(anchor):
        d2 = ((positions - anchor) ** 2).sum(axis=1)
        order = np.lexsort((np.arange(len(positions)), d2))[: int(np.ceil(0.2 * len(positions)))]
        acc = np.zeros(64)
        for i in np.sort(order):
            acc += forward_one(net, alphas[i], guidance(positions[i], anchor))
        return acc / len(order)

    want = np.concatenate([naive(source), naive(listener.position)])
    assert np.max(np.abs(ctx.vector() - want)) < 1e-12


def test_pooled_context_translation_invariant():
    positions, alphas, net, listener, source = make_scene()
    shift = np.array([3.3, -1.2, 0.7])
    base = pooled_context(None, net, positions, alpha_rows(alphas), listener, source,
                          15).vector()
    moved = pooled_context(
        None, net, positions + shift, alpha_rows(alphas),
        Pose.from_yaw(listener.position + shift, listener.yaw),
        source + shift, 15).vector()
    assert np.max(np.abs(base - moved)) < 1e-12


def test_pooled_context_differentiable_in_alpha():
    positions, _, net, listener, source = make_scene(n=8)
    rng = np.random.default_rng(8)
    alpha0 = rng.standard_normal((8, 52)) * 0.4

    def f(tape, alpha_block):
        ctx = pooled_context(tape, net, positions, alpha_block, listener, source, 50)
        return ad.mean(tape, ad.square(tape, ctx.tensor))

    err = finite_difference_check(f, alpha0, step=1e-5)
    assert err < 1e-4


def test_field_checkpoint_round_trip(tmp_path):
    net = FieldNetwork(alpha_dim=52, rng=np.random.default_rng(9))
    masknet = MaskNetwork(mode="binaural", rng=np.random.default_rng(9))
    back = SceneModel.load(save_model_around(tmp_path, net, masknet)).field
    rng = np.random.default_rng(10)
    alpha = rng.standard_normal(52)
    g = guidance(rng.standard_normal(3), np.zeros(3))
    assert np.array_equal(forward_one(net, alpha, g), forward_one(back, alpha, g))


def test_partial_field_checkpoint_rejected(tmp_path):
    save_model_around(tmp_path, FieldNetwork(alpha_dim=52, rng=np.random.default_rng(9)),
                      MaskNetwork(mode="binaural", rng=np.random.default_rng(9)))
    rewrite_model_bin(tmp_path, lambda named: named[:3])
    with pytest.raises(ContractViolation, match="3 tensors"):
        SceneModel.load(tmp_path)


def test_field_checkpoint_of_another_width_rejected(tmp_path):
    rng = np.random.default_rng(11)
    save_model_around(tmp_path, FieldNetwork(alpha_dim=52, rng=np.random.default_rng(9)),
                      MaskNetwork(mode="binaural", rng=np.random.default_rng(9)))
    shapes = {"field.w1": (55, 32), "field.b1": (32,), "field.w2": (32, 32), "field.b2": (32,)}
    rewrite_model_bin(tmp_path, lambda named: [
        (name, rng.standard_normal(shapes[name]) if name in shapes else a) for name, a in named])
    with pytest.raises(ContractViolation, match="field.w1"):
        SceneModel.load(tmp_path)
