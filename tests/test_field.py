import numpy as np

from gsaudio import autodiff as ad
from gsaudio.autodiff import Tensor, finite_difference_check
from gsaudio.field import FieldNetwork, guidance_rows, pooled_context
from gsaudio.scene import Pose


def guidance(point, anchor):
    return guidance_rows(np.asarray(point, dtype=np.float64).reshape(1, 3), anchor)[0]


def forward_one(net, alpha, g):
    """Context of one point: the field forward on a single (alpha, guidance) row."""
    return net.forward(None, Tensor(np.concatenate([alpha, g])[None, :])).data[0]


def alpha_rows(alphas):
    """Per-point (1, K) tensors, the form SceneModel passes to pooled_context."""
    return [Tensor(row[None, :]) for row in alphas]


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


def test_zero_weight_network_gives_zero_context():
    net = FieldNetwork(alpha_dim=52, seed=0)
    for p in net.params():
        p.data = np.zeros_like(p.data)
    out = forward_one(net, np.random.default_rng(2).standard_normal(52), np.array([1.0, 0, 0]))
    assert np.array_equal(out, np.zeros(64))


def test_forward_deterministic():
    net = FieldNetwork(alpha_dim=52, seed=1)
    rng = np.random.default_rng(3)
    alpha = rng.standard_normal(52)
    g = guidance(rng.standard_normal(3), np.zeros(3))
    assert np.array_equal(forward_one(net, alpha, g), forward_one(net, alpha, g))


def test_forward_matches_naive():
    net = FieldNetwork(alpha_dim=52, seed=2)
    rng = np.random.default_rng(4)
    alpha = rng.standard_normal(52)
    g = rng.standard_normal(3)
    g /= np.linalg.norm(g)
    got = forward_one(net, alpha, g)
    x = np.concatenate([alpha, g])
    h = np.maximum(x @ net.w1.data + net.b1.data, 0.0)
    want = h @ net.w2.data + net.b2.data
    assert np.max(np.abs(got - want)) < 1e-12


def make_scene(n=50, alpha_dim=52, seed=5):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0, 4, (n, 3))
    alphas = rng.standard_normal((n, alpha_dim)) * 0.4
    net = FieldNetwork(alpha_dim=alpha_dim, seed=seed)
    listener = Pose.from_yaw(rng.uniform(0.5, 3.5, 3), 0.3)
    source = rng.uniform(0.5, 3.5, 3)
    return positions, alphas, net, listener, source


def test_pooled_context_of_one_point_equals_forward():
    positions = np.array([[1.0, 1.0, 1.0]])
    rng = np.random.default_rng(6)
    alphas = rng.standard_normal((1, 52))
    net = FieldNetwork(alpha_dim=52, seed=6)
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
        Pose(position=listener.position + shift, direction=listener.direction),
        source + shift, 15).vector()
    assert np.max(np.abs(base - moved)) < 1e-12


def test_pooled_context_differentiable_in_alpha():
    positions, _, net, listener, source = make_scene(n=8)
    rng = np.random.default_rng(8)
    alpha0 = rng.standard_normal((8, 52)) * 0.4

    def _row(tape, block, i):
        # pick row i with a selector matmul, keeping gradients exact
        sel = np.zeros((1, 8))
        sel[0, i] = 1.0
        return ad.matmul(tape, Tensor(sel), block)

    def f(tape, alpha_block):
        ctx = pooled_context(tape, net, positions,
                             [_row(tape, alpha_block, i) for i in range(8)],
                             listener, source, 50)
        return ad.mean(tape, ad.square(tape, ctx.tensor))

    err = finite_difference_check(f, alpha0, step=1e-5)
    assert err < 1e-4


def test_field_checkpoint_round_trip(tmp_path):
    net = FieldNetwork(alpha_dim=52, seed=9)
    path = tmp_path / "field.bin"
    net.save(path)
    back = FieldNetwork.load(path)
    rng = np.random.default_rng(10)
    alpha = rng.standard_normal(52)
    g = guidance(rng.standard_normal(3), np.zeros(3))
    assert np.array_equal(forward_one(net, alpha, g), forward_one(back, alpha, g))
