"""The fused, factorized layers against the composition they replace.

The reference builds each layer as ``ad.matmul``, ``ad.add`` and ``ad.relu``
and feeds the mask networks a tiled input: the per-request rows repeated
over every output row (a zero block plus the row) and concatenated with the
varying block. The field network's first layer takes two column blocks
(alpha rows, guidance rows); the reference zero-pads each block to the full
input width with ``ad.concat``, multiplies each by the whole ``w1`` and adds
the two products, then the bias. The field network's layers keep the
reference's bits, so the context and a context-only loss's gradients do
too. The mask
networks multiply the per-request row once and add it to every row, which
sums layer 1 in another order: masks and amplitudes match to
``OUTPUT_ATOL``, and every gradient that flows back through them (the field
network's included) to ``GRAD_RTOL`` of its array's max |value|.
"""

import numpy as np
import pytest

from gsaudio import autodiff as ad
from gsaudio.autodiff import Tape, Tensor
from gsaudio.binauralizer import MaskNetwork, _encode_direction, positional_encoding
from gsaudio.dsp import Waveform, stft
from gsaudio.field import FieldNetwork
from gsaudio.model import SceneModel
from gsaudio.scene import Pose, init_audio_points, synthetic_cloud
from gsaudio.training import loss_reconstruction, loss_volume, total_loss

from conftest import dense_form

OUTPUT_ATOL = 1e-15
GRAD_RTOL = 1e-13


def zero_padded(tape, block, left, right):
    """``block`` with ``left`` zero columns before it and ``right`` after."""
    n = block.shape[0]
    return ad.concat(tape, [Tensor(np.zeros((n, left))), block, Tensor(np.zeros((n, right)))])


def unfused_forward(self, tape, alpha_rows, guidance):
    k, g = alpha_rows.shape[1], guidance.shape[1]
    products = [ad.matmul(tape, zero_padded(tape, alpha_rows, 0, g), self.w1),
                ad.matmul(tape, zero_padded(tape, guidance, k, 0), self.w1)]
    h = ad.relu(tape, ad.add(tape, ad.add(tape, *products), self.b1))
    pooled = ad.mean(tape, h, axis=0, keepdims=True)
    return ad.add(tape, ad.matmul(tape, pooled, self.w2), self.b2)


def unfused_layer(tape, layer, x):
    w, b = layer
    return ad.add(tape, ad.matmul(tape, x, w), b)


def unfused_backbone(tape, layers, x):
    l1, l2, l3, l4 = layers
    h1 = ad.relu(tape, unfused_layer(tape, l1, x))
    h2 = ad.relu(tape, unfused_layer(tape, l2, h1))
    h3 = ad.relu(tape, ad.add(tape, unfused_layer(tape, l3, h2), h1))
    return unfused_layer(tape, l4, h3)


def tiled_rows(tape, a, n):
    """A (1, C) tensor repeated as ``n`` rows: a zero block plus the row."""
    return ad.add(tape, Tensor(np.zeros((n, a.shape[1]))), a)


def reference_features(net, tape, x):
    return ad.relu(tape, unfused_backbone(tape, (net.l1, net.l2, net.l3, net.l4), x))


def reference_head(net, tape, x):
    z = unfused_backbone(tape, (net.m1, net.m2, net.m3, net.m4), x)
    return ad.sub(tape, ad.scale(tape, ad.sigmoid(tape, z), 2.0), Tensor(np.array(1.0)))


def reference_mask_tensors(self, tape, xy01, theta, context, n_bins):
    f_norm = np.arange(n_bins) / max(n_bins - 1, 1)
    enc_xy = np.tile(positional_encoding(xy01), (n_bins, 1))
    enc_f = positional_encoding(f_norm[:, None])
    x1 = ad.concat(tape, [Tensor(enc_xy), Tensor(enc_f), tiled_rows(tape, context, n_bins)])
    feats = reference_features(self, tape, x1)
    mixture = ad.scale(tape, ad.sigmoid(tape, unfused_layer(tape, self.mix_proj, feats)), 2.0)
    enc_dir = np.tile(_encode_direction(theta), (n_bins, 1))
    x2 = ad.concat(tape, [feats, Tensor(enc_dir)])
    return mixture, reference_head(self, tape, x2)


def reference_rir_tensor(self, tape, xy01, theta, context, times01):
    enc_xy = positional_encoding(xy01)[None, :]
    feats = reference_features(self, tape, ad.concat(tape, [Tensor(enc_xy), context]))
    t = np.asarray(times01, dtype=np.float64).reshape(-1, 1)
    n = t.shape[0]
    enc_dir = np.tile(_encode_direction(theta), (n, 1))
    enc_t = positional_encoding(t)
    x2 = ad.concat(tape, [tiled_rows(tape, feats, n), Tensor(enc_dir), Tensor(enc_t)])
    return reference_head(self, tape, x2)


def patch_reference(m):
    """Swap the reference composition in through the monkeypatch ``m``."""
    m.setattr(FieldNetwork, "forward", unfused_forward)
    m.setattr(MaskNetwork, "mask_tensors", reference_mask_tensors)
    m.setattr(MaskNetwork, "rir_tensor", reference_rir_tensor)


def make_model(mode, seed=5, n_points=512):
    rng = np.random.default_rng(seed)
    points = init_audio_points(synthetic_cloud([0, 0, 0], [6, 4, 3], n_points, rng))
    # spread the alphas so the volume term and every alpha gradient are busy
    points.alpha += rng.standard_normal(points.alpha.shape) * 0.3
    return SceneModel(points=points, field=FieldNetwork(alpha_dim=52, rng=rng),
                      masknet=MaskNetwork(mode=mode, rng=rng),
                      source=np.array([1.8, 2.0, 1.5]),
                      bounds=(np.zeros(3), np.array([6.0, 4.0, 3.0])), seed=seed)


def binaural_step(model, pose, mono):
    """The forward and backward of a binaural train step."""
    tape = Tape()
    ctx = model.context(tape, pose)
    mixture, difference, _ = model.mask_tensors(tape, pose, context=ctx)
    mag = np.abs(stft(mono).bins)
    gains = np.random.default_rng(9).uniform(0.0, 2.0, (mag.shape[0], 3))
    pred_m = ad.mul(tape, mixture, mag)
    pred_d = ad.mul(tape, difference, mag)
    pred_l = ad.scale(tape, ad.add(tape, pred_m, pred_d), 0.5)
    pred_r = ad.scale(tape, ad.sub(tape, pred_m, pred_d), 0.5)
    l_m = loss_reconstruction(tape, pred_m, pred_l, pred_r, mag * gains[:, :1],
                              mag * gains[:, 1:2], mag * gains[:, 2:])
    active = np.union1d(ctx.listener_indices, ctx.source_indices)
    loss = total_loss(tape, l_m, loss_volume(tape, model.alphas, active), 0.1)
    outputs = {"context": ctx.tensor.data, "mixture": mixture.data,
               "difference": difference.data}
    return tape, loss, outputs


def rir_step(model, pose, mono):
    """The forward and backward of an impulse-response train step."""
    tape = Tape()
    times01 = np.sort(np.random.default_rng(10).choice(800, 96, replace=False)) / 800
    amp, ctx = model.rir_tensor(tape, pose, times01)
    target = np.random.default_rng(11).standard_normal((96, 1)) * 0.1
    active = np.union1d(ctx.listener_indices, ctx.source_indices)
    loss = total_loss(tape, ad.mse(tape, amp, Tensor(target)),
                      loss_volume(tape, model.alphas, active), 0.1)
    return tape, loss, {"context": ctx.tensor.data, "amplitude": amp.data}


def context_step(model, pose, mono):
    """A loss on the context alone, so only the field network's layers run."""
    tape = Tape()
    ctx = model.context(tape, pose)
    active = np.union1d(ctx.listener_indices, ctx.source_indices)
    loss = total_loss(tape, ad.mean(tape, ad.square(tape, ctx.tensor)),
                      loss_volume(tape, model.alphas, active), 0.1)
    return tape, loss, {"context": ctx.tensor.data}


def run(model, step, pose, mono):
    tape, loss, outputs = step(model, pose, mono)
    grads = tape.backward(loss)
    params = model.network_params() + [model.alphas]
    outputs.update({f"grad {p.name}": dense_form(grads[p]) for p in params if p in grads})
    return outputs, [e.op for e in tape.entries]


def fused_and_reference(model, step, monkeypatch):
    """Three poses' outputs and tape ops, fused and then reference."""
    rng = np.random.default_rng(12)
    for _ in range(3):
        pose = Pose.from_yaw(rng.uniform([0.3, 0.3, 1.2], [5.7, 3.7, 1.8]), rng.uniform(-3, 3))
        mono = Waveform(rng.standard_normal(4000) * 0.3, 22050)
        fused = run(model, step, pose, mono)
        with monkeypatch.context() as m:
            patch_reference(m)
            plain = run(model, step, pose, mono)
        yield fused, plain


def test_field_layers_keep_the_bits_of_the_unfused_composition(monkeypatch):
    model = make_model("binaural")
    n_field = len(model.field.params())
    for (fused, fused_ops), (plain, plain_ops) in fused_and_reference(
            model, context_step, monkeypatch):
        assert "dense" in fused_ops and "dense" not in plain_ops
        assert fused.keys() == plain.keys()
        assert len(fused) == 1 + n_field + 1  # context, field and alpha gradients
        for name, value in fused.items():
            assert np.array_equal(value.view(np.uint64), plain[name].view(np.uint64)), name


@pytest.mark.parametrize("mode,step", [("binaural", binaural_step), ("rir", rir_step)])
def test_factorized_layers_match_tiled_unfused_composition(mode, step, monkeypatch):
    model = make_model(mode)
    for (fused, fused_ops), (plain, plain_ops) in fused_and_reference(model, step, monkeypatch):
        assert "dense" in fused_ops and "dense" not in plain_ops
        assert "broadcast_rows" not in fused_ops
        # the only concat left joins the source and listener halves; the
        # reference also pads the alpha block per anchor (the guidance pad
        # has no tracked input, so no entry) and joins two mask inputs
        assert fused_ops.count("concat") == 1
        assert plain_ops.count("concat") == 5
        assert fused.keys() == plain.keys()
        for name, value in fused.items():
            want = plain[name]
            assert value.shape == want.shape, name
            if name == "context":
                assert np.array_equal(value.view(np.uint64), want.view(np.uint64)), name
            elif name.startswith("grad"):
                scale = np.abs(want).max()
                assert np.max(np.abs(value - want)) <= GRAD_RTOL * scale, name
            else:
                assert np.max(np.abs(value - want)) <= OUTPUT_ATOL, name
