"""The fused dense layers and row broadcasts give the bits of the unfused
composition they replace: each layer as ``ad.matmul``, ``ad.add`` and
``ad.relu``, each row broadcast as an add onto a zero block."""

import numpy as np
import pytest

from gsaudio import autodiff as ad
from gsaudio.autodiff import Tape, Tensor
from gsaudio.binauralizer import MaskNetwork
from gsaudio.dsp import Waveform, stft
from gsaudio.field import FieldNetwork
from gsaudio.model import SceneModel
from gsaudio.scene import Pose, init_audio_points, synthetic_cloud
from gsaudio.training import loss_reconstruction, loss_volume, total_loss


def unfused_forward(self, tape, x):
    h = ad.relu(tape, ad.add(tape, ad.matmul(tape, x, self.w1), self.b1))
    return ad.add(tape, ad.matmul(tape, h, self.w2), self.b2)


def unfused_layer(tape, layer, x):
    w, b = layer
    return ad.add(tape, ad.matmul(tape, x, w), b)


def unfused_backbone(self, tape, layers, x):
    l1, l2, l3, l4 = layers
    h1 = ad.relu(tape, unfused_layer(tape, l1, x))
    h2 = ad.relu(tape, unfused_layer(tape, l2, h1))
    h3 = ad.relu(tape, ad.add(tape, unfused_layer(tape, l3, h2), h1))
    return unfused_layer(tape, l4, h3)


def unfused_features(self, tape, x):
    return ad.relu(tape, unfused_backbone(self, tape, (self.l1, self.l2, self.l3, self.l4), x))


def unfused_dense(tape, x, w, b, relu=False):
    out = unfused_layer(tape, (w, b), x)
    return ad.relu(tape, out) if relu else out


def zeros_broadcast_rows(tape, a, n):
    return ad.add(tape, Tensor(np.zeros((n, a.shape[1]))), a)


def patch_unfused(m):
    """Swap the unfused composition in through the monkeypatch ``m``."""
    m.setattr(FieldNetwork, "forward", unfused_forward)
    m.setattr(MaskNetwork, "_backbone", unfused_backbone)
    m.setattr(MaskNetwork, "features", unfused_features)
    m.setattr(ad, "dense", unfused_dense)
    m.setattr(ad, "broadcast_rows", zeros_broadcast_rows)


def make_model(mode, seed=5, n_points=512):
    rng = np.random.default_rng(seed)
    points = init_audio_points(synthetic_cloud([0, 0, 0], [6, 4, 3], n_points, rng))
    # spread the alphas so the volume term and every alpha gradient are busy
    points.alpha += rng.standard_normal(points.alpha.shape) * 0.3
    return SceneModel(points=points, field=FieldNetwork(alpha_dim=52, rng=rng, seed=seed),
                      masknet=MaskNetwork(mode=mode, rng=rng, seed=seed),
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
    ctx = model.context(tape, pose)
    times01 = np.sort(np.random.default_rng(10).choice(800, 96, replace=False)) / 800
    amp, _ = model.rir_tensor(tape, pose, times01, context=ctx)
    target = np.random.default_rng(11).standard_normal((96, 1)) * 0.1
    active = np.union1d(ctx.listener_indices, ctx.source_indices)
    loss = total_loss(tape, ad.mse(tape, amp, Tensor(target)),
                      loss_volume(tape, model.alphas, active), 0.1)
    return tape, loss, {"context": ctx.tensor.data, "amplitude": amp.data}


def run(model, step, pose, mono):
    tape, loss, outputs = step(model, pose, mono)
    grads = tape.backward(loss)
    params = model.network_params() + [model.alphas]
    outputs.update({f"grad {p.name}": grads[p] for p in params})
    return outputs, {e.op for e in tape.entries}


@pytest.mark.parametrize("mode,step", [("binaural", binaural_step), ("rir", rir_step)])
def test_fused_layers_bit_equal_to_unfused_composition(mode, step, monkeypatch):
    model = make_model(mode)
    rng = np.random.default_rng(12)
    for _ in range(3):
        pose = Pose.from_yaw(rng.uniform([0.3, 0.3, 1.2], [5.7, 3.7, 1.8]), rng.uniform(-3, 3))
        mono = Waveform(rng.standard_normal(4000) * 0.3, 22050)
        fused, fused_ops = run(model, step, pose, mono)
        with monkeypatch.context() as m:
            patch_unfused(m)
            plain, plain_ops = run(model, step, pose, mono)
        assert {"dense", "broadcast_rows"} <= fused_ops
        assert not {"dense", "broadcast_rows"} & plain_ops
        assert fused.keys() == plain.keys()
        for name, value in fused.items():
            assert value.shape == plain[name].shape, name
            assert np.array_equal(value.view(np.uint64), plain[name].view(np.uint64)), name
