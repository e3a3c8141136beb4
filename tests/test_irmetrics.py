import numpy as np
import pytest

from gsaudio.dsp import Waveform
from gsaudio.errors import ContractViolation, MetricUndefined
from gsaudio.irmetrics import (C50_CLAMP_DB, estimate_c50, estimate_edt,
                               estimate_t60, rir_metrics)

SR = 22050


def decay_ir(t60, seed=0, length_factor=1.4):
    rng = np.random.default_rng(seed)
    n = int(length_factor * t60 * SR)
    t = np.arange(n) / SR
    return Waveform(np.exp(-6.9075 * t / t60) * rng.standard_normal(n), SR)


def test_identical_responses_have_zero_errors():
    ir = decay_ir(0.4, seed=1)
    errs = rir_metrics(ir, ir)
    assert errs["t60_error_percent"] == 0.0
    assert errs["c50_error_db"] == 0.0
    assert errs["edt_error_sec"] == 0.0


@pytest.mark.parametrize("t60", [0.2, 0.5, 1.0])
def test_t60_estimate_on_synthetic_decay(t60):
    est = estimate_t60(decay_ir(t60, seed=2))
    assert abs(est - t60) / t60 < 0.05


def test_t60_in_stated_window_for_half_second_decay():
    est = estimate_t60(decay_ir(0.5, seed=3))
    assert 0.475 <= est <= 0.525


def test_c50_clamped_when_no_late_energy():
    h = np.zeros(SR)
    h[: int(0.02 * SR)] = np.random.default_rng(4).standard_normal(int(0.02 * SR))
    ir = Waveform(h, SR)
    assert estimate_c50(ir) == C50_CLAMP_DB
    errs = rir_metrics(ir, ir)
    assert errs["c50_error_db"] == 0.0


def test_short_response_raises_metric_undefined():
    # constant energy never spans the -5..-25 dB fit range
    with pytest.raises(MetricUndefined):
        estimate_t60(Waveform(np.ones(64), SR))


def test_silent_response_rejected():
    with pytest.raises(ContractViolation):
        rir_metrics(Waveform(np.zeros(100), SR),
                    Waveform(np.ones(100), SR))


def test_edt_tracks_decay_rate():
    est = estimate_edt(decay_ir(0.5, seed=5))
    assert abs(est - 0.5) / 0.5 < 0.15


def test_errors_are_absolute_differences():
    a = decay_ir(0.3, seed=6)
    b = decay_ir(0.6, seed=7)
    errs = rir_metrics(a, b)
    t60_a, t60_b = estimate_t60(a), estimate_t60(b)
    assert errs["t60_error_percent"] == pytest.approx(abs(t60_a - t60_b) / t60_b * 100)
    assert errs["edt_error_sec"] == pytest.approx(abs(estimate_edt(a) - estimate_edt(b)))
