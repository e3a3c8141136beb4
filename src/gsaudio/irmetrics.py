"""Impulse-response quality metrics: T60, C50, EDT.

T60 and EDT come from the Schroeder backward-integrated energy decay curve;
C50 is the early/late energy ratio split 50 ms after the direct-sound onset.
Onset is the first sample exceeding 1% of the peak magnitude. Responses too
short to reach the required decay range raise MetricUndefined so callers can
exclude them from averages.
"""

from __future__ import annotations

import numpy as np

from .dsp import Waveform
from .errors import ContractViolation, MetricUndefined

C50_CLAMP_DB = 80.0


def onset_index(h):
    h = np.asarray(h, dtype=np.float64)
    peak = np.max(np.abs(h))
    if peak <= 0.0:
        raise ContractViolation("silent impulse response")
    return int(np.argmax(np.abs(h) >= 0.01 * peak))


def schroeder_db(ir: Waveform):
    """Backward-integrated energy decay in dB, normalized to 0 dB at onset."""
    h = ir.samples
    start = onset_index(h)
    energy = np.cumsum(h[start:][::-1] ** 2)[::-1]
    if energy[0] <= 0.0:
        raise ContractViolation("no energy after onset")
    with np.errstate(divide="ignore"):
        curve = 10.0 * np.log10(np.maximum(energy / energy[0], 1e-300))
    return curve, start


def _fit_decay(curve, sample_rate, db_from, db_to):
    """Least-squares slope (dB/s) of the decay curve between two dB levels."""
    idx_from = int(np.argmax(curve <= db_from)) if np.any(curve <= db_from) else -1
    idx_to = int(np.argmax(curve <= db_to)) if np.any(curve <= db_to) else -1
    if idx_from < 0 or idx_to < 0 or idx_to <= idx_from + 1:
        raise MetricUndefined(f"decay never spans [{db_from}, {db_to}] dB")
    seg = curve[idx_from : idx_to + 1]
    t = np.arange(idx_from, idx_to + 1) / sample_rate
    t_mean = t.mean()
    s_mean = seg.mean()
    denom = float(((t - t_mean) ** 2).sum())
    if denom <= 0.0:
        raise MetricUndefined("degenerate decay segment")
    slope = float(((t - t_mean) * (seg - s_mean)).sum()) / denom
    if slope >= 0.0:
        raise MetricUndefined("energy does not decay")
    return slope


def estimate_t60(ir: Waveform):
    """Reverberation time from the -5 to -25 dB fit, extrapolated to 60 dB."""
    curve, _ = schroeder_db(ir)
    slope = _fit_decay(curve, ir.sample_rate, -5.0, -25.0)
    return -60.0 / slope


def estimate_edt(ir: Waveform):
    """Early decay time: 0 to -10 dB fit, extrapolated to 60 dB."""
    curve, _ = schroeder_db(ir)
    slope = _fit_decay(curve, ir.sample_rate, 0.0, -10.0)
    return -60.0 / slope


def estimate_c50(ir: Waveform):
    """Early-to-late energy ratio in dB, split 50 ms after onset."""
    h = ir.samples
    start = onset_index(h)
    split = start + int(round(0.05 * ir.sample_rate))
    early = float(np.sum(h[start:split] ** 2))
    late = float(np.sum(h[split:] ** 2))
    if early <= 0.0:
        return -C50_CLAMP_DB
    if late <= 0.0:
        return C50_CLAMP_DB
    return float(np.clip(10.0 * np.log10(early / late), -C50_CLAMP_DB, C50_CLAMP_DB))


def rir_metrics(pred: Waveform, gt: Waveform):
    """Per-sample metric errors between a predicted and a reference response.

    Returns {t60_error_percent, c50_error_db, edt_error_sec}. Raises
    MetricUndefined when either response cannot support the estimates.
    """
    if pred.energy() <= 0.0 or gt.energy() <= 0.0:
        raise ContractViolation("metrics need non-silent responses")
    t60_gt = estimate_t60(gt)
    t60_pred = estimate_t60(pred)
    edt_gt = estimate_edt(gt)
    edt_pred = estimate_edt(pred)
    c50_gt = estimate_c50(gt)
    c50_pred = estimate_c50(pred)
    return {
        "t60_error_percent": abs(t60_pred - t60_gt) / t60_gt * 100.0,
        "c50_error_db": abs(c50_pred - c50_gt),
        "edt_error_sec": abs(edt_pred - edt_gt),
    }
