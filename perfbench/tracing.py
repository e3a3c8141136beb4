"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files: each traced function is
wrapped where its callers look it up (a module global for names imported
with ``from .x import f``, a class attribute for methods), and the original
is put back when the run ends. A span's self time is its duration minus the
durations of the spans it directly contains; time spent outside every span
is ``unattributed``, so the self times plus the unattributed time tile the
traced window exactly.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

clock = time.perf_counter

# span name -> lookup sites, each "module:attribute" or "module:Class.attribute".
# A function imported by name into several modules is wrapped in each of them.
SPANS = {
    "training.train_step": ["gsaudio.training:Trainer.train_step"],
    "autodiff.backward": ["gsaudio.autodiff:Tape.backward"],
    "training.evaluate": ["gsaudio.training:Trainer.evaluate"],
    "dsp.mag_distance": ["gsaudio.training:mag_distance"],
    "dsp.env_distance": ["gsaudio.training:env_distance"],
    "model.save": ["gsaudio.model:SceneModel.save"],
    "training_state.save": ["gsaudio.training:save_train_state"],
    "training.densify": ["gsaudio.training:Trainer.densify"],
    "training.prune": ["gsaudio.training:Trainer.prune"],
    "model.context": ["gsaudio.model:SceneModel.context"],
    "scene.vicinity": ["gsaudio.field:vicinity"],
    "kdtree.query_knn": ["gsaudio.kdtree:KDTree.query_knn"],
    "field.forward": ["gsaudio.field:FieldNetwork.forward"],
    "binauralizer.mask_tensors": ["gsaudio.binauralizer:MaskNetwork.mask_tensors"],
    "model.render": ["gsaudio.model:SceneModel.render"],
    "model.masks": ["gsaudio.model:SceneModel.masks"],
    "binauralizer.binauralize": ["gsaudio.model:binauralize"],
    "dsp.stft": ["gsaudio.dsp:stft", "gsaudio.binauralizer:stft", "gsaudio.training:stft"],
    "dsp.istft": ["gsaudio.binauralizer:istft"],
    "kdtree.build": ["gsaudio.kdtree:KDTree.__init__"],
    "model.load": ["gsaudio.model:SceneModel.load"],
    "cli.build_model": ["gsaudio.cli:build_model"],
    "dataset.synth_dataset": ["gsaudio.dataset:synth_dataset"],
    "dataset.sample": ["gsaudio.dataset:Dataset.sample"],
}

# spans whose optimiser instance exists only once the Trainer is built
INSTANCE_SPANS = ("optim.step.nets", "optim.step.alpha")

# spans reported with calls, self time and per-call median; training.prune
# never runs under the default configuration and reports its call count only
TIMED_SPANS = tuple(name for name in SPANS if name != "training.prune") + INSTANCE_SPANS


def _resolve(site):
    module_name, path = site.split(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Collects spans and counters for one traced window."""

    def __init__(self):
        self.durations = defaultdict(list)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.unattributed_s = 0.0
        self.wall_s = None
        self._stack = []
        self._idle_since = None
        self._start = None
        self._patches = []

    # --- window ---

    def start(self):
        self._start = self._idle_since = clock()

    def stop(self):
        end = clock()
        if self._stack:
            raise RuntimeError("tracer stopped inside a span")
        self.unattributed_s += end - self._idle_since
        self.wall_s = end - self._start
        self.restore()

    # --- spans ---

    def wrap(self, name, fn, after=None):
        """``fn`` timed as span ``name``; ``after(args, kwargs, result)``
        runs once the span has closed, to update counters."""
        tracer = self

        def traced(*args, **kwargs):
            begin = clock()
            if not tracer._stack:
                tracer.unattributed_s += begin - tracer._idle_since
            children = [0.0]
            tracer._stack.append(children)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                duration = end - begin
                tracer.durations[name].append(duration)
                tracer.self_s[name] += duration - children[0]
                if tracer._stack:
                    tracer._stack[-1][0] += duration
                else:
                    tracer._idle_since = end
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` with its traced version until ``restore``."""
        raw = vars(owner).get(attr)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = staticmethod(self.wrap(name, getattr(owner, attr), after))
        elif raw is None:  # an instance whose attribute comes from its class
            replacement = self.wrap(name, getattr(owner, attr), after)
        else:
            replacement = self.wrap(name, raw, after)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def patch_sites(self, hooks):
        """Wrap every site in SPANS; ``hooks`` maps a span name to its
        ``after`` callback."""
        for name, sites in SPANS.items():
            for site in sites:
                owner, attr = _resolve(site)
                self.patch(owner, attr, name, hooks.get(name))

    def restore(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # --- results ---

    def calls(self, name):
        return len(self.durations.get(name, ()))

    def closure_error_s(self):
        """Self times plus unattributed time, minus the window's wall time."""
        return sum(self.self_s.values()) + self.unattributed_s - self.wall_s

    def span_metrics(self):
        out = {}
        for name in TIMED_SPANS:
            calls = self.durations.get(name, [])
            out[f"{name}.calls"] = (len(calls), "count")
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0), "s")
            out[f"{name}.ms_p50"] = (float(np.median(calls)) * 1e3 if calls else 0.0, "ms")
        out["training.prune.calls"] = (self.calls("training.prune"), "count")
        return out
