"""gsaudio: a desk-scale engine that turns mono audio into pose-dependent
binaural audio, conditioned on a learned per-point acoustic representation
derived from Gaussian-splat point clouds.

Submodules are imported lazily so that the CLI can pin BLAS thread counts
before numpy loads.
"""

__version__ = "0.1.0"

_SUBMODULES = (
    "autodiff",
    "optim",
    "wavio",
    "dsp",
    "irmetrics",
    "kdtree",
    "scene",
    "field",
    "binauralizer",
    "roomsim",
    "dataset",
    "model",
    "training",
    "settings",
    "cli",
    "errors",
)


def __getattr__(name):
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module 'gsaudio' has no attribute {name!r}")
