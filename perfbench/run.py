"""gsaudio benchmark: one workload per process, BLAS pools pinned to one thread.

    python3 perfbench/run.py --workload train-512 --seed 1 --seconds 20 --trace 0

Workloads: train-512, render-512, render-32768 (see NOTES.md). With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run. Both forms carry ``correct``, ``attempted`` and ``failed``.
The engine is imported from ``src/`` of the checkout this file lives in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")


def import_engine():
    """Pin BLAS to one thread (the `--threads 1` determinism contract) and
    import gsaudio from this checkout's sources, never from elsewhere."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "gsaudio", "__init__.py")):
        raise SystemExit(f"perfbench: no engine sources under {SRC}")
    sys.path.insert(0, SRC)
    import gsaudio

    if os.path.dirname(os.path.dirname(os.path.abspath(gsaudio.__file__))) != SRC:
        raise SystemExit(f"perfbench: gsaudio imported from {gsaudio.__file__}, not {SRC}")


def result_line(result):
    return json.dumps({
        "correct": result.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import_engine()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it
    for name, ok in result.checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for name, (value, unit) in {**result.info, **result.metrics}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
