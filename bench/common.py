"""Paths, workloads, thread pinning and the timed set-up shared by the
benchmark's processes (the runner and its cold set-up probes)."""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# One BLAS thread: on two shared cores single-threaded timings are the
# steadiest, and every process the benchmark starts uses the same setting.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

# The workload seed sets base_seed; CDCE_BASE_SEED would override it.
_SEED_ENV = "CDCE_BASE_SEED"


# Every latency percentile needs samples beyond it: p90 needs at least ten
# run_trial calls above it.
MIN_LATENCY_SAMPLES = 110


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # relative to ROOT
    # Trials per second of a sweep on the host the benchmark was defined on.
    # It turns --seconds into a fixed number of trials, so that a seed always
    # gives the same inputs however fast the host is at the moment.
    sizing_rate: float
    # Trials per SNR point of the seed-0 sweep in bench/reference/.
    reference_trials: int

    def trials_per_snr(self, seconds: float, snr_points: int) -> int:
        """Trials per SNR point of the measured sweep: as many as half of
        `seconds` takes at the sizing rate, since run_trial then repeats the
        sweep's keys one by one, and enough for MIN_LATENCY_SAMPLES calls."""
        sized = round(seconds * self.sizing_rate / (2 * snr_points))
        return max(sized, math.ceil(MIN_LATENCY_SAMPLES / snr_points))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pilot_lattice", "configs/pilot_only.yaml", 30.0, 4),
        Workload("data_lattice", "configs/with_data.yaml", 30.0, 4),
        Workload("random_pilots", "bench/configs/random_pilots.yaml", 130.0, 12),
    )
}


def pin_threads() -> None:
    """Pin BLAS to one thread and drop any CDCE_BASE_SEED override; call
    before numpy is imported."""
    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop(_SEED_ENV, None)


def child_env() -> dict:
    """Environment, after pin_threads, for a subprocess that imports cdce
    from this checkout."""
    return dict(os.environ, PYTHONPATH=SRC)


def import_cdce():
    """Import the cdce package from this checkout's src, never another copy."""
    init = os.path.join(SRC, "cdce", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no cdce package at {init}")
    sys.path.insert(0, SRC)
    import cdce

    if os.path.realpath(cdce.__file__) != os.path.realpath(init):
        raise SystemExit(f"error: imported cdce from {cdce.__file__}, expected {init}")
    return cdce


def timed_setup(config_path: str):
    """Load the config, fit the covariance when an estimator needs it, and run
    one warm-up trial, which fills the unit-path TF channel cache.

    Returns (seconds, config, covariance or None).
    """
    from cdce import config, harness

    t0 = time.perf_counter()
    cfg = config.load_config(config_path, env={})
    cov = harness.fit_config_covariance(cfg) if "fs_lmmse" in cfg.estimators else None
    harness.run_trial(cfg, cfg.snr_grid_db[0], 0, cov)
    return time.perf_counter() - t0, cfg, cov
