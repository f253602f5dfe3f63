#!/usr/bin/env python3
"""Compare the per-trial NMSE and the trial throughput of the working tree's
cdce against another git revision's.

    python3 scripts/compare_trials.py --base HEAD~1 --tag frame_cache

The revision's src/ is extracted with `git archive` into a temporary
directory. For each workload config, each of ROUNDS rounds runs `run_trial`
on the same fixed keys (base_seed 7, every SNR point, trials 0-39) once per
side, each side in its own process with one BLAS thread, alternating which
side goes first.
Each process fits the covariance and runs one warm-up trial before it times
the trials, so the figures are throughput with the caches filled. Every
trial's NMSE of every configured estimator must be bit-identical between the
sides and across rounds; otherwise the script exits 1 and writes nothing.
It then writes BENCH_<tag>.json at the repo root: trials per second of both
sides (median and quartiles over the rounds, and every run), the git
revisions, and the numpy and Python versions.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# workload name -> config, relative to the repo root
WORKLOADS = {
    "random_pilots": "bench/configs/random_pilots.yaml",
    "pilot_lattice": "configs/pilot_only.yaml",
    "data_lattice": "configs/with_data.yaml",
}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BASE_SEED = 7
TRIALS_PER_SNR = 40
ROUNDS = 10


def worker(src: str, config: str) -> None:
    """Time run_trial over every key of the config's SNR grid with the cdce
    package under `src`; print the NMSE of each trial and the rate as JSON."""
    sys.path.insert(0, src)
    import numpy as np
    import cdce
    from cdce import config as cdce_config, harness

    expected = os.path.join(src, "cdce", "__init__.py")
    if os.path.realpath(cdce.__file__) != os.path.realpath(expected):
        raise SystemExit(f"error: imported cdce from {cdce.__file__}, expected {expected}")
    cfg = dataclasses.replace(cdce_config.load_config(config, env={}), base_seed=BASE_SEED, trials=TRIALS_PER_SNR)
    cov = harness.fit_config_covariance(cfg) if "fs_lmmse" in cfg.estimators else None
    harness.run_trial(cfg, cfg.snr_grid_db[0], 0, cov)
    nmse = []
    t0 = time.perf_counter()
    for snr_db in cfg.snr_grid_db:
        for t in range(TRIALS_PER_SNR):
            result = harness.run_trial(cfg, snr_db, t, cov)
            nmse.append({name: value.hex() for name, value in result.items()})
    seconds = time.perf_counter() - t0
    json.dump({
        "trials": len(nmse),
        "seconds": seconds,
        "trials_per_s": len(nmse) / seconds,
        "estimators": list(cfg.estimators),
        "numpy": np.__version__,
        "nmse": nmse,
    }, sys.stdout)


def run_side(src: str, config: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CDCE_BASE_SEED"}
    env.update({var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = src
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", src, config]
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def extract_src(rev: str, dest: str) -> str:
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return os.path.join(dest, "src")


def summary(rates: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(rates, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": rates}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", help="git revision to compare the working tree against")
    p.add_argument("--tag", help="writes BENCH_<tag>.json at the repo root")
    p.add_argument("--worker", nargs=2, metavar=("SRC", "CONFIG"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        worker(*args.worker)
        return 0
    if not args.base or not args.tag:
        p.error("--base and --tag are required")

    base_rev = git("rev-parse", args.base)
    head_src = os.path.join(ROOT, "src")
    report = {
        "tag": args.tag,
        "base": {"ref": args.base, "rev": base_rev},
        "head": {"rev": git("rev-parse", "HEAD"), "src_modified": bool(git("status", "--porcelain", "--", "src"))},
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "blas_threads": 1,
        "base_seed": BASE_SEED,
        "trials_per_snr": TRIALS_PER_SNR,
        "rounds": ROUNDS,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": extract_src(base_rev, tmp), "head": head_src}
        for name in WORKLOADS:
            config = os.path.join(ROOT, WORKLOADS[name])
            rates = {"base": [], "head": []}
            reference = None
            for r in range(ROUNDS):
                order = ("base", "head") if r % 2 == 0 else ("head", "base")
                for side in order:
                    run = run_side(sides[side], config)
                    report.setdefault("numpy", run["numpy"])
                    if reference is None:
                        reference = run
                    elif run["nmse"] != reference["nmse"]:
                        diff = next(i for i, (a, b) in enumerate(zip(run["nmse"], reference["nmse"])) if a != b)
                        raise SystemExit(f"error: {name}: {side} round {r} trial {diff} NMSE "
                                         f"{run['nmse'][diff]} differs from {reference['nmse'][diff]}")
                    rates[side].append(run["trials_per_s"])
                print(f"{name} round {r}: base {rates['base'][-1]:.1f}, head {rates['head'][-1]:.1f} trials/s",
                      file=sys.stderr)
            base, head = summary(rates["base"]), summary(rates["head"])
            report["workloads"][name] = {
                "config": WORKLOADS[name],
                "estimators": reference["estimators"],
                "trials": reference["trials"],
                "nmse_identical": True,
                "trials_per_s": {"base": base, "head": head},
                "speedup_median": head["median"] / base["median"],
                "head_wins": sum(h > b for b, h in zip(rates["base"], rates["head"])),
            }
    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
