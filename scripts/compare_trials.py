#!/usr/bin/env python3
"""Compare the per-trial NMSE, the sweep rows, the cold set-up time and the
trial throughput of the working tree's cdce against another git revision's.

    python3 scripts/compare_trials.py --base HEAD~1 --tag frame_cache
    python3 scripts/compare_trials.py --base HEAD~1 --tag band_trial --drift

The revision's src/ is extracted with `git archive` into a temporary
directory. For each workload config, each of ROUNDS rounds runs one process
per side, each with one BLAS thread, alternating which side goes first.
A process times its cold set-up (config load, covariance fit when an
estimator needs it, one warm-up trial), then `run_trial` on fixed keys
(base_seed 7, every SNR point, the workload's trials per SNR point from
WORKLOADS), then `run_sweep` over the same keys, so the trial figures are
throughput with the caches filled. The host's speed drifts on a shared
machine, so each process samples it with bench/calibration.py's kernel
before and after the set-up and every 0.3 s or so of the trials and of the
sweep (calibration.SAMPLE_EVERY_S), and divides each stretch by its
slowness as bench/run.py does.
Every trial's NMSE of every configured estimator must be bit-identical
between the sides and across rounds; each side's sweep rows (nmse_db and
stderr_db) must repeat themselves bit for bit across rounds, and each
process's sweep rows must be the linear mean of its own `run_trial`
results. Both hold exactly, except for a lattice sweep's tf_lasso rows,
whose gains are solved in batches: those agree with the mean within
LASSO_ROW_TOL_DB, and so may differ between the sides by as much, since a
change can reorder the batched solve without moving any trial. Every other
sweep row must be bit-identical between the sides. Otherwise the script
exits 1 and writes nothing. It
then writes BENCH_<tag>.json at the repo root: per side, normalized set-up
seconds, trials per second of the `run_trial` calls and of the sweep
(median and quartiles over the rounds, with the median speed-up and the
rounds the working tree won), every run's raw and normalized figures, the
largest |change| in dB of a batched tf_lasso row between the sides, the
git revisions, and the numpy and Python versions.

With --drift the sides may differ, for a change that reorders a sum on
purpose. Each side must still repeat itself bit for bit across rounds, and
its sweep rows must still be the linear mean of its own trials, as above. The report
then gives, per workload and estimator, how many trials, sweep-row
nmse_db values and stderr_db values moved between the sides and the largest
|change| in dB of each, and the script exits 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")

# workload name -> (config relative to the repo root, trials per SNR point).
# A random_pilots trial takes about a fifth of a lattice trial, so it runs
# five times the trials: at 40 per SNR point its throughput, on unchanged
# code, spread from 365 to 469 trials/s across rounds.
WORKLOADS = {
    "random_pilots": ("bench/configs/random_pilots.yaml", 200),
    "pilot_lattice": ("configs/pilot_only.yaml", 40),
    "data_lattice": ("configs/with_data.yaml", 40),
}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BASE_SEED = 7
ROUNDS = 10
# A batched tf_lasso row is within rtol 1e-12 of its own solve, which moves
# an NMSE above -40 dB by well under this.
LASSO_ROW_TOL_DB = 1e-9


def worker(src: str, config: str, trials_per_snr: str) -> None:
    """Time a cold set-up, then run_trial over every key of the config's SNR
    grid, then run_sweep over the same keys, with the cdce package under
    `src`, sampling the host's speed around all three; check that the sweep
    rows are the linear mean of the trials, and print the NMSE of each trial,
    the sweep rows and the timings as JSON."""
    sys.path.insert(0, src)
    sys.path.append(BENCH_DIR)
    import numpy as np
    import cdce
    from calibration import Calibration, Segments, segment_slowness
    from cdce import config as cdce_config, harness
    from run import ticking

    expected = os.path.join(src, "cdce", "__init__.py")
    if os.path.realpath(cdce.__file__) != os.path.realpath(expected):
        raise SystemExit(f"error: imported cdce from {cdce.__file__}, expected {expected}")
    per_snr = int(trials_per_snr)
    with Calibration(dict(os.environ)) as cal:
        before = cal.slowness()
        t0 = time.perf_counter()
        cfg = dataclasses.replace(cdce_config.load_config(config, env={}),
                                  base_seed=BASE_SEED, trials=per_snr)
        cov = harness.fit_config_covariance(cfg) if "fs_lmmse" in cfg.estimators else None
        harness.run_trial(cfg, cfg.snr_grid_db[0], 0, cov)
        setup_s = time.perf_counter() - t0
        setup_slowness = segment_slowness(before, cal.slowness(), setup_s)
        results = []
        trials = Segments(cal)
        trials.start()
        for snr_db in cfg.snr_grid_db:
            for t in range(per_snr):
                results.append(harness.run_trial(cfg, snr_db, t, cov))
                trials.tick()
        trials.finish()

        sweep = Segments(cal)
        with ticking(harness, sweep):
            sweep.start()
            rows = harness.run_sweep(cfg, cov)
            sweep.finish()
    # run_sweep solves a lattice chunk's tf_lasso problems in one batched call
    batched = ["tf_lasso"] if "tf_lasso" in cfg.estimators and cfg.frame.placement == "lattice" else []
    for row in rows:
        i = cfg.snr_grid_db.index(row.snr_db)
        mean = float(np.array([r[row.estimator] for r in results[i * per_snr:(i + 1) * per_snr]]).mean())
        tol = LASSO_ROW_TOL_DB if row.estimator in batched else 0.0
        if not abs(row.nmse_db - harness.ratio_db(mean)) <= tol:
            raise SystemExit(f"error: sweep row {row.estimator} at {row.snr_db} dB gives {row.nmse_db!r} dB, "
                             f"the mean of its run_trial results {harness.ratio_db(mean)!r} dB")
    n = len(results)
    json.dump({
        "trials": n,
        "setup_s": setup_s,
        "setup_slowness": setup_slowness,
        "setup_s_normalized": setup_s / setup_slowness,
        "trials_s": trials.seconds,
        "trials_s_normalized": trials.normalized,
        "trials_per_s": n / trials.seconds,
        "trials_per_s_normalized": n / trials.normalized,
        "sweep_s": sweep.seconds,
        "sweep_s_normalized": sweep.normalized,
        "sweep_trials_per_s": n / sweep.seconds,
        "sweep_trials_per_s_normalized": n / sweep.normalized,
        "host_slowness": cal.median_slowness(),
        "estimators": list(cfg.estimators),
        "batched": batched,
        "numpy": np.__version__,
        "nmse": [{name: value.hex() for name, value in result.items()} for result in results],
        "sweep_rows": [[row.estimator, row.snr_db, row.nmse_db.hex(), row.stderr_db.hex()] for row in rows],
    }, sys.stdout)


def run_side(src: str, config: str, trials_per_snr: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CDCE_BASE_SEED"}
    env.update({var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = src
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", src, config, str(trials_per_snr)]
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


def db(ratio: float) -> float:
    return -200.0 if ratio == 0 else max(10.0 * math.log10(ratio), -200.0)


def drift(base: dict, head: dict) -> dict:
    """Per estimator: the trials and the sweep rows whose NMSE differs
    between the two sides' runs and the largest |change| in dB, and the same
    for the rows' standard errors."""
    if base["estimators"] != head["estimators"] or len(base["nmse"]) != len(head["nmse"]):
        raise SystemExit("error: the sides ran different estimators or trials")
    out = {}
    for name in head["estimators"]:
        moved = [abs(db(float.fromhex(h[name])) - db(float.fromhex(b[name])))
                 for b, h in zip(base["nmse"], head["nmse"]) if b[name] != h[name]]
        rows = [(b, h) for b, h in zip(base["sweep_rows"], head["sweep_rows"]) if b[0] == name]
        if any(b[:2] != h[:2] for b, h in rows):
            raise SystemExit(f"error: the sides' sweep rows of {name} are not the same points")
        row_moves = [abs(float.fromhex(h[2]) - float.fromhex(b[2])) for b, h in rows if b[2] != h[2]]
        se_moves = [abs(float.fromhex(h[3]) - float.fromhex(b[3])) for b, h in rows if b[3] != h[3]]
        out[name] = {
            "trials": len(head["nmse"]),
            "trials_moved": len(moved),
            "trial_max_abs_delta_db": max(moved, default=0.0),
            "sweep_rows": len(rows),
            "sweep_rows_moved": len(row_moves),
            "sweep_row_max_abs_delta_db": max(row_moves, default=0.0),
            "stderr_moved": len(se_moves),
            "stderr_max_abs_delta_db": max(se_moves, default=0.0),
        }
    return out


def batched_row_gap(base: dict, head: dict) -> float:
    """The largest |change| in dB, over nmse_db and stderr_db, between the
    sides' sweep rows; exits 1 unless only batched rows changed, each by at
    most LASSO_ROW_TOL_DB."""
    if base["estimators"] != head["estimators"] or len(base["sweep_rows"]) != len(head["sweep_rows"]):
        raise SystemExit("error: the sides ran different estimators or sweep points")
    gap = 0.0
    for b, h in zip(base["sweep_rows"], head["sweep_rows"]):
        if b[:2] != h[:2]:
            raise SystemExit(f"error: the sides' sweep rows {b[:2]} and {h[:2]} are not the same point")
        delta = max(abs(float.fromhex(h[i]) - float.fromhex(b[i])) for i in (2, 3))
        tol = LASSO_ROW_TOL_DB if b[0] in head["batched"] else 0.0
        if not delta <= tol:
            raise SystemExit(f"error: sweep row {b[0]} at {b[1]} dB moved by {delta:.3g} dB between the sides")
        gap = max(gap, delta)
    return gap


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", help="git revision to compare the working tree against")
    p.add_argument("--tag", help="writes BENCH_<tag>.json at the repo root")
    p.add_argument("--drift", action="store_true",
                   help="report how far each estimator's NMSE moved between the sides instead of "
                        "requiring them to be bit-identical")
    p.add_argument("--worker", nargs=3, metavar=("SRC", "CONFIG", "TRIALS"), help=argparse.SUPPRESS)
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
        "rounds": ROUNDS,
        "drift_mode": args.drift,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": extract_src(base_rev, tmp), "head": head_src}
        for name, (config_rel, per_snr) in WORKLOADS.items():
            config = os.path.join(ROOT, config_rel)
            runs = {"base": [], "head": []}
            # each side's first run; its sweep rows are checked against its
            # own, and its trials also against the other side's without --drift
            firsts = {}
            for r in range(ROUNDS):
                order = ("base", "head") if r % 2 == 0 else ("head", "base")
                for side in order:
                    run = run_side(sides[side], config, per_snr)
                    report.setdefault("numpy", run["numpy"])
                    first = firsts.setdefault(side, run)
                    reference = first if args.drift else next(iter(firsts.values()))
                    if run["nmse"] != reference["nmse"]:
                        diff = next(i for i, (a, b) in enumerate(zip(run["nmse"], reference["nmse"])) if a != b)
                        raise SystemExit(f"error: {name}: {side} round {r} trial {diff} NMSE "
                                         f"{run['nmse'][diff]} differs from {reference['nmse'][diff]}")
                    elif run["sweep_rows"] != first["sweep_rows"]:
                        diff = next(a for a, b in zip(run["sweep_rows"], first["sweep_rows"]) if a != b)
                        raise SystemExit(f"error: {name}: {side} round {r} sweep row {diff} differs "
                                         f"from the first run's")
                    runs[side].append({key: value for key, value in run.items()
                                       if key not in ("nmse", "sweep_rows", "numpy")})
                base, head = runs["base"][-1], runs["head"][-1]
                print(f"{name} round {r} (normalized): set-up base {base['setup_s_normalized']:.4f} s, "
                      f"head {head['setup_s_normalized']:.4f} s; run_trial base "
                      f"{base['trials_per_s_normalized']:.1f}, head {head['trials_per_s_normalized']:.1f} "
                      f"trials/s; sweep base {base['sweep_trials_per_s_normalized']:.1f}, "
                      f"head {head['sweep_trials_per_s_normalized']:.1f} trials/s", file=sys.stderr)

            def figures(key):
                return [summary([run[key] for run in runs[side]]) for side in ("base", "head")]

            rate_base, rate_head = figures("trials_per_s_normalized")
            sweep_base, sweep_head = figures("sweep_trials_per_s_normalized")
            setup_base, setup_head = figures("setup_s_normalized")
            pairs = list(zip(runs["base"], runs["head"]))
            reference = firsts["head"]
            moved = drift(firsts["base"], reference) if args.drift else None
            gap = None if args.drift else batched_row_gap(firsts["base"], reference)
            same_rows = firsts["base"]["sweep_rows"] == reference["sweep_rows"]
            report["workloads"][name] = {
                "config": config_rel,
                "trials_per_snr": per_snr,
                "estimators": reference["estimators"],
                "trials": reference["trials"],
                "nmse_identical": not moved or not any(m["trials_moved"] for m in moved.values()),
                "sweep_rows_identical": same_rows,
                "sweep_rows": reference["sweep_rows"],
                **({} if same_rows else {"base_sweep_rows": firsts["base"]["sweep_rows"]}),
                **({"drift": moved} if moved else {"batched_row_max_abs_delta_db": gap}),
                "setup_s": {"base": setup_base, "head": setup_head},
                "setup_ratio_median": setup_head["median"] / setup_base["median"],
                "setup_head_wins": sum(h["setup_s_normalized"] < b["setup_s_normalized"] for b, h in pairs),
                "trials_per_s": {"base": rate_base, "head": rate_head},
                "speedup_median": rate_head["median"] / rate_base["median"],
                "head_wins": sum(h["trials_per_s_normalized"] > b["trials_per_s_normalized"] for b, h in pairs),
                "sweep_trials_per_s": {"base": sweep_base, "head": sweep_head},
                "sweep_speedup_median": sweep_head["median"] / sweep_base["median"],
                "sweep_head_wins": sum(h["sweep_trials_per_s_normalized"] > b["sweep_trials_per_s_normalized"]
                                       for b, h in pairs),
                "runs": runs,
            }
            if moved:
                for est, m in moved.items():
                    print(f"{name} drift {est}: {m['trials_moved']} of {m['trials']} trials moved, "
                          f"max {m['trial_max_abs_delta_db']:.3g} dB; {m['sweep_rows_moved']} of "
                          f"{m['sweep_rows']} sweep rows moved, max {m['sweep_row_max_abs_delta_db']:.3g} dB; "
                          f"{m['stderr_moved']} standard errors moved, max {m['stderr_max_abs_delta_db']:.3g} dB",
                          file=sys.stderr)
    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
