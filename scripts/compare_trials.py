#!/usr/bin/env python3
"""Compare the per-trial NMSE, the sweep rows and the benchmark's end-to-end
metrics of the working tree against another git revision's.

    python3 scripts/compare_trials.py --base HEAD~1 --tag frame_cache
    python3 scripts/compare_trials.py --base HEAD~1 --tag band_trial --drift

Each side's TREE_PATHS are extracted with `git archive` into a fresh
directory: the revision's, and the working tree's tracked files as `git
stash create` records them (untracked files there stop the script). For
each workload of bench/common.py, in each of ROUNDS rounds, alternating
which side goes first, each side runs from its own tree an NMSE worker
(`run_trial` on fixed keys, base_seed 7, NMSE_TRIALS per SNR point, then
`run_sweep` on the same keys) and `bench/run.py --workload W --seed <round>
--seconds <run_seconds of BENCHMARK.json> --trace 0`, whose last line must
read `"correct": true` with no failed trial.

Every trial's NMSE and every sweep row (nmse_db and stderr_db) must be
bit-identical between the sides and across rounds, and each worker's sweep
rows the linear mean of its own `run_trial` results. A lattice sweep's
tf_lasso rows, whose gains are solved in batches, need only agree with that
mean, and with the other side's rows, within LASSO_ROW_TOL_DB, since a
change can reorder the batched solve without moving any trial. Otherwise,
or when a benchmark run fails, the script exits 1 and writes nothing.

It then writes BENCH_<tag>.json at the repo root: per workload, the sweep
rows, the largest |change| in dB of a batched tf_lasso row between the
sides, every pair's benchmark results and, per end-to-end metric of
BENCHMARK.json, the figures of pair_summary. It exits 0 whatever they read.

With --drift the sides may differ, for a change that reorders a sum on
purpose; each side must still repeat itself across rounds and give the
linear mean as above. The report then gives, per workload and estimator,
how many trials, sweep-row nmse_db values and stderr_db values moved
between the sides and the largest |change| in dB of each.
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# What a side runs: its package, its benchmark and the configs both read.
TREE_PATHS = ("src", "bench", "configs", "BENCHMARK.json")
# NMSE worker trials per SNR point, by workload: the counts the script has
# always used, so its NMSE keys match earlier reports.
NMSE_TRIALS = {"random_pilots": 200, "pilot_lattice": 40, "data_lattice": 40}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BASE_SEED = 7
ROUNDS = 10
# A batched tf_lasso row is within rtol 1e-12 of its own solve, which moves
# an NMSE above -40 dB by well under this.
LASSO_ROW_TOL_DB = 1e-9


def worker(src: str, config: str, trials_per_snr: str) -> None:
    """Run run_trial over every key of the config's SNR grid, then run_sweep
    over the same keys, with the cdce package under `src`; check that the
    sweep rows are the linear mean of the trials, and print the NMSE of each
    trial and the sweep rows as JSON."""
    sys.path.insert(0, src)
    import numpy as np
    import cdce
    from cdce import config as cdce_config, harness

    expected = os.path.join(src, "cdce", "__init__.py")
    if os.path.realpath(cdce.__file__) != os.path.realpath(expected):
        raise SystemExit(f"error: imported cdce from {cdce.__file__}, expected {expected}")
    per_snr = int(trials_per_snr)
    cfg = dataclasses.replace(cdce_config.load_config(config, env={}), base_seed=BASE_SEED, trials=per_snr)
    cov = harness.fit_config_covariance(cfg) if "fs_lmmse" in cfg.estimators else None
    results = [harness.run_trial(cfg, snr_db, t, cov) for snr_db in cfg.snr_grid_db for t in range(per_snr)]
    rows = harness.run_sweep(cfg, cov)
    # run_sweep solves a lattice chunk's tf_lasso problems in one batched call
    batched = ["tf_lasso"] if "tf_lasso" in cfg.estimators and cfg.frame.placement == "lattice" else []
    for row in rows:
        i = cfg.snr_grid_db.index(row.snr_db)
        mean = float(np.array([r[row.estimator] for r in results[i * per_snr:(i + 1) * per_snr]]).mean())
        tol = LASSO_ROW_TOL_DB if row.estimator in batched else 0.0
        if not abs(row.nmse_db - harness.ratio_db(mean)) <= tol:
            raise SystemExit(f"error: sweep row {row.estimator} at {row.snr_db} dB gives {row.nmse_db!r} dB, "
                             f"the mean of its run_trial results {harness.ratio_db(mean)!r} dB")
    json.dump({
        "trials": len(results),
        "estimators": list(cfg.estimators),
        "batched": batched,
        "numpy": np.__version__,
        "nmse": [{name: value.hex() for name, value in result.items()} for result in results],
        "sweep_rows": [[row.estimator, row.snr_db, row.nmse_db.hex(), row.stderr_db.hex()] for row in rows],
    }, sys.stdout)


def run_worker(tree: str, config: str, trials_per_snr: int) -> dict:
    src = os.path.join(tree, "src")
    env = {k: v for k, v in os.environ.items() if k != "CDCE_BASE_SEED"}
    env.update({var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = src
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", src, os.path.join(tree, config),
           str(trials_per_snr)]
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout)


def run_bench(tree: str, workload: str, seed: int, seconds: float, metrics: list[str]) -> dict:
    """One `bench/run.py --trace 0` run of the tree's own benchmark: its last
    line, with each end-to-end metric's value by name. Exits 1 unless that
    line reads correct with no failed trial."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if out.returncode != 0 or result.get("correct") is not True or result.get("failed") != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} exited {out.returncode}, last lines:\n"
                         + "\n".join(lines[-5:]) + f"\n{out.stderr[-2000:]}")
    missing = set(metrics) - set(result["metrics"])
    if missing:
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} reported no {sorted(missing)}")
    return dict(result, metrics={name: result["metrics"][name]["value"] for name in metrics})


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def extract_tree(rev: str, dest: str) -> str:
    archive = subprocess.run(["git", "archive", "--format=tar", rev, *TREE_PATHS], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


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


def pair_summary(pairs: list[tuple[float, float]], metric: dict) -> dict:
    """The declaration of one end-to-end metric of BENCHMARK.json, with both
    sides' medians and quartiles over its (base, head) pairs, the change's
    relative median move, the pairs the change won (ties count for neither),
    and the two flags of the pair rules: worse beyond the metric's bound, and
    unresolved."""
    if metric["better"] not in ("higher", "lower"):
        raise SystemExit(f"error: {metric['name']}: better is {metric['better']!r}, not higher or lower")
    sign = 1.0 if metric["better"] == "higher" else -1.0
    base, head = [b for b, _ in pairs], [h for _, h in pairs]
    b, h = summary(base), summary(head)
    change = (h["median"] - b["median"]) / b["median"]
    clear_win = min(sign * x for x in head) > max(sign * x for x in base)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "base": b,
        "head": h,
        "median_change": change,
        "pairs": len(pairs),
        "head_wins": sum(sign * (y - x) > 0 for x, y in pairs),
        "worse_beyond_bound": -sign * change > metric["bound"],
        "unresolved": (b["q3"] - b["q1"]) / b["median"] > metric["bound"] and not clear_win,
    }


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

    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from common import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds, end_to_end = spec["run_seconds"], spec["end_to_end"]
    names = [m["name"] for m in end_to_end]
    base_rev = git("rev-parse", args.base)
    status = git("status", "--porcelain", "--", *TREE_PATHS).splitlines()
    if any(line.startswith("??") for line in status):
        raise SystemExit(f"error: untracked files under {', '.join(TREE_PATHS)}; add or ignore them")
    report = {
        "tag": args.tag,
        "base": {"ref": args.base, "rev": base_rev},
        "head": {"rev": git("rev-parse", "HEAD"), "modified": bool(status)},
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "base_seed": BASE_SEED,
        "rounds": ROUNDS,
        "run_seconds": seconds,
        "drift_mode": args.drift,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        # from the repository root itself, identical code read slower lattice trial latencies
        trees = {side: extract_tree(rev, os.path.join(tmp, side))
                 for side, rev in (("base", base_rev), ("head", git("stash", "create") or "HEAD"))}
        for name, workload in WORKLOADS.items():
            per_snr = NMSE_TRIALS[name]
            # each side's first run; its sweep rows are checked against its
            # own, and its trials also against the other side's without --drift
            firsts = {}
            pairs = []
            for r in range(ROUNDS):
                order = ("base", "head") if r % 2 == 0 else ("head", "base")
                for side in order:
                    run = run_worker(trees[side], workload.config, per_snr)
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
                runs = {side: run_bench(trees[side], name, r, seconds, names) for side in order}
                pairs.append({"seed": r, "first": order[0], **runs})
                print(f"{name} round {r}, {order[0]} first: " + "; ".join(
                    f"{m} {runs['base']['metrics'][m]:.4g} -> {runs['head']['metrics'][m]:.4g}" for m in names),
                    file=sys.stderr)

            reference = firsts["head"]
            moved = drift(firsts["base"], reference) if args.drift else None
            gap = None if args.drift else batched_row_gap(firsts["base"], reference)
            same_rows = firsts["base"]["sweep_rows"] == reference["sweep_rows"]
            metrics = {m["name"]: pair_summary([(pair["base"]["metrics"][m["name"]],
                                                 pair["head"]["metrics"][m["name"]]) for pair in pairs], m)
                       for m in end_to_end}
            report["workloads"][name] = {
                "config": workload.config,
                "trials_per_snr": per_snr,
                "estimators": reference["estimators"],
                "trials": reference["trials"],
                "nmse_identical": not moved or not any(m["trials_moved"] for m in moved.values()),
                "sweep_rows_identical": same_rows,
                "sweep_rows": reference["sweep_rows"],
                **({} if same_rows else {"base_sweep_rows": firsts["base"]["sweep_rows"]}),
                **({"drift": moved} if moved else {"batched_row_max_abs_delta_db": gap}),
                "metrics": metrics,
                "pairs": pairs,
            }
            for metric, s in metrics.items():
                flags = [flag for flag in ("worse_beyond_bound", "unresolved") if s[flag]]
                print(f"{name} {metric}: median {s['base']['median']:.4g} -> {s['head']['median']:.4g} "
                      f"({s['median_change']:+.1%}), head wins {s['head_wins']} of {s['pairs']}"
                      + "".join(f", {flag}" for flag in flags), file=sys.stderr)
            for est, m in (moved or {}).items():
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
