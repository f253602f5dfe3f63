"""Benchmark of the cdce Monte Carlo simulator.

One caller drives the public API in a closed loop, as a batch sweep does: the
next trial starts when the previous one returns. Every run checks the NMSE it
produces. Run from the root of a checkout:

    python3 bench/run.py --workload pilot_lattice --seed 1 --seconds 16 --trace 0

With --trace 0 it prints the end-to-end metrics; with --trace 1 it prints the
per-layer table and writes the spans to bench/out/. The last line of standard
output is the result as one JSON object. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import common

# Table of the seed-0 sweep recorded from the program; every run re-checks it.
REFERENCE_SEED = 0
# NMSE values compared in dB. Rounding differences from a reordered but
# equivalent computation stay far below this; a changed estimate does not.
NMSE_TOL_DB = 1e-6
# `cdce single` prints dB with six decimals.
CLI_TOL_DB = 2e-6
# After the measured sweep, and again after the run_trial calls, the run
# times cold set-ups in fresh processes (besides the one in this process):
# at least MIN_PROBES, more while all of them have taken less than half of
# PROBE_BUDGET_S, then less than all of it. Then it times cold `cdce single`
# runs: at least MIN_SINGLES, more while they have taken less than
# SINGLE_BUDGET_S.
MIN_PROBES, PROBE_BUDGET_S = 1, 4.0
MIN_SINGLES, SINGLE_BUDGET_S = 1, 4.0
SUBPROCESS_TIMEOUT_S = 150.0
SINGLE_SNR_DB = 10.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(common.WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="workload seed, used as base_seed")
    p.add_argument("--seconds", type=float, required=True, help="measured time: half of it sizes the sweep, "
                   "and run_trial repeats the sweep's keys in the other half")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--record-reference", action="store_true",
        help="record the seed-0 NMSE table of the current program and exit",
    )
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.record_reference and args.seed != REFERENCE_SEED:
        p.error(f"--record-reference needs --seed {REFERENCE_SEED}")
    return args


def db(ratio: float) -> float:
    return -200.0 if ratio == 0 else max(10.0 * math.log10(ratio), -200.0)


class Verdict:
    """Trials attempted and failed, and every correctness problem found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def problem(self, msg: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(msg)

    def trial(self, fn):
        """Run one paired trial; a raise or a non-finite NMSE is a failure."""
        self.attempted += 1
        try:
            result = fn()
        except Exception:
            self.failed += 1
            self.problem("trial raised:\n" + traceback.format_exc())
            return None
        if not all(math.isfinite(v) for v in result.values()):
            self.failed += 1
            self.problem(f"non-finite NMSE {result}")
            return None
        return result

    def sweep(self, harness, cfg, cov):
        """Run one sweep; if it raises, all its trials count as failed."""
        n = len(cfg.snr_grid_db) * cfg.trials
        self.attempted += n
        try:
            rows = harness.run_sweep(cfg, cov)
        except Exception:
            self.failed += n
            self.problem("sweep raised:\n" + traceback.format_exc())
            return None
        return {(r.estimator, float(r.snr_db)): (r.trials, r.nmse_db) for r in rows}

    def compare(self, what: str, got: dict, want: dict) -> None:
        if set(got) != set(want):
            self.problem(f"{what}: rows {sorted(got)} differ from {sorted(want)}")
            return
        for key, (trials, value) in want.items():
            g_trials, g_value = got[key]
            if g_trials != trials or not abs(g_value - value) <= NMSE_TOL_DB:
                self.problem(f"{what}: {key} gives {g_value} dB over {g_trials} trials, "
                             f"expected {value} dB over {trials}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def table_from_trials(cfg, results: list[dict]) -> dict:
    """The sweep table a list of run_trial results implies: the linear mean
    over trials per (estimator, SNR), in dB."""
    import numpy as np

    table = {}
    per_snr = cfg.trials
    for i, snr in enumerate(cfg.snr_grid_db):
        chunk = results[i * per_snr:(i + 1) * per_snr]
        for name in cfg.estimators:
            mean = float(np.array([r[name] for r in chunk]).mean())
            table[(name, float(snr))] = (per_snr, db(mean))
    return table


def rep_config(cfg, seed: int, rep: int):
    """Repetition 0 of a traced run uses the workload seed as base_seed;
    later repetitions draw fresh (SNR, trial) keys from it."""
    import numpy as np

    if rep == 0:
        return dataclasses.replace(cfg, base_seed=seed)
    base = int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])
    return dataclasses.replace(cfg, base_seed=base)


def write_config(workload: common.Workload, seed: int, seconds: float) -> str:
    """The workload's YAML with base_seed set to the seed and trials sized
    from the measured time; everything else as configured."""
    import yaml

    with open(os.path.join(common.ROOT, workload.config)) as fh:
        raw = yaml.safe_load(fh)
    raw["base_seed"] = seed
    raw["trials"] = workload.trials_per_snr(seconds, len(raw["snr_grid_db"]))
    os.makedirs(common.OUT_DIR, exist_ok=True)
    path = os.path.join(common.OUT_DIR, f"config-{workload.name}-seed{seed}.yaml")
    with open(path, "w") as fh:
        yaml.safe_dump(raw, fh, sort_keys=False)
    return path


def reference_path(workload: common.Workload) -> str:
    return os.path.join(common.BENCH_DIR, "reference", f"{workload.name}.json")


def load_reference(workload: common.Workload) -> dict:
    with open(reference_path(workload)) as fh:
        ref = json.load(fh)
    return {(r["estimator"], float(r["snr_db"])): (r["trials"], r["nmse_db"]) for r in ref["rows"]}


def record_reference(harness, workload, cfg, cov) -> None:
    rcfg = dataclasses.replace(cfg, base_seed=REFERENCE_SEED, trials=workload.reference_trials)
    rows = harness.run_sweep(rcfg, cov)
    payload = {
        "workload": workload.name,
        "base_seed": REFERENCE_SEED,
        "trials_per_snr": rcfg.trials,
        "source": environment()["source"],
        "rows": [dataclasses.asdict(r) for r in rows],
    }
    with open(reference_path(workload), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {reference_path(workload)}")


def check_reference(harness, workload, cfg, cov, seed: int, verdict: Verdict) -> None:
    """Rerun the recorded seed-0 sweep and compare it with the reference.

    fs_lmmse depends on the covariance, which is fitted from the workload
    seed, so at other seeds the check covers the remaining estimators only.
    """
    want = load_reference(workload)
    estimators = cfg.estimators
    if seed != REFERENCE_SEED:
        estimators = tuple(e for e in estimators if e != "fs_lmmse")
        want = {k: v for k, v in want.items() if k[0] != "fs_lmmse"}
    rcfg = dataclasses.replace(cfg, base_seed=REFERENCE_SEED, trials=workload.reference_trials,
                               estimators=estimators)
    got = verdict.sweep(harness, rcfg, cov)
    if got is not None:
        verdict.compare(f"seed-{REFERENCE_SEED} reference table", got, want)


def measure_traced(harness, cfg, cov, seed, seconds, verdict, tracer) -> dict:
    """Run each repetition's sweep once untraced and once traced, alternating
    which goes first, until `seconds` have passed. Both must give one table."""
    import cdce.channel as channel

    cache = getattr(channel.unit_path_tf_channel, "cache_info", None)
    hits = calls = 0
    untraced = traced = 0.0
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep == 0 or time.perf_counter() < deadline:
        rcfg = rep_config(cfg, seed, rep)
        tables = {}
        for is_traced in ((False, True) if rep % 2 == 0 else (True, False)):
            if is_traced:
                before = cache() if cache else None
                t0 = time.perf_counter()
                with tracer.installed("sweep"), tracer.span("harness.run_sweep"):
                    tables[True] = verdict.sweep(harness, rcfg, cov)
                traced += time.perf_counter() - t0
                if cache:
                    after = cache()
                    hits += after.hits - before.hits
                    calls += (after.hits + after.misses) - (before.hits + before.misses)
            else:
                t0 = time.perf_counter()
                tables[False] = verdict.sweep(harness, rcfg, cov)
                untraced += time.perf_counter() - t0
        if tables[True] is not None and tables[False] is not None:
            verdict.compare("traced sweep", tables[True], tables[False])
        rep += 1
    return {"reps": rep, "untraced_s": untraced, "traced_s": traced,
            "cache_hits": hits, "cache_calls": calls}


def time_subprocess(cmd) -> tuple[float, str]:
    """Wall time and standard output of `cmd` in a fresh process."""
    t0 = time.perf_counter()
    out = subprocess.run(
        cmd, cwd=common.ROOT, env=common.child_env(), capture_output=True,
        text=True, timeout=SUBPROCESS_TIMEOUT_S, check=False,
    )
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr.strip()}")
    return wall, out.stdout


def probe_setup(cfg_path) -> float:
    """One cold set-up in a fresh process, as timed inside it."""
    _, stdout = time_subprocess([sys.executable, os.path.join(common.BENCH_DIR, "setup_probe.py"), cfg_path])
    return json.loads(stdout.strip().splitlines()[-1])["setup_s"]


def time_single(cfg_path, want: dict, verdict: Verdict) -> float:
    """Wall time of one cold `python -m cdce single`; it must print the NMSE
    that run_trial gives in process for the same key."""
    wall, stdout = time_subprocess([sys.executable, "-m", "cdce", "single", "--config", cfg_path,
                                    "--snr-db", str(SINGLE_SNR_DB), "--trial", "0"])
    got = dict(line.split("\t") for line in stdout.strip().splitlines())
    if set(got) != set(want):
        verdict.problem(f"cdce single printed {sorted(got)}, expected {sorted(want)}")
    for name, ratio in want.items():
        if name in got and not abs(float(got[name]) - db(ratio)) <= CLI_TOL_DB:
            verdict.problem(f"cdce single: {name} {got[name]} dB, in process {db(ratio)} dB")
    return wall


def timed_repeats(fn, minimum: int, budget_s: float, spent: float = 0.0) -> tuple[list, float]:
    """Call fn at least `minimum` times, then again while the time spent,
    counting `spent` from earlier calls, is under `budget_s`. Returns the
    results and the time spent."""
    results = []
    while len(results) < minimum or spent < budget_s:
        t0 = time.perf_counter()
        results.append(fn())
        spent += time.perf_counter() - t0
    return results, spent


@contextlib.contextmanager
def ticking(harness, segments):
    """Tick `segments` after every run_trial call that run_sweep makes, by
    wrapping run_trial where run_sweep looks it up. A run_sweep that stops
    calling it leaves the sweep one segment, undivided if over
    calibration.MAX_SEGMENT_S."""
    run_trial = harness.run_trial

    def ticked(*args, **kwargs):
        result = run_trial(*args, **kwargs)
        segments.tick()
        return result

    harness.run_trial = ticked
    try:
        yield
    finally:
        harness.run_trial = run_trial


def measure(harness, cfg_path, cfg, cov, first_setup, verdict, cal) -> dict:
    """Time one sweep over the workload's keys, then run_trial on each of
    its keys one by one; the sweep's table must be the linear mean of those
    trials. Both stretches are cut into segments by host-speed samples
    (calibration.Segments). Cold set-ups follow the sweep and the calls, so
    that they sample the host at two moments; cold `cdce single` runs come
    last."""
    from calibration import Segments

    want_single = harness.run_trial(cfg, SINGLE_SNR_DB, 0, cov)

    def probe():
        return cal.divided(lambda: probe_setup(cfg_path))

    sweep = Segments(cal)
    with ticking(harness, sweep):
        sweep.start()
        table = verdict.sweep(harness, cfg, cov)
        sweep.finish()
    if table is None:
        raise RuntimeError("the measured sweep failed; nothing to report")
    probes, spent = timed_repeats(probe, MIN_PROBES, PROBE_BUDGET_S / 2)

    calls, results = Segments(cal), []
    calls.start()
    for snr in cfg.snr_grid_db:
        for t in range(cfg.trials):
            t0 = time.perf_counter()
            res = verdict.trial(lambda: harness.run_trial(cfg, snr, t, cov))
            if res is not None:
                calls.add(time.perf_counter() - t0)
                results.append(res)
            calls.tick()
    calls.finish()
    if len(results) == len(cfg.snr_grid_db) * cfg.trials:
        verdict.compare(f"sweep at base_seed {cfg.base_seed}", table, table_from_trials(cfg, results))
    more, _ = timed_repeats(probe, 0, PROBE_BUDGET_S, spent)

    singles, _ = timed_repeats(lambda: cal.divided(lambda: time_single(cfg_path, want_single, verdict)),
                               MIN_SINGLES, SINGLE_BUDGET_S)
    return {
        "trials": len(cfg.snr_grid_db) * cfg.trials,
        "sweep": sweep,
        "calls": calls,
        "setups": [first_setup] + probes + more,
        "singles": singles,
    }


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(common.ROOT))
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=common.ROOT, env=env,
            capture_output=True, text=True, timeout=10, check=False,
        ).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    digest = hashlib.sha256()
    pkg = os.path.join(common.SRC, "cdce")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return {
        "source": {"git_revision": rev, "src_cdce_sha256": digest.hexdigest()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": common.BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def print_table(title: str, metrics: dict, units: dict, notes: dict) -> None:
    print(title)
    width = max(len(k) for k in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>12.6g} {units[name]:<6} {notes.get(name, '')}")


def run(args) -> dict:
    from calibration import Calibration

    # Traced runs compare traced with untraced sweeps raw and need no samples.
    with contextlib.nullcontext() if args.trace else Calibration(common.child_env()) as cal:
        return run_with(args, cal)


def run_with(args, cal) -> dict:
    workload = common.WORKLOADS[args.workload]
    units = declared_metrics(args.trace)
    cfg_path = write_config(workload, args.seed, args.seconds)
    from cdce import harness

    verdict = Verdict()
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracer.installed("setup"):
            _, cfg, cov = common.timed_setup(cfg_path)
    else:
        loaded = {}

        def setup():
            seconds, loaded["cfg"], loaded["cov"] = common.timed_setup(cfg_path)
            return seconds

        first = cal.divided(setup)
        cfg, cov = loaded["cfg"], loaded["cov"]
    if args.record_reference:
        record_reference(harness, workload, cfg, cov)
        raise SystemExit(0)
    check_reference(harness, workload, cfg, cov, args.seed, verdict)

    env = environment()
    print(f"workload {workload.name}  seed {args.seed}  sized for {args.seconds:g} s  "
          f"{len(cfg.snr_grid_db)} SNR points x {cfg.trials} trials per sweep  "
          f"estimators {','.join(cfg.estimators)}")
    print("environment " + json.dumps(env))

    if args.trace:
        traced = measure_traced(harness, cfg, cov, args.seed, args.seconds, verdict, tracer)
        metrics = tracer.layer_metrics(cfg.lasso.max_iter, traced["cache_hits"], traced["cache_calls"])
        metrics["trace.overhead_frac"] = traced["traced_s"] / traced["untraced_s"] - 1.0
        for msg in tracer.missing_layers(cfg.estimators):
            verdict.problem(msg)
        spans_path = os.path.join(common.OUT_DIR, f"spans-{workload.name}-seed{args.seed}.json")
        tracer.dump(spans_path)
        detail = dict(traced, spans=spans_path)
        ordered = dict(sorted(metrics.items(), key=lambda kv: (units[kv[0]] != "ms", -kv[1])))
        print_table(f"per-layer, ms per traced trial unless the unit says otherwise "
                    f"({metrics['trace.trials']} traced trials in {traced['reps']} sweeps; "
                    f"tracing overhead {metrics['trace.overhead_frac']:+.1%}; spans in {spans_path})",
                    ordered, units, {"config.load_config.ms": "per call, in set-up",
                                     "baselines.fit_covariance.s": "per fit, in set-up"})
    else:
        m = measure(harness, cfg_path, cfg, cov, first, verdict, cal)
        setups, singles, trials = m["setups"], m["singles"], m["trials"]
        sweep, calls = m["sweep"], m["calls"]
        if not calls.latencies:
            raise RuntimeError("no run_trial call completed; nothing to report")
        lat_ms = [1e3 * x for x, _ in calls.latencies]
        norm_ms = [1e3 * x / slow for x, slow in calls.latencies]
        beyond = len(lat_ms) - math.ceil(0.9 * len(lat_ms))
        raw_deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
        deciles = statistics.quantiles(norm_ms, n=10, method="inclusive")
        raw = {
            "trials_per_s": trials / sweep.seconds,
            "trial_ms_p50": raw_deciles[4],
            "trial_ms_p90": raw_deciles[8],
            "setup_s": statistics.median(x for x, _ in setups),
            "single_s": statistics.median(x for x, _ in singles),
        }
        metrics = {
            "trials_per_s": trials / sweep.normalized,
            "trial_ms_p50": deciles[4],
            "trial_ms_p90": deciles[8],
            "setup_s": statistics.median(x / slow for x, slow in setups),
            "single_s": statistics.median(x / slow for x, slow in singles),
            "peak_rss_mb": peak_rss_mb(),
        }
        host = cal.median_slowness()
        detail = {"trials": trials, "sweep_segments": sweep.segments,
                  "call_latencies": calls.latencies, "setups": setups,
                  "singles": singles, "raw": raw, "host_slowness": host, "calibration_s": cal.samples}
        print_table(f"end-to-end; times divided by the host slowness, segment by segment "
                    f"(run median {host:.4f}); raw figures in brackets", metrics, units, {
            "trials_per_s": f"[{raw['trials_per_s']:.6g}] {trials} trials in one sweep, "
                            f"{len(sweep.segments)} segments",
            "trial_ms_p50": f"[{raw['trial_ms_p50']:.6g}] {len(lat_ms)} run_trial calls, "
                            f"{len(calls.segments)} segments",
            "trial_ms_p90": f"[{raw['trial_ms_p90']:.6g}] {beyond} of {len(lat_ms)} calls beyond p90",
            "setup_s": f"[{raw['setup_s']:.6g}] median of {len(setups)} cold set-ups",
            "single_s": f"[{raw['single_s']:.6g}] median of {len(singles)} cold runs",
            "peak_rss_mb": "this process",
        })
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")

    print(f"failed {verdict.failed} of {verdict.attempted} trials attempted; "
          f"correctness {'PASS' if verdict.correct else 'FAIL'}")
    for msg in verdict.problems:
        print("problem: " + msg)
    result = {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out = os.path.join(common.OUT_DIR, f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(dict(result, environment=env, detail=detail, problems=verdict.problems), fh, indent=2)
        fh.write("\n")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    common.pin_threads()
    common.import_cdce()
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
