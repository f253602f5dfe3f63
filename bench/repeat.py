"""Repeat benchmark runs over several seeds and report each end-to-end
metric's median, quartiles and spread (quartile distance over the median)
against a third of its bound from BENCHMARK.json. The raw trial figures,
before they are divided by the host's slowness, are summarized beside them.

    python3 bench/repeat.py --workload pilot_lattice --seeds 1-10
    python3 bench/repeat.py --workload pilot_lattice --seeds 1-10 --trace-seed 1 --baseline

--baseline stores the figures, and the per-layer table of one traced run at
--trace-seed, under the workload in bench/BASELINE.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import common

BASELINE = os.path.join(common.BENCH_DIR, "BASELINE.json")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True, timeout=600, check=False)
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    if not result["correct"] or result["failed"]:
        print(out.stdout)
        raise SystemExit(f"seed {seed}: correctness failed")
    with open(os.path.join(common.OUT_DIR, f"result-{workload}-seed{seed}-trace{trace}.json")) as fh:
        full = json.load(fh)
    result["environment"] = full["environment"]
    result["raw"] = full["detail"].get("raw", {})
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(common.WORKLOADS))
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    p.add_argument("--trace-seed", type=int, help="also make one traced run at this seed")
    p.add_argument("--baseline", action="store_true", help="write the figures to bench/BASELINE.json")
    args = p.parse_args()
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    seeds = parse_seeds(args.seeds)
    runs = []
    for seed in seeds:
        r = run_once(spec, args.workload, seed, 0)
        runs.append(r)
        print(f"seed {seed:>3}  {r['wall_s']:6.1f} s wall  " + "  ".join(
            f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)

    summary = {}
    steady = True
    print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
    for m in spec["end_to_end"]:
        s = summarize([r["metrics"][m["name"]]["value"] for r in runs])
        s.update(unit=m["unit"], bound=m["bound"])
        summary[m["name"]] = s
        ok = s["spread"] < m["bound"] / 3
        steady &= ok
        print(f"{m['name']:<14} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
              f"{s['spread']:>8.3f} {m['bound'] / 3:>8.3f} {'' if ok else 'TOO WIDE'}")
    raw_summary = {}
    for name in runs[0]["raw"]:
        s = summarize([r["raw"][name] for r in runs])
        raw_summary[name] = s
        print(f"{'raw ' + name:<14} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
              f"{s['spread']:>8.3f}   (not divided by host slowness; not gated)")
    walls = [r["wall_s"] for r in runs]
    print(f"wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s; "
          f"{'steady' if steady else 'not steady'}")

    entry = {
        "seeds": seeds,
        "run_seconds": spec["run_seconds"],
        "end_to_end": summary,
        "raw": raw_summary,
        "runs": [{"seed": s, "wall_s": r["wall_s"], "attempted": r["attempted"], "failed": r["failed"],
                  **{k: v["value"] for k, v in r["metrics"].items()},
                  "raw": r["raw"]} for s, r in zip(seeds, runs)],
    }
    if args.trace_seed is not None:
        t = run_once(spec, args.workload, args.trace_seed, 1)
        entry["per_layer"] = {"seed": args.trace_seed,
                              **{k: v["value"] for k, v in t["metrics"].items()}}
        print("per-layer at seed", args.trace_seed)
        for k, v in t["metrics"].items():
            print(f"  {k:<40} {v['value']:.6g} {v['unit']}")
    if args.baseline:
        env = runs[0]["environment"]
        data = {}
        if os.path.exists(BASELINE):
            with open(BASELINE) as fh:
                data = json.load(fh)
        data.setdefault("workloads", {})[args.workload] = dict(entry, environment=env)
        with open(BASELINE, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {BASELINE}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
