#!/usr/bin/env python3
"""Time tf_lasso's two FISTA loops per solve on one lattice frame.

    python3 scripts/time_fista_loops.py --config configs/pilot_only.yaml --snr 10

Simulates the received vectors of trials 0 .. SOLVES-1 at one SNR point with
the config's keyed transmit chain, then solves their tf_lasso problems in
alternating rounds: one by one with a 1-D vector (the single-vector loop, on
the dictionary's one step matrix), one by one as a (1, MN) stack (the row
loop on one row, on that matrix's diagonal blocks), and in chunks of
harness.LASSO_BATCH rows (the row loop as run_sweep runs it), or of each
chunk size that --batch lists, so that the sizes alternate in one process.
tests/test_estimator.py holds both loops to
tests/oracles.py::fista_reference within rtol 1e-12 / atol 1e-13, and the
three ways to each other on trials 0-3 of the lattice configs; here every
row of the other ways must lie within that bound of the single-vector
loop's solve, with the same zero entries, or the script exits 1. Prints,
per way, the median and quartiles over the rounds of the milliseconds per
solve. BLAS runs on one thread unless the environment sets otherwise.

Solves timed back to back read up to about 20 % faster than the same solve
inside harness.run_trial, where it follows other work such as the full-grid
reconstruct's complex gemm, after which small numpy calls run slower. On
trials 0-47 of configs/with_data.yaml at 10 dB (one BLAS thread, x86-64) a
single-vector solve took 3.45 ms back to back and 3.83 ms with a full-grid
reconstruct before each solve. The cause is not isolated. Use bench/run.py
for a figure of a whole trial.
"""

from __future__ import annotations

import argparse
import os
import statistics
import time

# before numpy loads BLAS
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np

from cdce import harness
from cdce.baselines import tf_lasso_gains
from cdce.config import load_config
from cdce.grids import vec

# the documented bound between a row of the row loop and its own solve
ROW_RTOL = 1e-12
ROW_ATOL = 1e-13


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", default="configs/pilot_only.yaml")
    p.add_argument("--snr", type=float, default=10.0, help="SNR point in dB")
    p.add_argument("--solves", type=int, default=64, help="received vectors, trials 0 .. SOLVES-1")
    p.add_argument("--rounds", type=int, default=15, help="alternating timing rounds, at least 2")
    p.add_argument("--batch", type=int, nargs="+", default=[harness.LASSO_BATCH],
                   help="rows per chunk of the row loop, one way per size")
    args = p.parse_args(argv)
    if args.solves < 1:
        p.error("--solves must be positive")
    if args.rounds < 2:
        p.error("--rounds must be at least 2: the quartiles need two rounds")
    if min(args.batch) < 1:
        p.error("--batch sizes must be positive")

    cfg = load_config(args.config)
    if cfg.frame.placement != "lattice":
        p.error("the loops share one dictionary only on a lattice frame")
    n0 = harness._check_snr(args.snr)
    received = [harness._received(cfg, args.snr, t, n0)[1:] for t in range(args.solves)]
    frame = received[0][0]
    ys = np.stack([vec(y_tf) for _, y_tf in received])

    def solve(y):
        return tf_lasso_gains(y, frame, cfg.lasso)

    def chunked(batch):
        return lambda: np.concatenate([solve(ys[i:i + batch]) for i in range(0, len(ys), batch)])

    ways = {
        "single-vector loop": lambda: np.stack([solve(y) for y in ys]),
        "row loop, one row": lambda: np.concatenate([solve(ys[i:i + 1]) for i in range(len(ys))]),
        **{f"row loop, {batch} rows": chunked(batch) for batch in dict.fromkeys(args.batch)},
    }
    want = ways["single-vector loop"]()  # also fills the dictionary cache
    ms = {name: [] for name in ways}
    for r in range(args.rounds):
        for name in list(ways) if r % 2 == 0 else list(reversed(ways)):
            start = time.perf_counter()
            gains = ways[name]()
            ms[name].append((time.perf_counter() - start) * 1e3 / len(ys))
            if not (np.allclose(gains, want, rtol=ROW_RTOL, atol=ROW_ATOL) and np.array_equal(gains == 0, want == 0)):
                raise SystemExit(f"error: the {name} gave gains outside rtol {ROW_RTOL:g} / atol {ROW_ATOL:g} "
                                 "of the single-vector loop's, or another zero pattern")
    print(f"{args.config}, {args.snr:g} dB, {len(ys)} solves, {args.rounds} alternating rounds")
    for name, values in ms.items():
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        print(f"  {name:22s} {med:7.3f} ms per solve  [quartiles {q1:.3f} - {q3:.3f}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
