#!/usr/bin/env python3
"""Compare pilot sequences by DD-domain energy concentration and by the
peak-to-sidelobe ratio of their discrete ambiguity surfaces."""

import argparse
import json
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cdce.grids import Dims
from cdce.pilots import FrameSpec, assemble_frame, discrete_af, pilot_dd_image


# A sidelobe below this fraction of the peak is taken as zero, and the
# peak-to-sidelobe ratio as infinite.
SIDELOBE_FLOOR = 1e-9


def lattice_replicas(d: Dims, freq_spacing: int, time_spacing: int) -> set:
    """AF bins occupied by grating lobes of the pilot lattice itself; these
    are common to every sequence riding the lattice and are excluded from
    the sidelobe scan."""
    bins = {(0, 0)}
    if d.m % freq_spacing == 0:
        step = d.m // freq_spacing
        for j in range(freq_spacing):
            bins.add((j * step % d.m, 0))
    if d.n % time_spacing == 0:
        step = d.n // time_spacing
        for j in range(time_spacing):
            bins.add((0, j * step % d.n))
    return bins


def study(d: Dims, freq_spacing: int, time_spacing: int, kind: str) -> dict:
    spec = FrameSpec(dims=d, freq_spacing=freq_spacing, time_spacing=time_spacing, sequence_kind=kind)
    frame = assemble_frame(spec)
    x_dd = pilot_dd_image(frame)
    energy = np.sort(np.abs(x_dd.ravel()) ** 2)[::-1]
    total = energy.sum()
    bins_90 = int(np.searchsorted(np.cumsum(energy), 0.9 * total) + 1)
    af = np.abs(discrete_af(x_dd))
    excluded = lattice_replicas(d, freq_spacing, time_spacing)
    peak = af[0, 0]
    sidelobe = max(
        af[l, k]
        for l in range(d.m)
        for k in range(d.n)
        if (l, k) not in excluded
    )
    if sidelobe < SIDELOBE_FLOOR * peak:
        # rounding noise of an exactly zero sidelobe, not a sidelobe
        sidelobe = 0.0
    return {
        "sequence": kind,
        "n_pilots": spec.n_pilots,
        "bins_for_90pct": bins_90,
        "af_peak": float(peak),
        "af_max_sidelobe": float(sidelobe),
        "af_ratio": float(peak / sidelobe) if sidelobe else math.inf,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=16)
    parser.add_argument("--n", type=int, default=16)
    parser.add_argument("--freq-spacing", type=int, default=2)
    parser.add_argument("--time-spacing", type=int, default=1)
    parser.add_argument("--json", help="also write results to this path")
    args = parser.parse_args()

    d = Dims(args.m, args.n, cp_len=0)
    rows = [study(d, args.freq_spacing, args.time_spacing, kind) for kind in ("all_ones", "walsh", "zadoff_chu")]
    header = f"{'sequence':12s} {'pilots':>6s} {'bins@90%':>8s} {'af peak':>10s} {'sidelobe':>10s} {'ratio':>8s}"
    print(header)
    for r in rows:
        print(
            f"{r['sequence']:12s} {r['n_pilots']:6d} {r['bins_for_90pct']:8d} "
            f"{r['af_peak']:10.2f} {r['af_max_sidelobe']:10.2f} {r['af_ratio']:8.2f}"
        )
    if args.json:
        with open(args.json, "w") as fh:
            # strict JSON: an infinite ratio is written as "inf"
            records = [
                {**r, "af_ratio": r["af_ratio"] if math.isfinite(r["af_ratio"]) else "inf"}
                for r in rows
            ]
            json.dump(records, fh, indent=2, allow_nan=False)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
