"""Command line front end.

Three subcommands: `sweep` runs the configured Monte Carlo sweep and writes
a CSV table, `single` reports every configured estimator's NMSE for
one (SNR, trial) pair, and `af` writes the pilot DD image and its discrete
ambiguity surface as JSON grids.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import ConfigError, load_config
from .harness import emit, ratio_db, run_sweep, run_trial
from .pilots import assemble_frame, pilot_dd_image, discrete_af

__all__ = ["main"]


def _grid_payload(a: np.ndarray) -> dict:
    """JSON form of a complex grid: column-major real and imaginary parts."""
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": [float(v) for v in a.real.ravel(order="F")],
        "im": [float(v) for v in a.imag.ravel(order="F")],
    }


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    rows = run_sweep(cfg)
    emit(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_single(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    ratios = run_trial(cfg, args.snr_db, args.trial)
    for name in cfg.estimators:
        print(f"{name}\t{ratio_db(ratios[name]):.6f}")
    return 0


def _cmd_af(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.base_seed]))
    frame = assemble_frame(cfg.frame, rng)
    x_dd = pilot_dd_image(frame)
    payload = {
        "dd_image": _grid_payload(x_dd),
        "ambiguity": _grid_payload(discrete_af(x_dd)),
    }
    try:
        with open(args.out, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote ambiguity study to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdce",
        description="Cross-domain channel estimation simulations for CP-OFDM",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run an NMSE sweep over the SNR grid")
    p_sweep.add_argument("--config", required=True, help="YAML config file")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_single = sub.add_parser("single", help="report one trial's NMSE per estimator")
    p_single.add_argument("--config", required=True, help="YAML config file")
    p_single.add_argument("--snr-db", type=float, required=True)
    p_single.add_argument("--trial", type=int, required=True)
    p_single.set_defaults(func=_cmd_single)

    p_af = sub.add_parser("af", help="write the pilot DD image and ambiguity surface")
    p_af.add_argument("--config", required=True, help="YAML config file")
    p_af.add_argument("--out", required=True, help="output JSON path")
    p_af.set_defaults(func=_cmd_af)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
