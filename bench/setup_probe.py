"""Time one cold set-up (config load, covariance fit, warm-up trial) in a
fresh process, so no cache filled by an earlier set-up can shorten it.

Usage: python3 bench/setup_probe.py CONFIG
Prints {"setup_s": seconds} as JSON.
"""

import json
import sys

import common


def main() -> None:
    if len(sys.argv) != 2:
        raise SystemExit("usage: setup_probe.py CONFIG")
    common.pin_threads()
    common.import_cdce()
    seconds, _, _ = common.timed_setup(sys.argv[1])
    print(json.dumps({"setup_s": seconds}))


if __name__ == "__main__":
    main()
