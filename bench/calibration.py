"""Host-speed calibration.

On a small host whose cores are shared with other tenants, the speed of
interpreter and small-array numpy work drifts by a third and more within
minutes, in steps a few seconds apart. A fixed kernel, independent of cdce,
is timed every SAMPLE_EVERY_S or so of a measured stretch, which cuts it into
segments; the kernel's time over NOMINAL_S is the host's slowness, and each
segment's time is divided by the mean slowness at its two ends. The time the
kernel takes is not part of any segment. The kernel mixes what a cdce trial
does: interpreter work, small numpy calls on an 8 x 14 complex grid, and
dense products through BLAS. Cold subprocesses (set-up probes, `cdce single`)
are timed between two samples in the same way.

Two samples stand for the stretch between them only while it is short. A
stretch longer than MAX_SEGMENT_S, such as a cold set-up with the lattice
workloads' covariance fit, spans several speed steps, which average out
inside it; dividing it by two end samples made it far less steady, so it is
left undivided, as if at the nominal speed.

The kernel runs in a process of its own, started once per run and idle
between requests, so that nothing the program does to the runner's process
(a larger heap, evicted caches, threads left running) slows the kernel too
and is divided away. The cores of the host need not run at one speed, so
each request moves the kernel process onto the core the runner is on at that
moment; the runner waits for the answer, so that core is free.

Run as a script, this is the kernel process: for every line read from
standard input, a CPU number or empty, it times the kernel on that CPU and
prints the seconds.
"""

from __future__ import annotations

import ctypes
import os
import statistics
import subprocess
import sys
import time

# Typical kernel time on the 2-core x86-64 host (OpenBLAS 0.3.31, one thread)
# the benchmark was defined on. Only ratios between runs matter; this sets the
# scale, so that normalized figures read as figures at that host's usual speed.
NOMINAL_S = 0.005
# Each sample is the fastest of this many kernel runs, so that one
# interruption does not read as a slow host.
RUNS_PER_SAMPLE = 2
# Host speed steps come a few seconds apart; sampling several times a second
# keeps most segments within one step.
SAMPLE_EVERY_S = 0.3
MAX_SEGMENT_S = 2.0
TIMEOUT_S = 30.0


def segment_slowness(before: float, after: float, seconds: float) -> float:
    """The slowness of a stretch of `seconds` between samples `before` and
    `after`: their mean, or 1 for a stretch too long for them to stand for."""
    return (before + after) / 2 if seconds <= MAX_SEGMENT_S else 1.0


try:
    _sched_getcpu = ctypes.CDLL(None).sched_getcpu
except (OSError, AttributeError):
    _sched_getcpu = None


def current_cpu() -> int | None:
    """The CPU this thread runs on, or None where that is not known."""
    cpu = _sched_getcpu() if _sched_getcpu else -1
    return cpu if cpu >= 0 else None


class Calibration:
    """Client of the kernel process; use it as a context manager so that the
    process is stopped and waited for."""

    def __init__(self, env: dict) -> None:
        self.samples: list[float] = []
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env, text=True,
        )

    def __enter__(self) -> Calibration:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def divided(self, fn) -> tuple[float, float]:
        """Call fn, which returns seconds, between two samples; return the
        seconds and the slowness to divide them by."""
        before = self.slowness()
        t0 = time.perf_counter()
        seconds = fn()
        stretch = time.perf_counter() - t0
        return seconds, segment_slowness(before, self.slowness(), stretch)

    def median_slowness(self) -> float:
        """Median slowness over every sample of the run."""
        return statistics.median(self.samples) / NOMINAL_S

    def slowness(self) -> float:
        """Time the kernel on this process's core; record the time and
        return it over NOMINAL_S."""
        cpu = current_cpu()
        self.proc.stdin.write(f"{'' if cpu is None else cpu}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process exited with {self.proc.wait()}")
        elapsed = float(line)
        self.samples.append(elapsed)
        return elapsed / NOMINAL_S


class Segments:
    """A measured stretch cut into segments by kernel samples.

    Call start() when the stretch begins, tick() after each unit of work (it
    samples once SAMPLE_EVERY_S has passed), add() with the latency of a
    unit, and finish() at the end. `segments` holds each segment's wall time
    and slowness, and `latencies` pairs each added latency with the
    slowness of its segment. The kernel's own time is in neither.
    """

    def __init__(self, cal: Calibration) -> None:
        self.cal = cal
        self.segments: list[tuple[float, float]] = []
        self.latencies: list[tuple[float, float]] = []
        self._pending: list[float] = []

    @property
    def seconds(self) -> float:
        return sum(t for t, _ in self.segments)

    @property
    def normalized(self) -> float:
        """The stretch's time with each segment divided by its slowness."""
        return sum(t / slowness for t, slowness in self.segments)

    def start(self) -> None:
        self._slowness = self.cal.slowness()
        self._t0 = time.perf_counter()

    def add(self, latency: float) -> None:
        self._pending.append(latency)

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._t0 < SAMPLE_EVERY_S:
            return
        slowness = self.cal.slowness()
        mean = segment_slowness(self._slowness, slowness, now - self._t0)
        self.segments.append((now - self._t0, mean))
        self.latencies.extend((x, mean) for x in self._pending)
        self._pending.clear()
        self._slowness = slowness
        self._t0 = time.perf_counter()

    def finish(self) -> None:
        self.tick(force=True)


def _kernel_process() -> None:
    import numpy as np

    rng = np.random.default_rng(0)
    grid = rng.standard_normal((8, 14)) + 1j * rng.standard_normal((8, 14))
    mat = rng.standard_normal((112, 112)) + 1j * rng.standard_normal((112, 112))
    dense = rng.standard_normal((200, 200))

    def kernel() -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(100):
            shifted = np.roll(grid, (i % 8, i % 14), axis=(0, 1))
            acc += float(np.sum(np.conj(grid) * shifted).real)
            acc += float(np.abs(mat @ shifted.ravel()).sum())
            for j in range(40):
                acc += j * j
        for _ in range(3):
            acc += float((dense @ dense)[0, 0])
        elapsed = time.perf_counter() - t0
        if not np.isfinite(acc):
            raise ArithmeticError("calibration kernel produced a non-finite value")
        return elapsed

    kernel()  # first calls fill numpy's and BLAS's own caches
    for line in sys.stdin:
        if line.strip() and hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {int(line)})
        print(repr(min(kernel() for _ in range(RUNS_PER_SAMPLE))), flush=True)


if __name__ == "__main__":
    _kernel_process()
