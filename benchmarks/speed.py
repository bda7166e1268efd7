"""Host-speed calibration for the benchmark's timings.

The shared hosts this benchmark runs on change speed by up to half again
within tens of seconds, for as long as a run lasts, and process CPU time
follows wall time, so no statistic taken inside one run removes it.
What does remove most of it is timing a fixed piece of work next to the
program: a stdlib kernel that encodes log-like records to JSON, hashes
them with SHA-256 and decodes them again, the mix behind pokeleague's
logs, digests and replays.  It depends on nothing under ``src/``, so a
change to the program cannot move it.

The kernel is timed at the start and end of each unit of work and, via
``Speed.tick`` between matches and replays, at least every ``INTERVAL_S``
inside it; calibration never falls inside a measured span, and unit
times leave it out.  A time measured from ``start`` to ``end`` is
multiplied by ``REFERENCE_S`` over the mean kernel time of the
calibrations around it: it is reported as it would read on a host where
the kernel takes ``REFERENCE_S``, about what it took on the host the
benchmark was written on at its faster times.  Rates are divided by the
same factor.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import statistics
import time

REFERENCE_S = 0.0045  # kernel time that defines the reference speed
REPEATS = 3           # kernel runs per calibration; their median is taken
INTERVAL_S = 0.25     # Speed.tick calibrates again once this much time has passed


def kernel() -> int:
    out = 0
    for i in range(150):
        record = {
            "turn": i,
            "side": [{"hp": j * 7 % 101, "name": f"mon{j}", "moves": [j, j + 1, j + 2]}
                     for j in range(6)],
            "events": [("hit", k, k * 3 % 5) for k in range(8)],
        }
        text = json.dumps(record, sort_keys=True, separators=(",", ":"))
        out ^= int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")
        back = json.loads(text)
        out += sum(mon["hp"] for mon in back["side"] if mon["hp"] > 20)
    return out


def kernel_s() -> float:
    """Median wall time of REPEATS kernel runs, in seconds.

    The collector is off meanwhile, so that the size of the program's
    heap does not change what the kernel costs.
    """
    samples = []
    gc.disable()
    try:
        for _ in range(REPEATS):
            started = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return statistics.median(samples)


class Speed:
    """Calibration points along a run, and the factor they give each measured span."""

    def __init__(self):
        self.times: list[float] = []    # perf_counter at the end of each calibration
        self.kernels: list[float] = []  # kernel seconds at each calibration
        self.spent = 0.0                # seconds spent calibrating
        self.mark()

    def mark(self) -> None:
        """Calibrates now."""
        started = time.perf_counter()
        self.kernels.append(kernel_s())
        self.times.append(time.perf_counter())
        self.spent += self.times[-1] - started

    def tick(self) -> None:
        """Calibrates if INTERVAL_S have passed since the last calibration."""
        if time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.mark()

    def scale(self, start: float, end: float) -> float:
        """Factor for a time measured from `start` to `end`.

        It is REFERENCE_S over the mean kernel time of the calibrations from
        the last one before `start` to the first one after `end`.
        """
        first = max(bisect.bisect_right(self.times, start) - 1, 0)
        last = bisect.bisect_left(self.times, end)
        return REFERENCE_S / statistics.fmean(self.kernels[first:last + 1])

    def summary(self) -> str:
        kernels_ms = [k * 1e3 for k in self.kernels]
        return (f"host speed: kernel {statistics.median(kernels_ms):.2f} ms median "
                f"({min(kernels_ms):.2f} to {max(kernels_ms):.2f}) over {len(kernels_ms)} "
                f"calibrations; reference {REFERENCE_S * 1e3:.2f} ms")
