"""Host-speed correction for the end-to-end benchmark's timings.

The benchmark runs on shared virtual machines whose cores change speed
while it runs: the same fixed loop of Python code takes its usual time,
then about 1.65x as long for a while, as other tenants load the physical
core.  The switches come many times a second, and the share of slow time
drifts over minutes, so two sets of runs of the same code minutes apart
differed by 29% in median set-up time, and single runs of one workload
spread 20-40%.  Repeating the work does not remove that drift; measuring
the host's speed alongside the work does.

A :class:`SpeedProbe` is a second, mostly idle process on the same CPU
as the benchmark (the benchmark pins itself to one CPU first, and the
probe inherits the pin).  Every :data:`PERIOD_S` it wakes and times one
run of :func:`sample_work`, a fixed pure-Python loop that does not touch
the library, so its samples see the core at the same moments as the
benchmark does.  The probe takes about 1.5% of the CPU.

:meth:`SpeedSamples.corrected` turns an interval of wall time into
*reference seconds*: the wall time scaled by :data:`REFERENCE_SAMPLE_S`
over the mean sample duration inside the interval, i.e. the time the
interval would have taken at the speed where one sample takes
:data:`REFERENCE_SAMPLE_S` (about an uncontended core of a 2-vCPU cloud
VM).  A change that makes the library do less work lowers the corrected
time in proportion; a slower host phase does not raise it.

Run as a script, this module is the probe process itself.
"""

from __future__ import annotations

import array
import bisect
import os
import select
import statistics
import subprocess
import sys
import time

__all__ = [
    "PERIOD_S",
    "REFERENCE_SAMPLE_S",
    "SpeedProbe",
    "SpeedSamples",
    "pin_to_one_cpu",
    "sample_work",
]

#: Pause between two samples.
PERIOD_S = 0.02

#: Duration of one sample at the reference speed.
REFERENCE_SAMPLE_S = 2.0e-4

#: Fewest samples behind one correction: an interval shorter than
#: ``MIN_SAMPLES`` periods borrows the samples nearest its middle.
MIN_SAMPLES = 5


def sample_work() -> int:
    """The timed unit: a fixed interpreter-bound loop (~0.2-0.35 ms)."""
    table: dict[int, int] = {}
    for i in range(1500):
        table[i & 63] = table.get(i & 63, 0) + i
    return len(table)


def pin_to_one_cpu() -> int:
    """Pin this process (and every thread and child it starts later) to
    the highest-numbered CPU it may use; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedSamples:
    """The probe's samples: start times (``time.perf_counter``, shared
    by every process on Linux) and durations, in start order."""

    def __init__(self, starts: list[float], durations: list[float]) -> None:
        if not durations:
            raise ValueError("the speed probe recorded no samples")
        self.starts, self.durations = starts, durations

    def _window(self, start: float, end: float) -> list[float]:
        low = bisect.bisect_left(self.starts, start)
        high = bisect.bisect_right(self.starts, end)
        if high - low < MIN_SAMPLES:
            middle = bisect.bisect_left(self.starts, (start + end) / 2)
            low = max(0, min(middle - MIN_SAMPLES // 2, len(self.starts) - MIN_SAMPLES))
            high = low + MIN_SAMPLES
        return self.durations[low:high]

    def slowdown(self, start: float, end: float) -> float:
        """Mean sample duration in ``[start, end]`` over the reference."""
        return statistics.fmean(self._window(start, end)) / REFERENCE_SAMPLE_S

    def corrected(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval ``[start, end]``."""
        return (end - start) / self.slowdown(start, end)


class SpeedProbe:
    """The sampling process; a context manager that always reaps it.

    Start it after :func:`pin_to_one_cpu`.  :meth:`stop` ends sampling
    and returns the samples (calling it again returns the same ones).
    """

    def __init__(self) -> None:
        self._samples: SpeedSamples | None = None
        self._process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        # The probe writes one byte once it samples, so its own start-up
        # does not share the CPU with the first timed interval.
        if self._process.stdout.read(1) != b"R":
            self.close()
            raise RuntimeError("the speed probe failed to start")

    def stop(self) -> SpeedSamples:
        if self._samples is None:
            # Closing stdin is the stop signal; the samples follow on stdout.
            payload, _ = self._process.communicate(timeout=60)
            if self._process.returncode != 0:
                raise RuntimeError(f"the speed probe exited with {self._process.returncode}")
            values = array.array("d")
            values.frombytes(payload)
            self._samples = SpeedSamples(list(values[0::2]), list(values[1::2]))
        return self._samples

    def close(self) -> None:
        if self._process.poll() is None:
            self._process.kill()
        self._process.wait()
        for stream in (self._process.stdin, self._process.stdout):
            if stream is not None and not stream.closed:
                stream.close()

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _sample_until_stdin_closes() -> None:
    samples = array.array("d")
    sys.stdout.buffer.write(b"R")
    sys.stdout.buffer.flush()
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        start = time.perf_counter()
        sample_work()
        samples.extend((start, time.perf_counter() - start))
    sys.stdout.buffer.write(samples.tobytes())


if __name__ == "__main__":
    _sample_until_stdin_closes()
