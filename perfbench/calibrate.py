"""What the host takes from a child: CPU waits, and a slower CPU.

The shared host this benchmark was written on disturbs timings in two ways.

- Each vCPU switches between two speeds about 1.5x apart every few tens of
  seconds, on its own (the two vCPUs do not move together).  The same
  child takes 5.3 s or 10 s, its CPU time moves with it, and no steal time
  shows.
- At times the child waits, runnable, while another task holds its CPU.
  Its wall time then exceeds its CPU time by up to a third.

So run.py takes out of each child's times the time its main thread waited
for a CPU (``cpu_wait_s``, from the kernel's schedstat), and divides what is
left by the host's slowness during the child.  The result is the child's
time on a CPU of its own at the reference speed.

The slowness is sampled while the child runs: a thread of run.py wakes every
``PERIOD_S``, moves itself onto the CPU the child last ran on, and times a
short fixed pure-Python loop there in its own CPU time.  The median of these
samples over the loop's reference time is the slowness.  The loop is not
phonogap code, so a change to the program moves the rescaled time as it
moves the raw one.  The samples hold the child's CPU for about 1 % of its
time; that wait is taken out with the rest.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

#: Seconds between samples, and the loop's time (s) at the reference
#: speed: the fast phase of a 2-vCPU Xeon VM at 2.1 GHz, Python 3.11.
PERIOD_S = 0.2
LOOP_REF_S = 0.0013
LOOP_ITERATIONS = 20_000


def _loop() -> int:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return total


def _cpu_of(pid: int) -> int | None:
    """The CPU ``pid`` last ran on, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            # Field 39; the command name (field 2) may hold spaces.
            return int(handle.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def cpu_wait_s(pid: int | str = "self") -> float:
    """Seconds the main thread of ``pid`` has waited, runnable, for a CPU
    that another task held (from /proc/<pid>/schedstat); 0.0 where the
    kernel does not report it."""
    try:
        with open(f"/proc/{pid}/schedstat", encoding="ascii") as handle:
            return int(handle.read().split()[1]) * 1e-9
    except (OSError, ValueError, IndexError):
        return 0.0


class SpeedProbe(threading.Thread):
    """Samples the speed of the CPU that process ``pid`` runs on until
    ``stop`` is called."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.samples: list[float] = []
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(PERIOD_S) and self._sample():
            pass

    def _sample(self) -> bool:
        cpu = _cpu_of(self.pid)
        if cpu is None:
            return False
        # Pid 0 is the calling thread only, not the whole runner.
        os.sched_setaffinity(0, {cpu})
        # This thread's CPU time: a sample is not stretched when the child
        # takes the CPU back in the middle of it.
        start = time.thread_time()
        _loop()
        self.samples.append(time.thread_time() - start)
        return True

    def stop(self) -> float:
        """Stop sampling; the median slowness over the samples (1.0 at the
        reference speed, 2.0 at half of it).  Call it before the child is
        reaped: a child shorter than one period is sampled here, once.
        Without /proc there are no samples, and no correction (1.0)."""
        self._halt.set()
        self.join()
        if not self.samples:
            # In a thread of its own, so that this one keeps its CPUs.
            once = threading.Thread(target=self._sample)
            once.start()
            once.join()
        if not self.samples:
            return 1.0
        return statistics.median(self.samples) / LOOP_REF_S
