"""Host-speed sampling inside the measured process.

The benchmark's host is shared, and its speed swings by up to 1.7x, both
within seconds and over minutes.  Raw times of the same code therefore
differ between runs by more than any useful bound.  So every untraced
child samples the speed of the core it runs on while it works: a
``Sampler`` interrupts it every ``PERIOD_S`` and times a short fixed loop.
``scaled`` then turns a measured interval into seconds at the reference
speed: the interval minus the sampling time, times ``REFERENCE_LOOP_S``
over the loop's mean time in that interval.

The loop is big-integer arithmetic that does not use incchains.  Of the
loops tried (integer, dict and tuple, frozenset, big-integer), its
slowdown was most like the workloads'.  Over ten runs per workload,
scaling cut the spread of the timed sections between runs from 0.22-0.51
of the median to 0.06-0.12.  The same loop run before and after each
repetition, or in another process, helped far less, because the host's
two cores change speed apart.

Run as ``python3 bench/meter.py -m <module> [args]``, it runs the module
as ``python -m`` would, with a sampler, and prints the samples to stderr
as its last line.
"""

from __future__ import annotations

import json
import runpy
import signal
import statistics
import sys
import time

clock = time.perf_counter
PERIOD_S = 0.02  # the loop takes about 4% of the time
# The loop's fastest time on the 2-vCPU x86_64 host this benchmark was
# defined on; a scaled time reads as seconds on that host when idle.
REFERENCE_LOOP_S = 0.00068


def reference_loop():
    x, acc = 3**4000, 0
    for i in range(12):
        acc ^= (x * (x + i)) % (10**300 + 7)
    return acc


class Sampler:
    """Times the loop every PERIOD_S of wall time until ``stop``."""

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _sample(self, signum, frame):
        t = clock()
        reference_loop()
        self.samples.append((t, clock() - t))

    def stop(self):
        """The samples as (start, seconds) pairs."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.samples


def scaled(start, end, samples):
    """Seconds from start to end at the reference speed, from the samples
    taken in that interval."""
    inside = [s for t, s in samples if start <= t <= end]
    if not inside:
        raise RuntimeError("no speed sample in a timed interval")
    return (end - start - sum(inside)) * REFERENCE_LOOP_S / statistics.mean(inside)


def main():
    if sys.argv[1:2] != ["-m"] or len(sys.argv) < 3:
        raise SystemExit("usage: python3 bench/meter.py -m <module> [args]")
    module = sys.argv[2]
    sys.argv = [module, *sys.argv[3:]]
    sampler = Sampler()
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        samples = sampler.stop()
        sys.stdout.flush()
        print(json.dumps(samples), file=sys.stderr)


if __name__ == "__main__":
    main()
