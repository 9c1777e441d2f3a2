"""Host-speed reference: a fixed pure-Python kernel timed between the
benchmark's operations.

On a shared VM the speed of a core changes by up to 1.6x over tens of
seconds, with neighbours' load, and CPU time slows with wall time.  A
change to the program cannot be told from such a phase by timing the
program alone.  So the benchmark times this kernel -- which never runs
program code -- between its operations, and scores every time in
*reference seconds*: measured seconds x :data:`NOMINAL_S` / the kernel's
measured seconds around the operation.  A slower program still reads
slower; a slower host does not.

The kernel does what the simulator's hot paths do: allocates small
slotted objects, calls methods, pushes and pops a heap of tuples and
updates a dict.  A workload that keeps several cores busy at once (the
sweep's engine workers) runs as fast as its slowest core, so it is
calibrated with one kernel per core at once, by the slowest of them.
A workload the kernel does not follow is left uncalibrated
(``cores=0``): its reference seconds are its measured seconds.

Set-up is import work -- file lookups, reading and unmarshalling code,
running module bodies -- which the heap kernel follows poorly.  It is
calibrated instead by :func:`import_seconds`, a fresh interpreter that
imports a fixed set of standard-library modules.
"""

import gc
import heapq
import multiprocessing
import subprocess
import sys
import time

#: The kernel's seconds on the reference host (2-core Xeon VM,
#: CPython 3.11) at its usual speed.
NOMINAL_S = 0.18

#: Seconds of operations between two kernel samples, at most.
SAMPLE_EVERY_S = 1.0

_ITERATIONS = 150_000


class _Event:
    __slots__ = ("time", "owner")

    def __init__(self, time, owner):
        self.time = time
        self.owner = owner

    def delay(self, x):
        return self.time + x


def kernel_seconds():
    """Wall seconds of one run of the kernel.

    The collector is off, so the size of the program's heap does not
    change the kernel's time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap, owners = [], {}
        for i in range(_ITERATIONS):
            ev = _Event(i, i * 7 % 13)
            heapq.heappush(heap, (ev.delay(i % 97) * 1.0, i, ev))
            owners[i % 1024] = ev.owner
            if len(heap) > 256:
                heapq.heappop(heap)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


#: The import reference's seconds on the reference host at its usual
#: speed (the kernel's at :data:`NOMINAL_S`).
NOMINAL_IMPORT_S = 0.07

_IMPORT_REFERENCE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import argparse, asyncio, concurrent.futures, csv, dataclasses, "
    "decimal, difflib, email.parser, fractions, http.client, json, "
    "logging, multiprocessing, pickle, sqlite3, statistics, tarfile, "
    "typing, unittest, xml.etree.ElementTree, zipfile\n"
    "print(time.perf_counter() - t0)\n"
)


def import_seconds():
    """Seconds a fresh interpreter takes to import a fixed set of
    standard-library modules (none of the program's)."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_REFERENCE],
                         capture_output=True, text=True, timeout=60,
                         check=True)
    return float(out.stdout)


def _kernel_to(queue):
    queue.put(kernel_seconds())


def slowest_kernel_seconds(cores):
    """The slowest of ``cores`` kernels run at once, one per process."""
    if cores == 1:
        return kernel_seconds()
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    procs = [ctx.Process(target=_kernel_to, args=(queue,))
             for _ in range(cores)]
    for p in procs:
        p.start()
    seconds = [queue.get(timeout=60) for _ in procs]
    for p in procs:
        p.join()
    return max(seconds)


class Calibration:
    """Kernel samples taken between timed operations, on ``cores``
    cores at once; none with ``cores=0``, which leaves times as
    measured."""

    def __init__(self, cores=1):
        self.cores = cores
        #: ``(perf_counter at the end of the sample, kernel seconds)``.
        self.samples = []

    def sample(self):
        if not self.cores:
            return
        seconds = slowest_kernel_seconds(self.cores)
        self.samples.append((time.perf_counter(), seconds))

    def sample_if_due(self):
        """Sample when :data:`SAMPLE_EVERY_S` have passed since the
        last sample."""
        if (not self.samples
                or time.perf_counter() - self.samples[-1][0]
                >= SAMPLE_EVERY_S):
            self.sample()

    def factor(self, start, end):
        """Reference seconds per measured second over ``[start, end]``:
        :data:`NOMINAL_S` over the mean of the samples just before and
        just after it; 1 when uncalibrated."""
        if not self.cores:
            return 1.0
        before = [s for t, s in self.samples if t <= start][-1:]
        after = [s for t, s in self.samples if t >= end][:1]
        around = before + after
        return NOMINAL_S * len(around) / sum(around)
