"""The ``host`` block written into every benchmark report.

A figure measured on a loaded host, or on a host of another class, must
be recognisable from the report alone, so every report carries the
usable cores, interpreter, platform, CPU model, source revision, timer
and the load average at its start and end.
"""

import os
import platform
import subprocess
import sys
import time


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(root, *args):
    try:
        out = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _revision(root):
    """(revision, dirty) of ``root``; ("unknown", None) outside git."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown", None
    rev = _git(root, "rev-parse", "HEAD")
    if rev is None:
        return "unknown", None
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return rev, (bool(status) if status is not None else None)


def host_block(root, load_at_start):
    """The host description; ``load_at_start`` is ``os.getloadavg()[0]``
    read when the run began."""
    rev, dirty = _revision(root)
    clock = time.get_clock_info("perf_counter")
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "git_revision": rev,
        "git_dirty": dirty,
        "timer": {
            "wall": f"time.perf_counter ({clock.implementation}, "
                    f"resolution {clock.resolution:g} s)",
            "cpu": "resource.getrusage (self + reaped children)",
        },
        "loadavg_1min_start": load_at_start,
        "loadavg_1min_end": os.getloadavg()[0],
    }
