"""Per-layer host-time ledger built from ``cProfile`` outside the program.

The traced run enables ``cProfile`` in the benchmark process and, through
:class:`ChildProfiles`, in every process it forks while the traced
operation runs (PDES partitions, sweep-engine workers).  Each function's
self time is charged to the ``repro.<package>`` that defines it:

* ``repro.simx.parallel`` is the ``pdes`` layer; the other named
  packages are their own layer.
* Standard-library, third-party and builtin functions are charged to the
  layer that called them, split by the time each caller spent in them
  (recursively, when the caller is itself outside ``repro``).
* ``gc.collect`` is its own ``gc`` layer.
* Blocking waits (sleep, select/poll, lock and semaphore acquire,
  waitpid, sched_yield) are their own ``wait`` layer, so that a process
  waiting on its children does not inflate its orchestration layer.
* Everything else -- packages outside the named layers, the benchmark's
  own code, call-graph roots -- is ``other``, and its contributors are
  listed in the report instead of being dropped.
"""

import cProfile
import json
import multiprocessing.util
import os
import pstats
import time
from collections import defaultdict
from pathlib import Path

#: Layers of the ledger, in report order.
LAYERS = (
    "tasking", "simx", "pdes", "mpi", "tampi", "core", "amr", "machine",
    "gc", "exec", "wait", "other",
)
_NAMED = {"tasking", "simx", "mpi", "tampi", "core", "amr", "machine", "exec"}
_WAIT_BUILTINS = ("sleep", "select", "poll", "acquire", "waitpid",
                  "sched_yield")


class Classifier:
    """Maps a profiled function to the layer that owns its self time."""

    def __init__(self, repro_dir, harness_dir):
        self.repro = str(repro_dir) + os.sep
        self.harness = str(harness_dir) + os.sep

    def own(self, key):
        """``(layer, detail)`` for functions with an owner of their own,
        ``None`` for functions charged to their callers."""
        filename, _line, name = key
        if filename == "~":
            if name == "<built-in method gc.collect>":
                return "gc", None
            if any(w in name for w in _WAIT_BUILTINS):
                return "wait", None
            return None
        if filename.startswith(self.repro):
            parts = filename[len(self.repro):].split(os.sep)
            if len(parts) == 1:  # a module at the package root (cli, ...)
                return "other", "repro." + parts[0].removesuffix(".py")
            if parts[0] == "simx" and parts[1] == "parallel":
                return "pdes", None
            if parts[0] in _NAMED:
                return parts[0], None
            return "other", "repro." + parts[0]
        if filename.startswith(self.harness):
            return "other", "harness"
        return None


def attribute(stats, classifier):
    """Charge every function's self time to a layer.

    ``stats`` is a :attr:`pstats.Stats.stats` mapping.  Returns
    ``(self_s, calls_in, other_detail)``: seconds per layer, calls
    crossing into each layer from another one, and the contributors to
    ``other``.  The self times sum to the profile's total.
    """
    memo = {}

    def mix(weighted):
        """Weighted mixture of ``(weight, distribution)`` pairs, ignoring
        empty distributions (callers reached only through a cycle)."""
        weighted = [(w, d) for w, d in weighted if d]
        total = sum(w for w, _d in weighted)
        n = len(weighted)
        out = defaultdict(float)
        for w, d in weighted:
            for owner, p in d.items():
                out[owner] += p * (w / total if total > 0 else 1.0 / n)
        return out

    def dist(key, stack=frozenset()):
        """Share of ``key``'s time owned by each (layer, detail); empty
        when every caller of ``key`` is already on ``stack``."""
        own = classifier.own(key)
        if own is not None:
            return {own: 1.0}
        if key in memo:
            return memo[key]
        callers = [c for c in stats[key][4] if c in stats and c != key]
        if not callers:
            memo[key] = {("other", "root:" + key[2]): 1.0}
            return memo[key]
        stack = stack | {key}
        result = mix(
            (stats[key][4][c][3], dist(c, stack))
            for c in callers if c not in stack
        )
        if result:
            memo[key] = result
        return result

    self_s = defaultdict(float)
    detail = defaultdict(float)
    for key, (_cc, _nc, tt, _ct, callers) in stats.items():
        if tt <= 0:
            continue
        own = classifier.own(key)
        # A function outside repro splits its self time by the self time
        # it spent under each caller.
        shares = {own: 1.0} if own is not None else (
            mix((v[2], dist(c)) for c, v in callers.items()
                if c in stats and c != key)
            or dist(key)
            or {("other", "cycle:" + key[2]): 1.0}
        )
        for (layer, what), p in shares.items():
            self_s[layer] += tt * p
            if layer == "other":
                detail[what] += tt * p

    calls_in = defaultdict(int)
    for key, (_cc, _nc, _tt, _ct, callers) in stats.items():
        own = classifier.own(key)
        if own is None or own[0] not in _NAMED and own[0] != "pdes":
            continue
        for c, v in callers.items():
            if c not in stats:
                continue
            d = dist(c) or {("other", None): 1.0}
            caller_layer = max(d.items(), key=lambda kv: kv[1])[0][0]
            if caller_layer != own[0]:
                calls_in[own[0]] += v[1]
    return dict(self_s), dict(calls_in), dict(detail)


class ChildProfiles:
    """Profile every process forked from this one while :attr:`active`.

    A ``multiprocessing`` child runs the registered after-fork hook at
    start-up, which writes a ``<pid>.start`` marker, enables a fresh
    profiler and registers an exit finalizer that writes ``<pid>.prof``
    plus ``<pid>.json`` (the wall seconds profiled) into
    :attr:`directory`.  A child that started but left no profile (it was
    killed, or skipped the finalizer) is reported by :meth:`collect`, so
    the ledger cannot silently lose a process.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.active = False
        multiprocessing.util.register_after_fork(self, ChildProfiles._start)

    def _start(self):
        if not self.active:
            return
        (self.directory / f"{os.getpid()}.start").touch()
        prof = cProfile.Profile()
        multiprocessing.util.Finalize(
            None, _dump_child, args=(prof, str(self.directory),
                                     time.perf_counter()),
            exitpriority=100,
        )
        prof.enable()

    def collect(self):
        """``([(pstats file, profiled wall seconds)], [pid])``: the
        profiles of finished children, and the pids of children that
        started under the profiler but left no profile."""
        out, missing = [], []
        for start in sorted(self.directory.glob("*.start")):
            meta = start.with_suffix(".json")
            prof = start.with_suffix(".prof")
            if meta.exists() and prof.exists():
                out.append((prof, json.loads(meta.read_text())["wall"]))
            else:
                missing.append(int(start.stem))
        return out, missing


def _dump_child(prof, directory, t0):
    prof.disable()
    wall = time.perf_counter() - t0
    base = os.path.join(directory, str(os.getpid()))
    prof.dump_stats(base + ".prof")
    with open(base + ".json", "w") as f:
        json.dump({"wall": wall}, f)


def build_ledger(parent_profile, parent_wall, children, classifier):
    """Merge the driver's and its children's profiles into one ledger.

    Returns a dict with per-layer ``self_s`` and ``calls_in``, the
    ``other`` contributors, and the accounting: profiled seconds against
    the summed wall of every profiled process.
    """
    stats = pstats.Stats(parent_profile)
    driver_s, _calls, _detail = attribute(stats.stats, classifier)
    stats = pstats.Stats(parent_profile)
    for path, _wall in children:
        stats.add(str(path))
    self_s, calls_in, detail = attribute(stats.stats, classifier)
    process_wall = parent_wall + sum(w for _p, w in children)
    attributed = sum(self_s.values())
    return {
        "self_s": {layer: self_s.get(layer, 0.0) for layer in LAYERS},
        # The driver process alone: where its own wall time went.
        "driver_self_s": {layer: driver_s.get(layer, 0.0) for layer in LAYERS},
        "driver_wall_s": parent_wall,
        "calls_in": {layer: calls_in.get(layer, 0) for layer in LAYERS},
        "other_contributors": dict(
            sorted(detail.items(), key=lambda kv: -kv[1])[:20]
        ),
        "processes": 1 + len(children),
        "process_wall_s": process_wall,
        "attributed_s": attributed,
        "accounted_share": attributed / process_wall if process_wall else 0.0,
    }
