#!/usr/bin/env python3
"""Host-time benchmark of the miniAMR simulator.

Run from the repository root:

    python3 perfbench/run.py --workload fig4-tampi --seed 0 --seconds 10 --trace 0

``--workload`` is one of ``fig4-tampi``, ``fig4-mpi``, ``pdes-tampi``,
``sweep``, or ``all`` (each workload in turn, each in a fresh
interpreter).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` is the traced run that writes the per-layer ledger.
``--steadiness N`` runs every workload N times with seeds seed..seed+N-1,
alternating the workload order, and reports each end-to-end metric's
median, quartiles and spread against its bound in ``BENCHMARK.json``.
``--record-reference`` rewrites ``perfbench/reference.json``, the
default-seed result digests of the serial kernel.

Times are scored in reference seconds, corrected for the host's speed
by a kernel timed between operations, and set-up by an import reference
timed between set-up probes (see ``hostspeed.py``); ``pdes-tampi``'s
operations are scored as measured.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A report with a ``host``
block is written to ``.perfbench/reports/``.  See ``perfbench/README.md``.
"""

import argparse
import cProfile
import gc
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
REFERENCE = BENCH / "reference.json"

#: Set-up samples per run, each in a fresh interpreter.
SETUP_SAMPLES = 7

#: Fewest timed operations per run, whatever ``--seconds`` allows, so
#: that every median is over at least three samples.
MIN_OPS = 3

#: Accepted range of profiled seconds over profiled process wall.
ACCOUNTING_TOLERANCE = 0.10

#: Every end-to-end metric the benchmark computes, with its unit.  The
#: JSON result carries the ones ``BENCHMARK.json`` scores; the others are
#: printed (they are undefined or zero on some workloads).
END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "events_per_s": "1/s",
    "host_us_per_task": "us", "runs_per_s": "1/s", "peak_rss_mb": "MB",
    "setup_s": "s", "error_rate": "ratio",
}

#: Per-layer counters a workload may not exercise; they read 0 there
#: (PDES telemetry off ``pdes-tampi``, engine counters off ``sweep``,
#: profile counters on the unprofiled ``sweep``).
NOT_EXERCISED_ZERO = (
    "pdes.windows", "pdes.stall_s", "pdes.stall_share",
    "pdes.bottleneck_stall_s", "pdes.batches", "pdes.elapsed_s",
    "exec.executed", "exec.cached", "exec.failed", "exec.attempts",
    "exec.cache_hit_ratio", "exec.job_wait_s", "exec.job_exec_s",
    "exec.slot_idle_s", "exec.hit_ms", "simx.events",
    "tampi.requests_bound",
)

perf = time.perf_counter


def _import_program():
    """Put the checkout's ``src`` first on the path; refuse to run
    without it rather than measure some other installed copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    # Locate without importing: importing is part of the timed set-up.
    found = importlib.util.find_spec("repro")
    if Path(found.origin).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: repro resolves to {found.origin}")


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _cpu_s():
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _peak_rss_mb():
    """Peak RSS of this process plus that of its largest reaped child."""
    s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (s + c) / 1024.0


def _reference():
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def _write_report(name, report):
    from host import host_block

    report["host"] = host_block(ROOT, report.pop("_load_start"))
    out = WORK / "reports"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def _emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))


def _setup_probe(args):
    """Fresh-interpreter sample of the workload's set-up time."""
    t0 = perf()
    _import_program()
    import workloads

    workdir = WORK / f"probe-{os.getpid()}"
    wl = workloads.make(args.workload, args.seed, {}, workdir)
    wl.setup()
    setup = perf() - t0
    wl.close()
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": setup}))


def _setup_samples(args):
    """Set-up seconds of :data:`SETUP_SAMPLES` fresh interpreters, and
    the host-speed factor of each, from the import-reference samples
    just before and just after it (see :mod:`hostspeed`)."""
    import hostspeed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples, speed = [], []
    before = hostspeed.import_seconds()
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])
                       ["setup_s"])
        after = hostspeed.import_seconds()
        speed.append(hostspeed.NOMINAL_IMPORT_S * 2 / (before + after))
        before = after
    return samples, speed


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def _timed(wl):
    """``(start, wall, cpu)`` of one operation."""
    gc.collect()
    c0 = _cpu_s()
    t0 = perf()
    wl.op()
    wall = perf() - t0
    return t0, wall, _cpu_s() - c0


def _end_to_end(args, wl):
    """Warm up, then time operations for ``--seconds`` (at least
    :data:`MIN_OPS` of them) between host-speed samples.

    Times are scored in reference seconds (see :mod:`hostspeed`); the
    measured seconds are kept in the report.
    """
    import hostspeed

    t0 = perf()
    wl.setup()
    own_setup = perf() - t0
    wl.warmup()
    cal = hostspeed.Calibration(wl.cores)
    cal.sample()
    samples = []
    start = perf()
    while len(samples) < MIN_OPS or perf() - start < args.seconds:
        samples.append(_timed(wl))
        wl.verify()
        cal.sample_if_due()
    if cal.samples and cal.samples[-1][0] < samples[-1][0] + samples[-1][1]:
        cal.sample()
    peak = _peak_rss_mb()
    wl.check()

    probes, probe_speed = _setup_samples(args)

    speed = [cal.factor(t, t + wall) for t, wall, _c in samples]
    wall = statistics.median(w * f for (_t, w, _c), f in zip(samples, speed))
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(
            c * f for (_t, _w, c), f in zip(samples, speed)
        ),
        "peak_rss_mb": peak,
        "setup_s": statistics.median(
            p * f for p, f in zip(probes, probe_speed)
        ),
    }
    events = wl.counters.get("simx.events")
    if wl.simulation and events:
        metrics["events_per_s"] = events / wall
    tasks = wl.counters.get("tasking.tasks_executed")
    if wl.simulation and tasks:
        metrics["host_us_per_task"] = wall * 1e6 / tasks
    if not wl.simulation:
        # Every pass completes the same outcomes (the checks fail a pass
        # that does not), so this is a fixed multiple of 1 / wall_s.
        metrics["runs_per_s"] = wl.last.completed / wall
    return metrics, {
        "host_speed": statistics.median(speed),
        "measured": {
            "wall_s": statistics.median(s[1] for s in samples),
            "cpu_s": statistics.median(s[2] for s in samples),
            "setup_s": statistics.median(probes),
        },
        "samples": [
            dict(zip(("start", "wall_s", "cpu_s"), s),
                 host_speed=f)
            for s, f in zip(samples, speed)
        ],
        "kernel_samples_s": [k for _t, k in cal.samples],
        "setup_samples_s": {"in_process": own_setup, "probes": probes,
                            "probe_host_speed": probe_speed},
    }


def _pdes_metrics(path):
    from repro.obs.telemetry import read_records

    records = read_records(path) if path.exists() else []
    runs = [r for r in records if r["type"] == "pdes_run"]
    windows = [r for r in records if r["type"] == "pdes_window"]
    if not runs:
        return {}
    run = runs[-1]
    per_worker = {}
    for w in windows:
        per_worker[w["wid"]] = per_worker.get(w["wid"], 0.0) + w["stall"]
    return {
        "pdes.windows": run["windows"],
        "pdes.stall_s": run["stall"],
        "pdes.stall_share": run["stall"] / (run["workers"] * run["elapsed"]),
        # The slowest worker sets the run's time; it is the one that
        # waits least at the barriers.
        "pdes.bottleneck_stall_s": min(per_worker.values(), default=0.0),
        "pdes.batches": sum(w["batches"] for w in windows),
        "pdes.elapsed_s": run["elapsed"],
    }


def _traced(args, wl):
    """One untraced and one profiled operation; the per-layer ledger."""
    import ledger

    wl.setup()
    wl.warmup()
    telemetry = WORK / "work" / "telemetry.jsonl"
    telemetry.unlink(missing_ok=True)
    os.environ["REPRO_TELEMETRY"] = str(telemetry)
    try:
        _start, untraced, _cpu = _timed(wl)
    finally:
        del os.environ["REPRO_TELEMETRY"]
    wl.verify()
    counted = wl.last
    extra = {"exec.hit_ms": wl.hit_ms()} if not wl.simulation else {}

    children = ledger.ChildProfiles(WORK / "work" / "profiles")
    for stale in children.directory.iterdir():
        stale.unlink()
    prof = cProfile.Profile()
    gc.collect()
    children.active = True
    t0 = perf()
    prof.enable()
    wl.op()
    prof.disable()
    traced = perf() - t0
    children.active = False
    wl.verify()

    # Counters come from the untraced operation (they are deterministic
    # for simulations; for the sweep its timings are not inflated).
    wl.last = counted
    wl.check()
    classifier = ledger.Classifier(ROOT / "src" / "repro", BENCH)
    profiles, missing = children.collect()
    if missing:
        wl.fail(f"{len(missing)} child process(es) started under the "
                f"profiler left no profile (pids {missing})")
    book = ledger.build_ledger(prof, traced, profiles, classifier)

    c = dict(wl.counters)
    c.update(extra)
    c.update(_pdes_metrics(telemetry))
    self_s, calls_in = book["self_s"], book["calls_in"]
    metrics = {}
    for layer in ledger.LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        if layer not in ("gc", "wait", "other"):
            metrics[f"{layer}.calls_in"] = calls_in[layer]
    metrics.update(c)

    def per(layer, count, key):
        metrics[key] = self_s[layer] * 1e6 / count if count else 0.0

    per("tasking", c.get("tasking.tasks_executed"), "tasking.host_us_per_task")
    per("simx", c.get("simx.events"), "simx.host_us_per_event")
    per("mpi", c.get("mpi.messages"), "mpi.host_us_per_message")
    for name in NOT_EXERCISED_ZERO:
        metrics.setdefault(name, 0)
    metrics["trace.overhead_ratio"] = traced / untraced
    metrics["ledger.accounted_share"] = book["accounted_share"]

    # Sanity of the ledger.  Accounting and the zero-task invariant are
    # checks; the layer ranking is an expectation that an optimisation
    # may legitimately change, so it is reported, not failed.
    if abs(book["accounted_share"] - 1.0) > ACCOUNTING_TOLERANCE:
        wl.fail(f"ledger accounts for {book['accounted_share']:.3f} of the "
                f"profiled wall (tolerance {ACCOUNTING_TOLERANCE})")
    if wl.name == "fig4-mpi" and c.get("tasking.tasks_executed"):
        wl.fail("fig4-mpi executed simulated tasks")
    named = {k: v for k, v in self_s.items() if k not in ("wait", "other")}
    expectations = {
        "largest_layer": max(named, key=named.get),
        "tasking_largest_on_fig4_tampi": (
            max(named, key=named.get) == "tasking"
            if wl.name == "fig4-tampi" else None
        ),
    }
    return metrics, {
        "ledger": book, "expectations": expectations,
        "traced_wall_s": traced, "untraced_wall_s": untraced,
    }


def _one(args):
    load_start = os.getloadavg()[0]
    _import_program()
    import workloads

    spec = _benchmark_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workdir = WORK / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, _reference(), workdir)
    metrics, detail = {}, {}
    try:
        measure = _traced if args.trace else _end_to_end
        metrics, detail = measure(args, wl)
    except Exception:
        wl.fail(traceback.format_exc().strip().splitlines()[-1])
        traceback.print_exc()
    finally:
        wl.close()
    failed = len(wl.failures)
    attempted = max(wl.attempted, failed, 1)
    metrics.setdefault("error_rate", failed / attempted)

    report = {
        "_load_start": load_start,
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "attempted": attempted, "failed": failed,
        "failures": wl.failures, "metrics": metrics, **detail,
    }
    path = _write_report(f"{args.workload}-trace{args.trace}", report)

    if not args.trace:
        for name, unit in END_TO_END_UNITS.items():
            value = metrics.get(name)
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{args.workload:11s} {name:17s} {shown:>12s} {unit}")
        measured = detail.get("measured", {})
        print(f"{args.workload:11s} host_speed        "
              f"{detail.get('host_speed', float('nan')):12.4g} (measured: "
              + ", ".join(f"{k} {v:.4g}" for k, v in measured.items())
              + ")")
    for message in wl.failures:
        print(f"{args.workload}: FAILED: {message}")
    print(f"{args.workload}: report {path.relative_to(ROOT)}")

    correct = not wl.failures
    scored = {}
    for m in wanted:
        if m["name"] in metrics:
            scored[m["name"]] = {"value": metrics[m["name"]],
                                 "unit": m["unit"]}
        elif correct:
            correct = False
            print(f"{args.workload}: metric {m['name']} was not measured")
    _emit(correct, attempted, failed, scored)
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Several workloads, each in a fresh interpreter
# ----------------------------------------------------------------------
def _child(name, seed, seconds, trace):
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def _all(args, names):
    results = {n: _child(n, args.seed, args.seconds, args.trace)
               for n in names}
    metrics = {
        f"{n}.{k}": v for n, r in results.items()
        for k, v in r["metrics"].items()
    }
    correct = all(r["correct"] for r in results.values())
    _emit(correct, sum(r["attempted"] for r in results.values()),
          sum(r["failed"] for r in results.values()), metrics)
    return 0 if correct else 1


def _steadiness(args, names):
    load_start = os.getloadavg()[0]
    bounds = {m["name"]: m for m in _benchmark_spec()["end_to_end"]}
    values = {n: {} for n in names}
    failures = 0
    for i in range(args.steadiness):
        order = names if i % 2 == 0 else names[::-1]
        for n in order:
            r = _child(n, args.seed + i, args.seconds, 0)
            failures += r["failed"] + (not r["correct"])
            # The report holds the unscored metrics too.
            report = json.loads(
                (WORK / "reports" / f"{n}-trace0.json").read_text()
            )
            for k in END_TO_END_UNITS:
                if k in report["metrics"]:
                    values[n].setdefault(k, []).append(report["metrics"][k])
    table, over = {}, 0
    print(f"{'workload':11s} {'metric':17s} {'n':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for n in names:
        for k, vals in values[n].items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            if median == 0:  # error_rate on a correct benchmark
                continue
            spread = (q3 - q1) / median
            bound = bounds[k]["bound"] if k in bounds else None
            flag = ("unscored" if bound is None
                    else "OVER" if spread > bound
                    else "" if spread < bound / 3 else "above bound/3")
            if flag == "OVER":
                over += 1
            table.setdefault(n, {})[k] = {
                "n": len(vals), "median": median,
                "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "values": vals, "flag": flag,
            }
            print(f"{n:11s} {k:17s} {len(vals):3d} "
                  f"{median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.4f} {bound or 0:6.3f} {flag}")
    path = _write_report("steadiness", {
        "_load_start": load_start, "rounds": args.steadiness,
        "first_seed": args.seed, "seconds": args.seconds,
        "failures": failures, "metrics": table,
    })
    print(f"steadiness: report {path.relative_to(ROOT)}")
    return 0 if over == 0 and failures == 0 else 1


def _record_reference(names):
    """Digest of every workload's default-seed result on the serial
    kernel, written to ``perfbench/reference.json``."""
    _import_program()
    import workloads

    workdir = WORK / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for n in names:
        wl = workloads.make(n, 0, {}, workdir)
        wl.setup()
        if n == "sweep":
            wl.warmup()
        digests[n] = wl.reference_digest()
        wl.close()
        if wl.failures:
            sys.exit(f"perfbench: {n}: {wl.failures}")
        print(f"{n}: {digests[n]}")
    REFERENCE.write_text(json.dumps(digests, indent=2, sort_keys=True)
                         + "\n")
    return 0


def main(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=(*workloads.NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, default=0, metavar="N",
                   help="rounds of every workload (at least 2)")
    p.add_argument("--record-reference", action="store_true")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {ROOT / 'src'}")
    names = (workloads.NAMES if args.workload == "all"
             else (args.workload,))
    if args.setup_probe:
        return _setup_probe(args)
    if args.record_reference:
        return _record_reference(names)
    if args.steadiness:
        if args.steadiness < 2:
            p.error("--steadiness needs at least 2 rounds for quartiles")
        return _steadiness(args, names)
    if args.workload == "all":
        return _all(args, names)
    return _one(args)


if __name__ == "__main__":
    sys.exit(main())
