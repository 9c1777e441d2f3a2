"""Parallel, cached, fault-isolated execution of experiment job graphs.

Every paper artifact is a *job graph*: a flat sweep of independent runs
in the simplest case, a dependency DAG (calibrate → sweep → report) in
the general one.  Both flow through one scheduler with one contract:

* a node is **launched the moment its own predecessors complete** — no
  level barriers, so an unrelated slow node never holds back a ready
  branch (the RushTI model);
* the ready set is ordered **critical-path-first** using predicted
  durations from the persistent :class:`~repro.exec.stats.RunStatsStore`
  (falling back to a conservative cost-model estimate when history is
  cold) — longest remaining chain starts first;
* runs are dispatched across a pool of worker **processes** (``jobs``);
  results come back as serialized dicts and are bit-identical to serial
  execution (the simulator is deterministic and ``RunResult`` round-trips
  losslessly through JSON);
* each run is looked up in / stored to a content-addressed
  :class:`~repro.exec.cache.ResultCache` by its spec fingerprint —
  lookups happen when the node becomes *ready*, so a cached calibrate
  node unblocks its dependents instantly;
* a worker crash or timeout is retried with exponential backoff and,
  after ``retries`` retries, fails *that one run* — never the sweep; its
  transitive dependents finish as ``blocked`` (a distinct terminal
  status, so "skipped because upstream failed" is never reported as a
  failure of the node itself);
* progress (cached / start / ok / retry / failed / blocked, wall-time
  per run) is reported through a callback.

**One job lifecycle, two callers.**  :class:`_Lifecycle` is the single
definition of what happens to a run once it is ready to execute: the
worker-id claim and release, the ready-task pick, the attempt (a
subprocess, or in process under ``jobs=1`` and for live-only trace
runs), reap (result message, silent worker death, timeout, cancel
request), retry with :func:`retry_jitter`-seeded backoff, finalize
(outcome, cache store, stats, progress, telemetry), and "terminate
everything still running".  Two callers drive it and decide only what
is theirs:

* :meth:`SweepEngine.run` blocks on one closed job graph.  It admits
  nodes (cache and analysis lookups, generator builds), wakes
  dependents, blocks them when a predecessor fails or the engine shuts
  down, orders launches by (−critical-path priority, node index), and
  executes in process under ``jobs=1``.
* :class:`EngineSession` stays open for independent specs submitted at
  any time (the :mod:`repro.serve` broker runs on one).  It owns the
  tickets, the lock and cancel requests, orders launches by
  ``priority + aging_rate * age``, always executes in subprocesses,
  never looks up the cache and reports no progress events.

Trace runs (``spec.trace=True``) are live-only: the tracer cannot cross a
process boundary or live in the JSON cache, so ``run()`` executes them
in-process (worker ``-1``) and they never touch the cache.  Profiled
runs (``spec.profile=True``) are *not* live-only — the
:class:`~repro.obs.ProfileReport` serializes with the result, so they
flow through the pool and the cache like any other run (under their own
fingerprint, since ``profile`` is part of the spec).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field

from ..core import RunResult, RunSpec, run_simulation
from ..obs.telemetry import QueueEmitter, drain_queue
from .stats import FALLBACK_CONSERVATISM, fallback_cost, spec_signature


class SweepError(RuntimeError):
    """Raised when a sweep finished with failed runs and strictness is on."""


def retry_jitter(fingerprint: str, attempt: int) -> float:
    """Deterministic retry-backoff jitter in ``[0, 1)``.

    Derived from the run's content fingerprint and the attempt number —
    never from wall clock or a process-global RNG — so a retried sweep
    desynchronizes its retries (the point of jitter) while remaining
    bit-reproducible run to run.
    """
    digest = hashlib.sha256(
        f"{fingerprint}:{attempt}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class Sweep:
    """An ordered collection of independent runs, optionally labelled."""

    specs: tuple
    name: str = "sweep"
    labels: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != len(self.specs):
                raise ValueError("labels must parallel specs")
            object.__setattr__(self, "labels", labels)

    def __len__(self):
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def label(self, index: int) -> str:
        if self.labels is not None:
            return self.labels[index]
        spec = self.specs[index]
        return f"{spec.variant}@{spec.num_nodes}n"


@dataclass
class RunOutcome:
    """What happened to one node of a job graph."""

    index: int
    spec: RunSpec
    fingerprint: str
    label: str
    #: "ok" (executed), "cached" (served from cache), "failed",
    #: "blocked" (never attempted: a predecessor failed or the engine
    #: shut down before launch), or "canceled" (withdrawn through an
    #: :class:`EngineSession` before completing).
    status: str
    #: :class:`RunResult` for run nodes; the builder's JSON value for
    #: pipeline analysis nodes.
    result: object = None
    error: str = None
    attempts: int = 0
    wall_time: float = 0.0
    #: Node name inside its pipeline (== ``label`` for flat sweeps).
    name: str = None
    #: Seconds between "all predecessors done" and first launch.
    wait_time: float = 0.0
    #: Host seconds of the *successful attempt* alone — what the stats
    #: store learns from (``wall_time`` also accumulates failed attempts
    #: and backoff).  ``None`` when the run never succeeded.
    exec_time: float = None
    #: Engine worker (pool slot) that executed the run: ``0..jobs-1``,
    #: ``-1`` for live-only trace runs executed in the engine parent,
    #: ``None`` when nothing executed (cached/blocked outcomes).
    worker_id: int = None
    #: Pool slots the run occupied while executing (a partitioned run
    #: claims ``min(pdes_workers, jobs)``).
    slots: int = 1

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")


@dataclass
class SweepReport:
    """Structured outcome of one job graph (input order preserved)."""

    outcomes: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def results(self) -> list:
        """Node results in input order (``None`` for failed/blocked)."""
        return [o.result for o in self.outcomes]

    @property
    def executed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "ok")

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "cached")

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "failed")

    @property
    def blocked(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "blocked")

    @property
    def completed(self) -> int:
        return self.executed + self.cached

    def raise_failures(self):
        """Raise :class:`SweepError` listing every failed run.

        Blocked nodes are counted but not listed: they carry no error of
        their own — fixing the failed predecessor unblocks them.
        """
        bad = [o for o in self.outcomes if o.status == "failed"]
        if bad:
            head = f"{len(bad)} of {len(self.outcomes)} runs failed"
            if self.blocked:
                head += f" ({self.blocked} blocked downstream)"
            lines = [head + ":"]
            for o in bad:
                first = (o.error or "unknown error").strip().splitlines()
                lines.append(
                    f"  [{o.label}] after {o.attempts} attempt(s): "
                    f"{first[-1] if first else 'unknown error'}"
                )
            raise SweepError("\n".join(lines))

    def summary(self) -> str:
        parts = (
            f"{self.executed} executed, {self.cached} cached, "
            f"{self.failed} failed"
        )
        if self.blocked:
            parts += f", {self.blocked} blocked"
        return (
            f"{self.completed}/{len(self.outcomes)} runs "
            f"({parts}) in {self.wall_time:.2f}s"
        )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def run_spec_dict(spec_dict: dict) -> dict:
    """Default worker body: execute a serialized spec, return a dict."""
    return run_simulation(RunSpec.from_dict(spec_dict)).to_dict()


def _child_main(conn, runner, spec_dict):
    """Subprocess entry: run and report ("ok", dict) / ("error", tb)."""
    # A forked child inherits the parent's graceful-shutdown signal
    # handlers (SIGTERM -> request_shutdown), which would swallow the
    # very terminate() the engine uses to kill it.  Workers die on
    # signal, only the engine parent drains.
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover - exotic host
            pass
    try:
        conn.send(("ok", runner(spec_dict)))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except BaseException:
            pass
    finally:
        conn.close()


class _ChildTelemetryRunner:
    """Wrap a pool child's runner with in-worker telemetry spans.

    The child posts ``run_start``/``run_end`` records onto a queue the
    engine parent drains into the stream file (the parent stays the
    single writer for everything it spawned).  Picklable by
    construction: the wrapped runner already had to be.
    """

    __slots__ = ("runner", "queue", "node", "run", "wid")

    def __init__(self, runner, queue, node, run, wid):
        self.runner = runner
        self.queue = queue
        self.node = node
        self.run = run
        self.wid = wid

    def __call__(self, spec_dict):
        emitter = QueueEmitter(
            self.queue, wid=self.wid, run=self.run, node=self.node
        )
        emitter.emit("run_start")
        try:
            result = self.runner(spec_dict)
        except BaseException:
            emitter.emit("run_end", ok=False)
            raise
        emitter.emit("run_end", ok=True)
        return result


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class _Pending:
    __slots__ = ("index", "spec", "fingerprint", "label", "name",
                 "priority", "ready_at", "attempts", "not_before",
                 "started", "first_started", "deadline", "proc", "conn",
                 "wall_time", "slots", "wids", "tenant", "predicted",
                 "canceled")

    def __init__(self, index, spec, fingerprint, label, name, priority,
                 ready_at, tenant=None, predicted=None):
        self.index = index
        self.spec = spec
        self.fingerprint = fingerprint
        self.label = label
        self.name = name
        self.priority = priority
        self.ready_at = ready_at
        self.attempts = 0
        self.not_before = 0.0
        self.started = 0.0
        self.first_started = None
        self.deadline = None
        self.proc = None
        self.conn = None
        self.wall_time = 0.0
        #: Pool slots this run occupies while it executes.  A partitioned
        #: run (``pdes_workers > 1``) spawns that many worker processes,
        #: so the scheduler bin-packs it as that many jobs (set when the
        #: task is queued).
        self.slots = 1
        #: Worker ids claimed while executing (``wids[0]`` names the run's
        #: worker in outcomes and telemetry); ``None`` between attempts.
        self.wids = None
        #: Tenant attribution for serve-session telemetry (``None`` for
        #: plain sweeps).
        self.tenant = tenant
        #: Predicted host seconds, echoed into telemetry (``None`` for
        #: session jobs).
        self.predicted = predicted
        #: A session cancel landed while the run was executing.
        self.canceled = False

    @property
    def node(self):
        return self.name or self.label

    @property
    def wid(self):
        return self.wids[0] if self.wids else None

    @property
    def wait_time(self):
        if self.first_started is None:
            return 0.0
        return max(0.0, self.first_started - self.ready_at)


class SweepEngine:
    """Executes job graphs; see the module docstring for the contract.

    ``run`` accepts a flat :class:`Sweep` (or iterable of specs) or a
    :class:`~repro.pipeline.PipelineSpec`; both are lowered to the same
    internal :class:`~repro.pipeline.JobGraph`.  All constructor
    parameters are keyword-only.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) executes in-process —
        identical numbers, easier debugging, and results keep live
        attachments.
    cache:
        A :class:`~repro.exec.cache.ResultCache` (or ``None`` to disable).
    timeout:
        Per-run wall-clock limit in seconds (subprocess runs only).
    retries:
        Crash/timeout retries per run before it is marked failed.
        Deterministic Python exceptions are *not* retried.
    backoff:
        Base of the exponential retry backoff (``backoff * 2**attempt``,
        plus up to 50% :func:`retry_jitter` seeded by the run
        fingerprint — never by wall clock, so retried sweeps reproduce).
    progress:
        Optional callback receiving event dicts (``event ∈ {cached,
        start, ok, retry, failed, blocked}``).
    mp_context:
        ``multiprocessing`` start method (default: ``fork`` where
        available, else ``spawn``).
    runner:
        Picklable ``spec_dict -> result_dict`` executed in workers
        (test/instrumentation hook; defaults to :func:`run_spec_dict`).
    stats:
        A :class:`~repro.exec.stats.RunStatsStore` (or ``None``).  Every
        completed run — including cache hits whose original duration
        rides in the cache envelope — updates it; predictions from it
        drive the critical-path-first ordering of the ready set.
    telemetry:
        A :class:`~repro.obs.telemetry.TelemetryBus` (or ``None``,
        the default: fully disabled, zero emission cost).  The engine
        emits every job-lifecycle transition — queued, launched,
        retried, done/failed/blocked, cache hits — with worker ids and
        slot counts, plus ``engine_start``/``engine_stop`` envelopes;
        pool children post ``run_start``/``run_end`` spans through a
        queue the parent drains.  Telemetry is not part of any
        :class:`RunSpec`: fingerprints, cache keys, and results are
        byte-identical with it on or off.
    drain_timeout:
        Seconds a graceful shutdown (:meth:`request_shutdown`, or
        SIGTERM/SIGINT while running on the main thread) waits for
        in-flight subprocess runs before terminating them.
    """

    def __init__(self, *, jobs=1, cache=None, timeout=None, retries=2,
                 backoff=0.25, progress=None, mp_context=None, runner=None,
                 stats=None, telemetry=None, drain_timeout=30.0):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.jobs = jobs
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.progress = progress
        self.runner = runner or run_spec_dict
        self.stats = stats
        self.telemetry = telemetry
        #: Seconds a graceful shutdown waits for in-flight subprocess
        #: runs before terminating them (see :meth:`request_shutdown`).
        self.drain_timeout = drain_timeout
        self._shutdown = False
        if stats is not None and telemetry is not None and getattr(
            stats, "telemetry", None
        ) is None:
            # Route the store's predicted-vs-actual reconciliation into
            # the same stream the engine writes.
            stats.telemetry = telemetry
        if mp_context is None:
            mp_context = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._ctx = multiprocessing.get_context(mp_context)

    # ------------------------------------------------------------------
    def request_shutdown(self):
        """Ask a running sweep to drain gracefully.

        The scheduling loop stops launching new work, waits up to
        ``drain_timeout`` seconds for in-flight subprocess runs to
        finish (terminating and failing whatever is still alive after
        that), marks every not-yet-launched node ``blocked`` with the
        distinct reason ``"engine shutdown"``, emits the terminal
        ``engine_stop`` telemetry record, and returns the partial
        report normally.  Safe to call from any thread or from a signal
        handler; :meth:`run` installs SIGTERM/SIGINT handlers that call
        it when running on the main thread, so an interrupted sweep
        drains instead of orphaning its worker processes.
        """
        self._shutdown = True

    def _install_signal_handlers(self):
        """SIGTERM/SIGINT -> graceful drain (main thread only)."""
        if threading.current_thread() is not threading.main_thread():
            return None
        previous = {}

        def _handler(signum, frame):
            self.request_shutdown()

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[sig] = signal.signal(sig, _handler)
            except (ValueError, OSError):  # pragma: no cover - platform
                pass
        return previous

    @staticmethod
    def _restore_signal_handlers(previous):
        if not previous:
            return
        for sig, handler in previous.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover - platform
                pass

    def run(self, sweep) -> SweepReport:
        """Execute a sweep or pipeline; outcomes come back in node order."""
        graph = self._as_graph(sweep)
        self._shutdown = False
        previous = self._install_signal_handlers()
        try:
            return self._run_graph(graph)
        finally:
            self._restore_signal_handlers(previous)

    def session(self, *, aging_rate=0.0) -> "EngineSession":
        """Open an :class:`EngineSession` for incremental job admission."""
        return EngineSession(self, aging_rate=aging_rate)

    @staticmethod
    def _as_graph(sweep):
        # Imported lazily: repro.pipeline layers *on top of* repro.exec,
        # so the module-level dependency must point only one way.
        from ..pipeline.graph import JobGraph
        from ..pipeline.spec import PipelineSpec

        if isinstance(sweep, JobGraph):
            return sweep
        if isinstance(sweep, PipelineSpec):
            return JobGraph.from_pipeline(sweep)
        if not isinstance(sweep, Sweep):
            sweep = Sweep(tuple(sweep))
        return JobGraph.from_sweep(sweep)

    # ------------------------------------------------------------------
    def predict_costs(self, graph) -> list:
        """Predicted host seconds per node, for scheduling.

        Measured history (EWMA per normalized signature) wins; cold
        nodes get the cost-model fallback rescaled by the median
        measured/fallback ratio of the warm nodes (host time and
        simulated work are different units) times
        :data:`~repro.exec.stats.FALLBACK_CONSERVATISM`.  Generator
        nodes have no spec before their predecessors finish, so they
        conservatively assume the most expensive concrete node.
        """
        costs = [None] * len(graph)
        fallbacks, measured = {}, {}
        for i, node in enumerate(graph.nodes):
            if node.spec is None:
                continue
            fallbacks[i] = fallback_cost(node.spec)
            if self.stats is not None:
                pred = self.stats.predict(spec_signature(node.spec))
                if pred is not None:
                    measured[i] = pred
        ratios = sorted(
            measured[i] / fallbacks[i]
            for i in measured
            if fallbacks[i] > 0
        )
        scale = ratios[len(ratios) // 2] if ratios else 1.0
        for i in fallbacks:
            costs[i] = measured.get(
                i, fallbacks[i] * scale * FALLBACK_CONSERVATISM
            )
        known = [c for c in costs if c is not None]
        default = max(known) if known else 1.0
        return [default if c is None else c for c in costs]

    @staticmethod
    def _node_fingerprint(node, dep_fingerprints) -> str:
        """Content address of a generator node's *analysis* value.

        Mixes the builder identity, its parameters, the predecessors'
        result fingerprints, and the package version — so an analysis
        entry is reused exactly when everything it was derived from is.
        """
        from .. import __version__

        blob = json.dumps(
            {
                "analysis": node.generator,
                "params": node.params or {},
                "deps": list(dep_fingerprints),
                "version": __version__,
            },
            sort_keys=True, separators=(",", ":"), allow_nan=False,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


    # ------------------------------------------------------------------
    def _run_graph(self, graph) -> SweepReport:
        t0 = time.monotonic()
        total = len(graph)
        outcomes = [None] * total
        fingerprints = {}   # index -> fingerprint for analysis hashing
        remaining = [len(p) for p in graph.preds]
        state = {"finished": 0}
        costs = self.predict_costs(graph)
        priority = graph.critical_path_priorities(costs)
        tel = self.telemetry
        if tel is not None:
            predicted_makespan = None
            try:
                predicted_makespan = graph.simulate_makespan(
                    costs, workers=self.jobs
                )
            except ValueError:
                pass  # degenerate graph: telemetry must never fail a run
            tel.emit(
                "engine_start", graph=graph.name, jobs=self.jobs,
                total=total, predicted_makespan=predicted_makespan,
            )
        # Cache counters are cumulative per ResultCache instance; the
        # stop record reports this graph's delta so streams holding many
        # engine sessions stay summable.
        cache_hits0 = getattr(self.cache, "hits", 0) or 0
        cache_misses0 = getattr(self.cache, "misses", 0) or 0

        def finish(outcome):
            """Record a terminal outcome and wake/block dependents."""
            index = outcome.index
            outcomes[index] = outcome
            state["finished"] += 1
            if outcome.ok:
                for s in graph.succs[index]:
                    if outcomes[s] is not None:
                        continue
                    remaining[s] -= 1
                    if remaining[s] == 0:
                        admit(s)
            else:
                cascade_block(index)

        core = _Lifecycle(
            self, finish, inline=self.jobs == 1, total=total,
            progress=self.progress,
        )

        def block(index, error, blocker):
            """Terminally block one node that never launched."""
            node = graph.nodes[index]
            outcome = RunOutcome(
                index=index, spec=node.spec, fingerprint=None,
                label=node.label, name=node.name, status="blocked",
                error=error,
            )
            outcomes[index] = outcome
            state["finished"] += 1
            core.emit("blocked", outcome)
            if tel is not None:
                tel.emit("job_blocked", node=node.name, blocker=blocker)

        def cascade_block(index):
            """Terminally block every not-yet-finished transitive dependent."""
            blocker = graph.nodes[index].name
            error = (
                f"blocked: predecessor {blocker!r} {outcomes[index].status}"
            )
            stack = list(graph.succs[index])
            while stack:
                s = stack.pop()
                if outcomes[s] is None:
                    block(s, error, blocker)
                    stack.extend(graph.succs[s])

        def cached(index, spec, fingerprint, kind):
            """Finish a node from a cache entry of ``kind``; ``False`` on
            a miss."""
            entry = (
                None if self.cache is None
                else self.cache.get_entry(fingerprint)
            )
            if entry is None or entry.kind != kind:
                return False
            node = graph.nodes[index]
            outcome = RunOutcome(
                index=index, spec=spec, fingerprint=fingerprint,
                label=node.label, name=node.name, status="cached",
                result=entry.value,
            )
            core.emit("cached", outcome)
            if tel is not None:
                tel.emit("job_cached", node=node.name, run=fingerprint)
            if spec is not None and self.stats is not None:
                # The original run's duration rides in the envelope.
                self.stats.record(
                    spec_signature(spec), entry.wall_time, cached=True,
                )
            finish(outcome)
            return True

        def admit(index):
            """A node's predecessors are all done: resolve and enqueue it.

            Cache lookups, generator builds, analysis reductions, and
            live-only trace runs all happen here, synchronously — a
            cached or analytic node unblocks its dependents without ever
            occupying a worker slot.
            """
            node = graph.nodes[index]
            ready_at = time.monotonic()
            spec = node.spec
            if node.builder is not None:
                deps = {
                    graph.nodes[p].name: outcomes[p].result
                    for p in graph.preds[index]
                }
                nfp = self._node_fingerprint(
                    node, [fingerprints[p] for p in graph.preds[index]]
                )
                fingerprints[index] = nfp
                if cached(index, None, nfp, "analysis"):
                    return
                try:
                    built = node.builder(dict(node.params or {}), deps)
                except Exception:
                    outcome = RunOutcome(
                        index=index, spec=None, fingerprint=nfp,
                        label=node.label, name=node.name, status="failed",
                        error=traceback.format_exc(), attempts=1,
                        wall_time=time.monotonic() - ready_at,
                    )
                    core.emit("failed", outcome)
                    if tel is not None:
                        tel.emit(
                            "job_failed", node=node.name, run=nfp,
                            attempts=1, error=outcome.error,
                        )
                    finish(outcome)
                    return
                if not isinstance(built, RunSpec):
                    # Analysis node: the value *is* the result.
                    wall = time.monotonic() - ready_at
                    if self.cache is not None:
                        self.cache.put_value(
                            nfp,
                            {
                                "generator": node.generator,
                                "params": node.params or {},
                                "deps": [
                                    fingerprints[p]
                                    for p in graph.preds[index]
                                ],
                            },
                            built,
                            wall_time=wall,
                        )
                    outcome = RunOutcome(
                        index=index, spec=None, fingerprint=nfp,
                        label=node.label, name=node.name, status="ok",
                        result=built, attempts=1, wall_time=wall,
                    )
                    core.emit("ok", outcome)
                    if tel is not None:
                        tel.emit(
                            "job_done", node=node.name, run=nfp,
                            status="ok", attempts=1, wall_time=wall,
                        )
                    finish(outcome)
                    return
                spec = built
            fingerprint = spec.fingerprint()
            fingerprints[index] = fingerprint
            task = _Pending(
                index, spec, fingerprint, node.label, node.name,
                priority[index], ready_at, predicted=costs[index],
            )
            if spec.trace:
                core.run_here(task)
                return
            if not cached(index, spec, fingerprint, "result"):
                core.queue(task)

        def drain_and_block():
            """Graceful shutdown: drain in-flight runs, block the rest.

            In-flight subprocess attempts get up to ``drain_timeout``
            seconds to finish (their results still count and cache);
            whatever survives the deadline is terminated and failed.
            Every node that never launched — queued, backing off, or
            not yet admitted — terminates as ``blocked`` with the
            distinct reason ``"engine shutdown"``.
            """
            deadline = time.monotonic() + max(0.0, self.drain_timeout or 0.0)
            while core.running:
                core.drain_telemetry()
                core.reap()
                if not core.running:
                    break
                if time.monotonic() > deadline:
                    core.terminate_all(
                        "failed",
                        "terminated: engine shutdown after "
                        f"{self.drain_timeout}s drain",
                    )
                    break
                time.sleep(0.01)
            # A run finishing during the drain may have admitted cached
            # or analytic successors (they completed synchronously) and
            # queued runnable ones — those, plus everything else not yet
            # terminal, block here.
            core.launchable.clear()
            for i in range(total):
                if outcomes[i] is None:
                    block(i, "blocked: engine shutdown", "<shutdown>")

        try:
            # Admit every root (in node order, so flat-sweep cache hits
            # keep their historical event ordering); admission cascades
            # through cached/analytic chains synchronously.
            for index in range(total):
                if remaining[index] == 0 and outcomes[index] is None:
                    admit(index)

            # Main scheduling loop: launch critical-path-first, reap.
            while state["finished"] < total:
                if self._shutdown:
                    drain_and_block()
                    break
                core.drain_telemetry()
                now = time.monotonic()
                task = core.pick(now, lambda t: (-t.priority, t.index))
                if task is not None:
                    core.start(task)
                    continue  # keep launching while slots and work last
                core.reap()
                if state["finished"] >= total:
                    break
                if not core.running and not core.launchable:
                    raise RuntimeError(
                        f"job graph {graph.name!r}: no runnable work but "
                        f"{total - state['finished']} node(s) unfinished"
                    )
                if not core.running:
                    # Everything runnable is backing off; nap until the
                    # soonest retry.
                    soonest = min(t.not_before for t in core.launchable)
                    time.sleep(max(0.0, min(0.05, soonest - now)))
                else:
                    time.sleep(0.005)
        finally:
            core.close()

        report = SweepReport(
            outcomes=outcomes, wall_time=time.monotonic() - t0
        )
        if tel is not None:
            cache = self.cache
            tel.emit(
                "engine_stop", graph=graph.name,
                reason="shutdown" if self._shutdown else None,
                makespan=report.wall_time, executed=report.executed,
                cached=report.cached, failed=report.failed,
                blocked=report.blocked,
                cache_hits=(
                    None if cache is None
                    else getattr(cache, "hits", 0) - cache_hits0
                ),
                cache_misses=(
                    None if cache is None
                    else getattr(cache, "misses", 0) - cache_misses0
                ),
            )
        return report


# ----------------------------------------------------------------------
# The job lifecycle shared by SweepEngine.run and EngineSession
# ----------------------------------------------------------------------
class _Lifecycle:
    """Everything that happens to a run between "ready" and "terminal".

    The caller owns admission and ordering: it hands ready tasks to
    :meth:`queue`, takes the next one under its own ordering key from
    :meth:`pick`, passes it to :meth:`start`, and calls :meth:`reap`
    until nothing is running.  Every terminal outcome goes to
    ``on_done``, where the caller does its own bookkeeping (waking
    dependents, resolving tickets).

    ``inline=True`` (``run()`` with ``jobs=1``) executes attempts in this
    process; otherwise each attempt is a subprocess, which a timeout or
    a cancel request can terminate.  ``progress`` is the caller's
    progress callback (``None``: no events); ``total`` rides in each
    event.
    """

    def __init__(self, engine, on_done, *, inline=False, total=0,
                 progress=None):
        self.engine = engine
        self.on_done = on_done
        self.inline = inline
        self.total = total
        self.progress = progress
        self.launchable = []    # ready or backing-off tasks awaiting a slot
        self.running = []       # tasks with a live subprocess attempt
        self.free_wids = list(range(engine.jobs))  # lowest-first
        self.tel = engine.telemetry
        # Pool children post their run_start/run_end spans here; the
        # parent stays the single writer of the stream.
        self.tel_queue = (
            engine._ctx.Queue()
            if self.tel is not None and not inline else None
        )

    # -- admission and launch -------------------------------------------
    def queue(self, task):
        """Admit a ready task; it waits in :attr:`launchable` for a slot."""
        task.slots = max(1, min(task.spec.pdes_workers or 1,
                                self.engine.jobs))
        if self.tel is not None:
            self.tel.emit(
                "job_queued", node=task.node, run=task.fingerprint,
                slots=task.slots, predicted=task.predicted,
                tenant=task.tenant,
            )
        self.launchable.append(task)

    def pick(self, now, key):
        """Remove and return the first launchable task under ``key`` whose
        backoff has expired and that fits the free slots, else ``None``.

        A partitioned run claims ``slots`` pool slots; narrower tasks may
        backfill around a wide one that does not fit yet (``not
        running`` guarantees progress for a task wider than what ever
        frees up).
        """
        self.launchable.sort(key=key)
        used = sum(t.slots for t in self.running)
        for task in self.launchable:
            if task.not_before <= now and (
                used + task.slots <= self.engine.jobs or not self.running
            ):
                self.launchable.remove(task)
                return task
        return None

    def start(self, task):
        """Claim ``task.slots`` worker ids and start the next attempt.

        A partitioned run is named by the lowest id it claims.
        """
        task.wids = self.free_wids[:task.slots]
        del self.free_wids[:task.slots]
        if self.inline:
            self.run_here(task)
        else:
            self._spawn(task)

    def _begin(self, task):
        task.attempts += 1
        task.started = time.monotonic()
        if task.first_started is None:
            task.first_started = task.started
        if self.tel is not None:
            self.tel.emit(
                "job_launched", node=task.node, run=task.fingerprint,
                wid=task.wid, slots=task.slots, attempt=task.attempts,
                predicted=task.predicted, tenant=task.tenant,
            )

    def _spawn(self, task):
        engine = self.engine
        parent, child = engine._ctx.Pipe(duplex=False)
        runner = engine.runner
        if self.tel_queue is not None:
            runner = _ChildTelemetryRunner(
                runner, self.tel_queue, task.node, task.fingerprint,
                task.wid,
            )
        # Partitioned runs (slots > 1) spawn their own PDES worker
        # processes, which daemonic children may not do — those
        # workers are daemons of the child, so they still die with
        # it; plain runs keep the stronger daemon cleanup guarantee.
        task.proc = engine._ctx.Process(
            target=_child_main,
            args=(child, runner, task.spec.to_dict()),
            daemon=task.slots == 1,
        )
        task.conn = parent
        self._begin(task)
        task.deadline = (
            task.started + engine.timeout if engine.timeout else None
        )
        task.proc.start()
        child.close()
        self.running.append(task)
        if task.attempts == 1:
            self.emit("start", self._outcome(task, "running"))

    def run_here(self, task):
        """One attempt in this process; returns the terminal outcome.

        Used by ``jobs=1`` pools and by live-only trace runs, which
        execute as worker ``-1`` (the engine parent, not a pool slot).
        An exception here is deterministic, so it is never retried.
        """
        if task.wids is None:
            task.wids = [-1]
        self._begin(task)
        try:
            result = run_simulation(task.spec)
        except Exception:
            task.wall_time += time.monotonic() - task.started
            return self.finalize(
                task, "failed", error=traceback.format_exc(),
            )
        elapsed = time.monotonic() - task.started
        task.wall_time += elapsed
        return self.finalize(task, "ok", result=result, exec_time=elapsed)

    # -- reap, retry, finalize ----------------------------------------
    def reap(self) -> list:
        """Collect every finished, overdue or canceled subprocess attempt.

        Returns the outcomes that became terminal (retried attempts go
        back to :attr:`launchable` instead).
        """
        finished = []
        for task in list(self.running):
            outcome = self._reap(task)
            if outcome is not None:
                finished.append(outcome)
        return finished

    def _reap(self, task):
        msg = reason = None
        kill = False
        if task.conn.poll():
            try:
                msg = task.conn.recv()
            except (EOFError, OSError):
                pass
        elif task.proc.is_alive():
            if task.deadline is not None and (
                time.monotonic() > task.deadline
            ):
                reason = f"timed out after {self.engine.timeout}s"
            elif not task.canceled:
                return None  # still working
            kill = True
        # A message arrived, the process died silently, or it is killed.
        elapsed = self._end_attempt(task, kill=kill)
        if msg is not None:
            kind, payload = msg
            if kind == "ok":
                # A completed result always wins, even over a pending
                # cancel — exactly-once beats promptly-withdrawn.
                return self.finalize(
                    task, "ok", result=RunResult.from_dict(payload),
                    exec_time=elapsed,
                )
            # Deterministic Python exception: retrying cannot help.
            return self.finalize(task, "failed", error=payload)
        if task.canceled:
            return self.finalize(
                task, "canceled", error="canceled while running",
            )
        return self._retry_or_fail(
            task,
            reason or f"worker died (exit code {task.proc.exitcode})",
        )

    def _end_attempt(self, task, kill=False):
        """Join (optionally terminating first) the attempt's subprocess.

        Charges the attempt to ``task.wall_time`` and returns its length.
        """
        if kill:
            try:
                task.proc.terminate()
            except (OSError, ValueError):  # pragma: no cover - race
                pass
        task.proc.join()
        try:
            task.conn.close()
        except OSError:
            pass
        self.running.remove(task)
        elapsed = time.monotonic() - task.started
        task.wall_time += elapsed
        return elapsed

    def _retry_or_fail(self, task, reason):
        if task.attempts > self.engine.retries:
            return self.finalize(task, "failed", error=reason)
        self._release(task)
        if self.tel is not None:
            self.tel.emit(
                "job_retry", node=task.node, run=task.fingerprint,
                attempt=task.attempts, reason=reason, tenant=task.tenant,
            )
        # Exponential backoff with seeded jitter (up to +50%).
        task.not_before = time.monotonic() + (
            self.engine.backoff
            * (2 ** (task.attempts - 1))
            * (1.0 + 0.5 * retry_jitter(task.fingerprint, task.attempts))
        )
        self.launchable.append(task)
        self.emit("retry", self._outcome(task, "retrying", error=reason))
        return None

    def finalize(self, task, status, result=None, error=None,
                 exec_time=None):
        """Make ``task`` terminal and hand its outcome to ``on_done``.

        A successful run is stored to the cache (trace runs are
        live-only and never are) and folded into the stats store.
        """
        outcome = self._outcome(
            task, status, result=result, error=error, exec_time=exec_time,
        )
        self._release(task)
        engine = self.engine
        ok = status == "ok"
        if ok and engine.cache is not None and not task.spec.trace:
            engine.cache.put(
                task.fingerprint, task.spec, result, wall_time=exec_time,
            )
        self.emit(status, outcome)
        if self.tel is not None:
            if status == "failed":
                self.tel.emit(
                    "job_failed", node=task.node, run=task.fingerprint,
                    wid=outcome.worker_id, attempts=task.attempts,
                    wall_time=task.wall_time, error=error,
                    tenant=task.tenant,
                )
            else:
                self.tel.emit(
                    "job_done", node=task.node, run=task.fingerprint,
                    wid=outcome.worker_id, status=status,
                    attempts=task.attempts, wall_time=task.wall_time,
                    exec_time=exec_time, wait_time=task.wait_time,
                    predicted=task.predicted, tenant=task.tenant,
                )
        if ok and engine.stats is not None:
            engine.stats.record(spec_signature(task.spec), exec_time)
        self.on_done(outcome)
        return outcome

    def _release(self, task):
        """Return a task's claimed worker ids to the free list."""
        if task.wid is not None and task.wid >= 0:
            self.free_wids.extend(task.wids)
            self.free_wids.sort()
        task.wids = None

    def _outcome(self, task, status, **fields):
        return RunOutcome(
            index=task.index, spec=task.spec, fingerprint=task.fingerprint,
            label=task.label, name=task.name, status=status,
            attempts=task.attempts, wall_time=task.wall_time,
            wait_time=task.wait_time, worker_id=task.wid, slots=task.slots,
            **fields,
        )

    # -- shutdown and reporting ---------------------------------------
    def terminate_all(self, status, error):
        """Kill every running attempt; each finishes ``status``."""
        for task in list(self.running):
            self._end_attempt(task, kill=True)
            self.finalize(task, status, error=error)

    def drain_telemetry(self):
        if self.tel_queue is not None:
            drain_queue(self.tel_queue, self.tel)

    def close(self):
        """Flush the children's telemetry and persist the stats store.

        Call once every child is joined: a last drain empties the
        queue, then its feeder thread can go.
        """
        if self.tel_queue is not None:
            drain_queue(self.tel_queue, self.tel)
            self.tel_queue.close()
            self.tel_queue = None
        if self.engine.stats is not None:
            self.engine.stats.flush()

    def emit(self, event, outcome):
        """Report one lifecycle event to the progress callback, if any."""
        if self.progress is None:
            return
        self.progress({
            "event": event,
            "index": outcome.index,
            "total": self.total,
            "label": outcome.label,
            "name": outcome.name,
            "fingerprint": outcome.fingerprint,
            "status": outcome.status,
            "attempts": outcome.attempts,
            "wall_time": outcome.wall_time,
            "wait_time": outcome.wait_time,
            "worker_id": outcome.worker_id,
            "slots": outcome.slots,
        })


# ----------------------------------------------------------------------
# Incremental admission: EngineSession
# ----------------------------------------------------------------------
@dataclass
class SessionStep:
    """What one :meth:`EngineSession.poll` call advanced."""

    #: Tickets whose first subprocess attempt launched this step.
    started: list = field(default_factory=list)
    #: ``(ticket, RunOutcome)`` pairs that reached a terminal state.
    finished: list = field(default_factory=list)


class EngineSession:
    """Incremental job admission into a live engine.

    :meth:`SweepEngine.run` executes one closed job graph start to
    finish; a session stays open instead: callers :meth:`submit`
    independent specs at any time, :meth:`poll` advances launching and
    reaping without ever blocking on a run, :meth:`cancel` withdraws
    queued work (and best-effort terminates running work), and
    :meth:`drain`/:meth:`close` wind the session down.  The serving
    layer (:mod:`repro.serve`) runs its broker on one of these.

    The session drives the same job lifecycle as ``run()`` (launch,
    reap, retry with seeded backoff, finalize into the cache and the
    stats store, terminate-on-close; see the module docstring) and
    decides only what is its own:

    * **tickets and cancel requests**, under one lock;
    * **ordering**: ready work launches by ``priority + aging_rate *
      age`` (highest first), so a weighted-fair caller can hand tenants
      different base priorities without starving anyone;
    * **always a subprocess, even with ``jobs=1``** — a poll must never
      block on a simulation, and a cancel needs a process to terminate;
    * **no cache lookups** — the caller decides its own fast path (the
      serve broker coalesces *before* the session ever sees a spec) —
      and no progress events.

    Thread-safe: submit/cancel/poll may race from different threads.
    """

    def __init__(self, engine: SweepEngine, *, aging_rate=0.0):
        self.engine = engine
        self.aging_rate = aging_rate
        self._lock = threading.RLock()
        self._core = _Lifecycle(engine, self._resolve)
        self._tickets = {}        # ticket -> live _Pending
        self._outcomes = {}       # ticket -> terminal RunOutcome
        self._next_ticket = 0
        self._closed = False
        self._started_t = time.monotonic()
        if engine.telemetry is not None:
            engine.telemetry.emit(
                "engine_start", graph="session", jobs=engine.jobs, total=0,
            )

    # ------------------------------------------------------------------
    def submit(self, spec, *, name=None, priority=0.0, tenant=None) -> int:
        """Enqueue one spec; returns a ticket for polling/cancelling.

        ``tenant`` is attribution only: it rides on the session's job
        telemetry records so one stream serving many tenants still
        attributes every event — it never affects scheduling beyond the
        caller-chosen ``priority``.
        """
        fingerprint = spec.fingerprint()   # outside the lock: it hashes
        with self._lock:
            if self._closed:
                raise RuntimeError("session is closed")
            ticket = self._next_ticket
            self._next_ticket += 1
            name = name or f"job-{ticket}"
            task = _Pending(
                ticket, spec, fingerprint, name, name, priority,
                time.monotonic(), tenant=tenant,
            )
            self._tickets[ticket] = task
            self._core.queue(task)
            return ticket

    def outcome(self, ticket):
        """The terminal :class:`RunOutcome`, or ``None`` while live."""
        with self._lock:
            return self._outcomes.get(ticket)

    @property
    def active(self) -> int:
        """Jobs submitted but not yet terminal."""
        with self._lock:
            return len(self._tickets)

    @property
    def busy_slots(self) -> int:
        """Worker slots currently claimed by running jobs."""
        with self._lock:
            return sum(t.slots for t in self._core.running)

    # ------------------------------------------------------------------
    def cancel(self, ticket) -> bool:
        """Withdraw a job: immediate for queued, best-effort for running.

        Returns ``True`` when the cancel took (or was already pending),
        ``False`` when the job is already terminal or unknown.  A run
        that completes before the terminate lands keeps its result —
        the outcome then reads ``ok``, never ``canceled``.
        """
        with self._lock:
            task = self._tickets.get(ticket)
            if task is None:
                return False
            if task in self._core.launchable:
                self._core.launchable.remove(task)
                self._core.finalize(task, "canceled",
                                    error="canceled while queued")
                return True
            # The next reap terminates it (again) and finalizes.
            task.canceled = True
            try:
                task.proc.terminate()
            except (OSError, ValueError):  # pragma: no cover - race
                pass
            return True

    # ------------------------------------------------------------------
    def poll(self) -> SessionStep:
        """Advance the session one step; never blocks on a run."""
        step = SessionStep()
        with self._lock:
            core = self._core
            core.drain_telemetry()
            now = time.monotonic()

            def aged(task):
                age = now - task.ready_at
                return (-(task.priority + self.aging_rate * age), task.index)

            while True:
                task = core.pick(now, aged)
                if task is None:
                    break
                core.start(task)
                if task.attempts == 1:
                    step.started.append(task.index)
            step.finished = [(o.index, o) for o in core.reap()]
        return step

    def drain(self, timeout=None) -> bool:
        """Poll until every submitted job is terminal (or ``timeout``).

        Returns ``True`` when fully drained.  Jobs still alive at the
        deadline are left running — call :meth:`close` to terminate.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.active:
            self.poll()
            if not self.active:
                break
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.01)
        return True

    def close(self):
        """Terminate everything still live; the session ends canceled.

        Queued jobs finish ``canceled`` immediately; running processes
        are terminated and finish ``canceled`` too.  Durations recorded
        during the session are persisted, as at the end of ``run()``.
        Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            core = self._core
            error = "canceled: session closed"
            for task in list(core.launchable):
                core.launchable.remove(task)
                core.finalize(task, "canceled", error=error)
            core.terminate_all("canceled", error)
            core.close()
            tel = self.engine.telemetry
            if tel is not None:
                counts = {"ok": 0, "failed": 0, "canceled": 0}
                for outcome in self._outcomes.values():
                    counts[outcome.status] += 1
                tel.emit(
                    "engine_stop", graph="session",
                    makespan=time.monotonic() - self._started_t,
                    executed=counts["ok"], cached=0,
                    failed=counts["failed"], blocked=0,
                    canceled=counts["canceled"],
                )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # ------------------------------------------------------------------
    def _resolve(self, outcome):
        """Lifecycle callback: a ticket reached its terminal outcome."""
        self._outcomes[outcome.index] = outcome
        self._tickets.pop(outcome.index, None)
