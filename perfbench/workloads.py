"""The benchmark's four workloads: inputs from a seed, the timed
operation, and the checks that the program's outputs are correct.

Every workload is a closed loop: one caller waits for each result before
issuing the next.  The program sees only the generated ``RunSpec``s and
is driven through its public entry points,
``repro.core.driver.execute`` and ``repro.exec.SweepEngine.run``.

For the simulation workloads seed 0 is the paper's Fig 4 input, and
any other seed moves the four spheres' start centres by up to
:data:`JITTER` per coordinate, which keeps the simulated work within a
few percent of the paper input.  The sweep needs more distinct points
than its ladders have (each ladder point twice in the cold pass, and
points never seen before in every timed pass), so its centres are
jittered on every seed, 0 included; the seed also orders its points and
places the new ones.
"""

import dataclasses
import hashlib
import json
import os
import random
import shutil

#: Largest sphere-centre offset per coordinate (unit-cube mesh).
JITTER = 0.01

#: Relative checksum tolerance between variants of one input, as in the
#: repository's cross-variant property test.
CHECKSUM_RTOL = 1e-12


def digest(result):
    """sha256 of a ``RunResult``'s serializable fields.

    The profile and phase summary are dropped, so a profiled run and an
    unprofiled run of the same spec must agree.
    """
    d = result.to_dict()
    d.pop("profile", None)
    d.pop("phase_summary", None)
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def fig4_root(nodes):
    """Root block grid of the Fig 4 weak-scaling ladder at ``nodes``."""
    from repro.bench.inputs import weak_root_dims

    return weak_root_dims((2, 2, 2), nodes.bit_length() - 1)


#: Root block grid of the Fig 5 strong-scaling ladder at 1-2 nodes.
FIG5_SMALL_ROOT = (4, 4, 2)


def scaled_spec(variant, nodes, root, tsteps, stages, rng=None,
                pdes_workers=1):
    """One point of the paper's scaling ladders on the scaled preset.

    Built like ``repro.bench.experiments.weak_scaling`` builds its
    points; with ``rng=None`` the spec is exactly the ladder's.
    """
    from repro.bench.experiments import SCALED_RPN, TAMPI_OPTS, build_config
    from repro.bench.inputs import four_spheres
    from repro.core.spec import RunSpec

    objects = four_spheres(tsteps)
    if rng is not None:
        objects = tuple(
            dataclasses.replace(
                o,
                center=tuple(
                    c + rng.uniform(-JITTER, JITTER) for c in o.center
                ),
            )
            for o in objects
        )
    rpn = SCALED_RPN[variant]
    cfg = build_config(
        nodes * rpn, root, objects,
        num_tsteps=tsteps, stages_per_ts=stages, refine_freq=2,
        checksum_freq=10, max_refine_level=2, payload="synthetic",
        **(TAMPI_OPTS if variant == "tampi_dataflow" else {}),
    )
    return RunSpec(
        config=cfg, machine="marenostrum4_scaled", variant=variant,
        num_nodes=nodes, ranks_per_node=rpn, pdes_workers=pdes_workers,
    )


def _profile_metric(result, name):
    return sum(
        m["total"] for m in result.profile.metrics if m["name"] == name
    )


def _run_counters(results):
    """Simulated-work counters summed over ``results``."""
    stats = [s for r in results for s in r.runtime_stats]
    executed = sum(s.tasks_executed for s in stats)
    return {
        "tasking.tasks_spawned": sum(s.tasks_spawned for s in stats),
        "tasking.tasks_executed": executed,
        "tasking.locality_hit_ratio": (
            sum(s.locality_hits for s in stats) / executed
            if executed else 0.0
        ),
        "tasking.steals": sum(s.steals for s in stats),
        "tasking.taskwaits": sum(s.taskwaits for s in stats),
        "mpi.messages": sum(r.comm_stats.messages for r in results),
        "mpi.bytes_sent": sum(r.comm_stats.bytes_sent for r in results),
        "mpi.inter_node_messages": sum(
            r.comm_stats.inter_node_messages for r in results
        ),
        "amr.num_blocks": sum(r.num_blocks for r in results),
        "core.flops": sum(r.flops for r in results),
    }


class Workload:
    """Common bookkeeping: every executed run or sweep outcome is one
    attempted operation; an exception or a wrong output is a failure."""

    #: Whether the timed operation executes simulations in this process
    #: (``execute``) rather than through the sweep engine.
    simulation = True
    #: Cores the timed operation keeps busy at once (see hostspeed); 0
    #: scores its times as measured.
    cores = 1

    def __init__(self, seed, reference, workdir):
        self.seed = seed
        self.reference = reference
        self.workdir = workdir
        self.attempted = 0
        self.failures = []
        #: Counters the program exposes, for the per-layer metrics.
        self.counters = {}

    def fail(self, message):
        self.failures.append(message)

    # The protocol the runner drives, in order:
    def setup(self):
        """Imports, spec generation and resolution (timed as setup_s)."""

    def warmup(self):
        """Untimed run(s) before the timed operations."""

    def op(self):
        """One timed operation."""
        raise NotImplementedError

    def verify(self):
        """Untimed check of the last operation's outputs."""

    def check(self):
        """Untimed checks and counters after the timed operations."""

    def close(self):
        """Release what :meth:`setup` created."""


class Simulation(Workload):
    """One simulated world through ``repro.core.driver.execute``."""

    def __init__(self, seed, reference, workdir, *, variant, nodes,
                 tsteps, stages, pdes_workers=1, partner=None):
        super().__init__(seed, reference, workdir)
        self.variant = variant
        self.nodes = nodes
        self.tsteps = tsteps
        self.stages = stages
        self.pdes_workers = pdes_workers
        # The partitioned kernel is timed as measured: over five 10-seed
        # proofs the two-core kernel widened its spread in four (see
        # README).
        self.cores = 1 if pdes_workers == 1 else 0
        self.partner = partner
        #: (label, digest) of every run of the workload's spec.
        self.digests = []
        self.last = None

    def _spec(self, variant, pdes_workers=1):
        rng = random.Random(self.seed) if self.seed else None
        return scaled_spec(
            variant, self.nodes, fig4_root(self.nodes), self.tsteps,
            self.stages, rng=rng, pdes_workers=pdes_workers,
        )

    def _execute(self, spec):
        from repro.core.driver import execute

        self.attempted += 1
        return execute(spec)

    def setup(self):
        import repro.core.driver  # noqa: F401  (timed import)

        self.spec = self._spec(self.variant, self.pdes_workers)
        self.serial = self._spec(self.variant)
        self.spec.resolve()
        self.serial.resolve()

    def warmup(self):
        if self.pdes_workers > 1:
            # Warms the partitioned kernel's imports and fork path; its
            # workers start from a fresh fork on every run anyway.
            small = scaled_spec(
                self.variant, 2, fig4_root(2), 1, 2,
                pdes_workers=self.pdes_workers,
            )
            if self._execute(small).num_blocks <= 0:
                self.fail("PDES warm-up produced an empty mesh")
            return
        result = self._execute(self.spec)
        self.digests.append(("warm-up", digest(result)))

    def op(self):
        self.last = self._execute(self.spec)

    def verify(self):
        self.digests.append(("run", digest(self.last)))

    def check(self):
        # One profiled run on the serial kernel: the simulated-event and
        # TAMPI counters, and the reference every run must reproduce.
        profiled = self._execute(dataclasses.replace(self.serial,
                                                     profile=True))
        truth = digest(profiled)
        expected = self.reference.get(self.name) if self.seed == 0 else None
        if expected is not None and truth != expected:
            self.fail(f"serial run digest {truth[:12]} != reference "
                      f"{expected[:12]}")
            truth = expected
        for label, d in self.digests:
            if d != truth:
                self.fail(f"{label} digest {d[:12]} != serial "
                          f"{truth[:12]}")
        self.counters.update(_run_counters([self.last]))
        self.counters["simx.events"] = _profile_metric(
            profiled, "kernel.events"
        )
        self.counters["tampi.requests_bound"] = _profile_metric(
            profiled, "tampi.requests_bound"
        )
        if self.partner is not None:
            self._cross_check(self._execute(self._spec(self.partner)))

    def _cross_check(self, other):
        """Variants of one input agree on the mesh and its checksums."""
        import numpy as np

        mine = self.last
        if other.num_blocks != mine.num_blocks:
            self.fail(f"{self.partner} num_blocks {other.num_blocks} != "
                      f"{mine.num_blocks}")
            return
        if len(other.checksums) != len(mine.checksums):
            self.fail(f"{self.partner} checksum count differs")
            return
        for (_ta, a, _da), (_tb, b, _db) in zip(mine.checksums,
                                                other.checksums):
            a, b = np.asarray(a), np.asarray(b)
            if np.max(np.abs(a - b) / np.abs(a)) >= CHECKSUM_RTOL:
                self.fail(f"{self.partner} checksums differ beyond "
                          f"{CHECKSUM_RTOL:g} relative")
                return

    def reference_digest(self):
        """Digest of the serial kernel's result at this seed."""
        return digest(self._execute(self.serial))


class Sweep(Workload):
    """Many small ladder worlds through ``SweepEngine`` with a result
    cache and a stats store.

    The warm-up is the cold pass: it executes :data:`POOL` twice over
    (jittered on every seed, so that the two copies differ; in seed
    order) and writes every result to a fresh cache.  Each timed pass
    then runs the same points again, all served from the cache, together
    with the previous pass's new points (also cached now) and
    :data:`NEW_POINTS` points never seen before, placed at seed-chosen
    positions and written to the cache beside the reads.
    """

    simulation = False

    #: (ladder root, variant, nodes, tsteps, stages) of the cold pass.
    POOL = tuple(
        (root, variant, nodes, tsteps, stages)
        for root in ("fig4", "fig5")
        for variant in ("mpi_only", "fork_join", "tampi_dataflow")
        for nodes in (1, 2)
        for tsteps, stages in ((1, 2), (1, 4))
    )
    #: Kinds of the points each timed pass executes for the first time.
    #: The cheapest kinds, so that cache reads stay a large share of a
    #: pass.
    NEW_POINTS = (
        ("fig4", "fork_join", 1, 1, 2),
        ("fig4", "mpi_only", 1, 1, 2),
    )

    def _point(self, kind):
        root, variant, nodes, tsteps, stages = kind
        grid = fig4_root(nodes) if root == "fig4" else FIG5_SMALL_ROOT
        return scaled_spec(variant, nodes, grid, tsteps, stages,
                           rng=self.rng)

    def setup(self):
        from repro.exec import ResultCache, RunStatsStore, SweepEngine

        self.rng = random.Random(self.seed)
        self.base = [self._point(kind) for kind in self.POOL * 2]
        self.rng.shuffle(self.base)
        for spec in self.base:
            spec.resolve()
        self.jobs = min(2, len(os.sched_getaffinity(0)))
        # New points run on every worker at once, beside the cache reads.
        self.cores = self.jobs
        cache_dir = self.workdir / "sweep-cache"
        shutil.rmtree(cache_dir, ignore_errors=True)
        self.engine = SweepEngine(
            jobs=self.jobs,
            cache=ResultCache(cache_dir),
            stats=RunStatsStore(cache_dir / "stats.json"),
        )
        #: fingerprint -> digest of every result executed so far.
        self.known = {}
        self.prev_new = []
        self.last = None

    def _check(self, report):
        for o in report.outcomes:
            self.attempted += 1
            expected = "cached" if o.fingerprint in self.known else "ok"
            if o.status != expected:
                self.fail(f"{o.label}: {o.status}, expected {expected}"
                          + (f" ({o.error.strip().splitlines()[-1]})"
                             if o.error else ""))
                continue
            d = digest(o.result)
            if expected == "ok":
                self.known[o.fingerprint] = d
            elif d != self.known[o.fingerprint]:
                self.fail(f"{o.label}: cached result differs from the "
                          "executed one")

    def _prepare(self):
        """The next pass: the known points, the previous pass's new
        points and fresh ones at seed-chosen positions."""
        from repro.exec import Sweep as SweepInput

        new = [self._point(kind) for kind in self.NEW_POINTS]
        specs = self.base + self.prev_new
        for spec in new:
            specs.insert(self.rng.randrange(len(specs) + 1), spec)
        self.prev_new = new
        self.next_pass = SweepInput(tuple(specs))

    def warmup(self):
        from repro.exec import Sweep as SweepInput

        cold = self.engine.run(SweepInput(tuple(self.base)))
        self._check(cold)
        self.cold_digest = hashlib.sha256(
            "\n".join(digest(r) for r in cold.results if r is not None)
            .encode()
        ).hexdigest()
        expected = self.reference.get("sweep") if self.seed == 0 else None
        if expected is not None and self.cold_digest != expected:
            self.fail(f"cold pass digest {self.cold_digest[:12]} != "
                      f"reference {expected[:12]}")
        # One warm pass, so that every timed pass has one before it.
        self._prepare()
        self.op()
        self.verify()

    def op(self):
        self.last = self.engine.run(self.next_pass)

    def verify(self):
        self._check(self.last)
        self._prepare()

    def hit_ms(self):
        """Milliseconds per cache hit over a pass served wholly from
        the cache."""
        from repro.exec import Sweep as SweepInput

        report = self.engine.run(SweepInput(tuple(self.base)))
        self._check(report)
        return 1e3 * report.wall_time / len(self.base)

    def check(self):
        report = self.last
        executed = [o for o in report.outcomes if o.status == "ok"]
        exec_s = sum(o.exec_time or 0.0 for o in report.outcomes)
        self.counters.update(_run_counters([o.result for o in executed]))
        self.counters.update({
            "exec.executed": report.executed,
            "exec.cached": report.cached,
            "exec.failed": report.failed + report.blocked,
            "exec.attempts": sum(o.attempts for o in report.outcomes),
            "exec.cache_hit_ratio": report.cached / max(
                1, report.cached + report.executed
            ),
            "exec.job_wait_s": sum(o.wait_time for o in report.outcomes),
            "exec.job_exec_s": exec_s,
            "exec.slot_idle_s": self.jobs * report.wall_time - exec_s,
        })

    def reference_digest(self):
        return self.cold_digest

    def close(self):
        shutil.rmtree(self.workdir / "sweep-cache", ignore_errors=True)


def make(name, seed, reference, workdir):
    """The workload called ``name``."""
    if name == "sweep":
        wl = Sweep(seed, reference, workdir)
    else:
        wl = Simulation(seed, reference, workdir, **SIMULATIONS[name])
    wl.name = name
    return wl


#: The simulated worlds, keyed by workload name.
SIMULATIONS = {
    # Fig 4 weak scaling, 4 scaled nodes, TAMPI+OSS: the paper's
    # contribution; the tasking runtime takes the largest share here.
    "fig4-tampi": dict(variant="tampi_dataflow", nodes=4, tsteps=3,
                       stages=10, partner="mpi_only"),
    # The same mesh under MPI-only: zero tasks, so it bypasses tasking
    # and isolates the event kernel and simulated MPI.
    "fig4-mpi": dict(variant="mpi_only", nodes=4, tsteps=3, stages=10),
    # 16 scaled nodes on the partitioned kernel with 2 workers: the only
    # workload that runs repro.simx.parallel.  One timestep keeps a run
    # inside the benchmark's time budget; at 16 nodes 2 workers still
    # beat the serial kernel (at 8 nodes they did not).
    "pdes-tampi": dict(variant="tampi_dataflow", nodes=16, tsteps=1,
                       stages=10, pdes_workers=2),
}

#: Workload names in run order.
NAMES = ("fig4-tampi", "fig4-mpi", "pdes-tampi", "sweep")
