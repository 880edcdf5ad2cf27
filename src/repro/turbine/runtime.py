"""The Swift/T runtime: wire MPI ranks into servers, engines, workers.

:func:`run_turbine_program` is the execution entry point used by the
public API: it launches a thread-backed MPI world, assigns roles per
the paper's Fig. 2 layout, loads the generated Tcl program on every
non-server rank (real Turbine does the same — this is what makes
worker-side procs resolvable), runs ``main`` on the first engine, and
collects output and statistics.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..adlb import constants as C
from ..adlb.client import AdlbClient
from ..adlb.layout import Layout, ServerMap
from ..adlb.server import Server, ServerStats
from ..faults import (
    DeadlineExceeded,
    EngineLost,
    FaultState,
    RankKilled,
    ServerLost,
    TaskError,
    TaskFailure,
)
from ..mpi import Comm, RankFailure, run_world
from ..obs.metrics import Metrics
from ..obs.monitor import RunMonitor
from ..tcl.interp import Interp
from .builtins import register_turbine
from .config import RuntimeConfig
from .engine import Engine, EngineStats
from .tcllib import TURBINE_TCL
from .unit import UnitRunner
from .worker import Worker, WorkerStats


class Output:
    """Thread-safe collector of program output across ranks."""

    def __init__(self, echo: bool = False):
        self._lock = threading.Lock()
        self.lines: list[tuple[int, str]] = []
        self.echo = echo

    def emit(self, rank: int, line: str) -> None:
        with self._lock:
            self.lines.append((rank, line))
            if self.echo:  # under the lock: print writes text and newline apart
                print(line)

    def text(self) -> str:
        return "\n".join(line for _, line in self.lines)


@dataclass
class RankContext:
    """Per-rank state handed to builtin commands."""

    layout: Layout
    role: str
    output: Output
    config: RuntimeConfig


@dataclass
class RunResult:
    output: Output
    elapsed: float
    # The stats structs of the ranks that exited cleanly (a killed rank
    # hands nothing back; what it counted is in ``metrics`` all the same).
    server_stats: list[ServerStats] = field(default_factory=list)
    engine_stats: list[EngineStats] = field(default_factory=list)
    worker_stats: list[WorkerStats] = field(default_factory=list)
    # Leaf tasks this run ran to completion, on every worker — killed
    # ones included, which is why it is not a sum over ``worker_stats``.
    tasks_run: int = 0
    # Populated when the run was traced (trace=True / a session recorder).
    trace: Any | None = None
    # The recorder's repro.obs.Metrics table; None when the run had
    # no recorder (flightrec=False, trace=False).  Read via ``metrics``.
    registry: Any | None = field(default=None, repr=False)
    # MonitorSample rows from a monitor=True run (chronological).
    timeline: list = field(default_factory=list)
    # Units of work that failed permanently but did not abort the run
    # (on_error="continue", or retries exhausted on a dead rank).
    failures: list[TaskFailure] = field(default_factory=list)
    # Units quarantined as poisonous: their attempts repeatedly killed
    # their host ranks, so the server withdrew them instead of
    # respawn-looping (repro.faults.QuarantinedTask records).
    quarantined: list = field(default_factory=list)
    # repro.chaos.invariants.RunAudit when the run had audit=True:
    # per-rank terminal bookkeeping rows plus the invariant verdicts.
    audit: Any | None = None
    # FaultStats of the run's FaultPlan (None when no plan attached):
    # how many injections actually fired, independent of tracing.
    fault_stats: Any | None = None
    # Flight-recorder black box (dict) captured when the run completed
    # with failures or quarantined units; None on clean runs or with
    # flightrec=False.  Aborting failures carry theirs on the raised
    # exception instead (e.blackbox / e.blackbox_path).
    blackbox: Any | None = None
    # Path of the written blackbox-*.json (when blackbox_dir was set).
    blackbox_path: str | None = None

    @property
    def ok(self) -> bool:
        return not self.failures and not self.quarantined

    @property
    def stdout(self) -> str:
        return self.output.text()

    @property
    def stdout_lines(self) -> list[str]:
        return [line for _, line in self.output.lines]

    @property
    def metrics(self) -> dict | None:
        """Counters and gauges of the run — ``mpi.sends``,
        ``adlb.data_ops``, ``engine.rules_created``, ... — as plain
        dicts, summed over every rank that counted, dead ones included.
        Available on untraced runs too; None without a recorder.  A
        traced run adds its latency ``histograms`` (read off the trace)."""
        if self.trace is not None:
            return self.trace.metrics
        return self.registry.snapshot() if self.registry is not None else None

    @property
    def profile(self):
        """Aggregated :class:`repro.obs.Profile` of the traced run."""
        if self.trace is None:
            raise RuntimeError(
                "no trace collected for this run; enable tracing with "
                "swift_run(..., trace=True) or `repro profile`"
            )
        from ..obs import Profile

        return Profile.from_trace(self.trace)


SetupFn = Callable[[Interp, RankContext, AdlbClient], None]


def load_rank(
    interp: Interp,
    client: AdlbClient,
    ctx: RankContext,
    unit: UnitRunner,
    setup: SetupFn | None,
) -> None:
    """Load the Turbine library and the standard leaf-language
    packages into an engine or worker rank's Tcl interpreter."""
    interp.echo = False
    rules = unit.rules if unit.add_rules is not None else None
    register_turbine(interp, client, ctx, unit.deferred, unit.held, rules, unit.writes, unit.scratch)
    interp.eval(TURBINE_TCL)
    if ctx.config.args:
        from ..tcl.listutil import format_list

        flat: list[str] = []
        for key, value in ctx.config.args.items():
            flat.append(str(key))
            flat.append(str(value))
        interp.set_var("::swift_argv", format_list(flat))
    # Standard leaf-language packages (paper §III): embedded Python and
    # R interpreters, the shell interface, and blob utilities.
    from ..interlang import register_standard_packages

    register_standard_packages(interp, ctx)
    if setup is not None:
        setup(interp, ctx, client)


def run_turbine_program(
    program: str,
    config: RuntimeConfig | None = None,
    setup: SetupFn | None = None,
    entry: str = "swift:main",
) -> RunResult:
    """Execute a Turbine Tcl program on a fresh thread-backed world.

    ``program`` is loaded on every engine and worker rank; ``entry`` is
    invoked on the first engine rank only.
    """
    config = (config or RuntimeConfig()).resolve()
    replicate, journal, reliable = config.replicate, config.journal, config.reliable
    layout = config.layout()
    recorder = config.recorder()
    # The run's counter table: every layer of every rank registers its
    # stats struct here as it is built.
    metrics = recorder.metrics if recorder is not None else Metrics()
    tasks_before = metrics.counter("worker.tasks_run")  # a session's earlier runs
    faults = None
    if config.faults is not None:
        faults = FaultState(config.faults)
        metrics.register("fault", faults.stats)
    server_map = ServerMap(layout)  # one per world: failover re-points it
    restore_shards: dict[int, dict] = {}
    restore_rules: dict[int, list] = {}
    restoring = config.restore is not None
    if restoring:
        from ..adlb.checkpoint import read_checkpoint, restore_plan

        plan = restore_plan(read_checkpoint(config.restore), layout)
        restore_shards = plan["server_shards"]
        restore_rules = plan["engine_rules"]
    monitor = None
    if config.monitor:
        out = config.monitor if callable(config.monitor) else None
        monitor = RunMonitor(metrics, out)
    output = Output(echo=config.echo)

    def main(comm: Comm) -> Server | Engine | Worker | None:
        """One rank's life.  Returns the rank's server / engine /
        worker if it exited cleanly, None if it was killed."""
        rank = comm.rank
        role = layout.role(rank)
        ctx = RankContext(layout=layout, role=role, output=output, config=config)
        try:
            if role == "server":
                server = Server(
                    comm,
                    layout,
                    lease_timeout=config.lease_timeout,
                    max_retries=config.max_retries,
                    on_error=config.on_error,
                    server_map=server_map,
                    replicate=replicate,
                    journal=journal,
                    faults=faults,
                    reliable=reliable,
                    checkpoint_path=config.checkpoint_path,
                    checkpoint_interval=config.checkpoint_interval,
                    restore_shard=restore_shards.get(rank),
                )
                server.run()
                return server
            client = AdlbClient(comm, layout, server_map=server_map, reliable=reliable)
            interp = Interp()
            metrics.register("tcl.vm", interp.vm_stats, rank)
            if role == "engine":
                engine = Engine(
                    client, interp, on_error=config.on_error, faults=faults, journal=journal
                )
                load_rank(interp, client, ctx, engine.unit, setup)
                interp.eval(program)
                # On restore the dataflow state comes from the checkpoint's
                # rule tables; re-running the entry point would duplicate it.
                initial = None
                if rank == layout.engines[0] and not restoring:
                    initial = entry
                restore = list(restore_rules.get(rank, [])) if restoring else None
                engine.serve(initial_script=initial, restore=restore)
                return engine
            worker = Worker(
                client,
                interp,
                on_error=config.on_error,
                faults=faults,
                task_timeout=config.task_timeout,
            )
            load_rank(interp, client, ctx, worker.unit, setup)
            interp.eval(program)
            worker.serve()
            return worker
        except RankKilled as e:
            # A dead rank holds nothing: its line leaves the state view.
            del metrics.sources[rank]
            if role == "server" and not replicate:
                # The shard and queued work died with this rank and nothing
                # holds a replica: the run cannot complete.  Raise the
                # diagnostic instead of letting every client hang on a
                # server that will never answer.
                raise ServerLost(e.rank, str(e)) from e
            if role == "engine" and not journal:
                # The dead engine's pending rules are unrecoverable: raise
                # the diagnostic promptly (even for silent kills — nothing
                # watches an idle engine, so the alternative is a hang
                # until the recv timeout).
                raise EngineLost(
                    e.rank,
                    str(e),
                    rules_pending=engine.pending_rule_count(),
                    units_registered=engine.stats.rules_created,
                ) from e
            # Tell every server the rank is gone so its lease is swept;
            # after a silent kill only the lease-expiry sweep recovers.
            if not e.silent:
                dead = {"op": C.SOP_RANK_DEAD, "rank": e.rank, "reason": str(e)}
                for s in layout.servers:
                    comm.send(dead, s, C.TAG_SERVER)
            return None

    rank_labels = [layout.role(r) for r in range(config.size)]
    t0 = time.perf_counter()
    sampler_stop = None
    if monitor is not None:
        # Driver-side sampler: one MonitorSample per interval, read
        # from the counter table while the ranks run.
        sampler_stop = threading.Event()

        def _sampler() -> None:
            while not sampler_stop.wait(config.monitor_interval):
                monitor.sample(time.perf_counter() - t0)

        sampler = threading.Thread(
            target=_sampler, name="repro-monitor", daemon=True
        )
        sampler.start()
    def _dump_blackbox(box: Any) -> str | None:
        if box is None or config.blackbox_dir is None:
            return None
        from ..obs import write_blackbox

        return write_blackbox(box, config.blackbox_dir)

    try:
        exited = run_world(
            config.size,
            main,
            recv_timeout=config.recv_timeout,
            recorder=recorder,
            faults=faults,
            rank_labels=rank_labels,
            deadline=config.deadline,
            metrics=metrics,
        )
    except RankFailure as e:
        # A permanently failed unit of work is a *task* problem, not a
        # rank crash: surface the clean, traceback-bearing TaskError
        # instead of the rank-failure wrapper.  A lost server likewise
        # surfaces as its own diagnostic (ServerLost).  Either way the
        # launcher's black box rides along on the surfaced exception.
        box = e.blackbox
        path = _dump_blackbox(box)
        e.blackbox_path = path
        for _, exc in e.failures:
            if isinstance(exc, (TaskError, ServerLost, EngineLost)):
                exc.blackbox = box
                exc.blackbox_path = path
                raise exc from None
        raise
    except DeadlineExceeded as e:
        e.blackbox_path = _dump_blackbox(e.blackbox)
        raise
    finally:
        if sampler_stop is not None:
            sampler_stop.set()
            sampler.join(timeout=2.0)
            # One final sample so short runs still land a timeline row.
            monitor.sample(time.perf_counter() - t0)
        # The table outlives the run (RunResult.metrics, a session's
        # next run); the run's structs and state sources need not.
        metrics.settle()
    elapsed = time.perf_counter() - t0
    # What the ranks that exited cleanly hand back, in rank order.
    servers = [r for r in exited if isinstance(r, Server)]
    clients = [r for r in exited if isinstance(r, (Engine, Worker))]
    failures = [f for s in servers for f in s.failures]
    failures += [f for c in clients for f in c.unit.failures]
    quarantined = [q for s in servers for q in s.leases.quarantined]
    blackbox = None
    blackbox_path = None
    if recorder is not None and (failures or quarantined):
        # The run drained to completion but carried failures or
        # quarantined units: snapshot the rings so the poisoned
        # dataflow is reconstructible after the fact.
        blackbox = recorder.blackbox(
            config.size,
            reason="quarantine" if quarantined else "task-failures",
            detail="%d failure(s), %d quarantined unit(s)"
            % (len(failures), len(quarantined)),
            roles=rank_labels,
            failed_ranks=sorted({f.rank for f in failures}),
        )
        blackbox_path = _dump_blackbox(blackbox)
    trace = None
    if recorder is not None and recorder.level:
        from ..obs import RANK_DRIVER

        recorder.ring(RANK_DRIVER).emit("run", config.size, entry, t0=t0)
        trace = recorder.freeze(
            meta={
                "roles": {r: layout.role(r) for r in range(config.size)},
                "elapsed": elapsed,
                "size": config.size,
            }
        )
    audit = None
    if config.audit:
        from ..chaos.invariants import audit_run

        audit = audit_run(
            [r.state() for r in servers + clients],
            layout=layout,
            failures=failures,
            quarantined=quarantined,
        )
    return RunResult(
        output=output,
        elapsed=elapsed,
        server_stats=[s.stats for s in servers],
        engine_stats=[c.stats for c in clients if isinstance(c, Engine)],
        worker_stats=[c.stats for c in clients if isinstance(c, Worker)],
        tasks_run=metrics.counter("worker.tasks_run") - tasks_before,
        trace=trace,
        registry=recorder.metrics if recorder is not None else None,
        timeline=monitor.samples if monitor is not None else [],
        failures=sorted(failures, key=lambda f: f.rank),
        quarantined=sorted(quarantined, key=lambda q: q.uid),
        audit=audit,
        fault_stats=faults.stats if faults is not None else None,
        blackbox=blackbox,
        blackbox_path=blackbox_path,
    )
