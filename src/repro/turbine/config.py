"""The run configuration: every runtime option, declared once.

:class:`RuntimeConfig` is kept apart from the program that reads it
(:func:`repro.turbine.runtime.run_turbine_program`).  A field's
declaration is the one place its default, description and CLI spelling
are written — the CLI's flags and README's option table are derived
from it — and :meth:`RuntimeConfig.resolve` is the one place that knows
which recovery features a given configuration turns on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable

from ..adlb.layout import Layout
from ..obs import Recorder

_ROLE_OPTIONS = ("workers", "servers", "engines")
_ON_ERROR = ("retry", "fail_fast", "continue")


def _opt(default: Any, help: str, flag: str | None = None, **cli: Any) -> Any:
    """One :class:`RuntimeConfig` field: its default, its description and,
    if it has one, its CLI ``flag`` (plus ``metavar`` / ``choices`` / ``dest``,
    the :meth:`~RuntimeConfig.with_options` keyword when that is not the
    field's name).  :mod:`repro.cli` derives the argparse declaration from
    these and the annotation."""
    kind = "default_factory" if callable(default) else "default"
    return field(metadata={"help": help, "flag": flag, **cli}, **{kind: default})


@dataclass
class RuntimeConfig:
    """Process layout and runtime options (Fig. 2 of the paper).

    The public API (:func:`repro.swift_run`, :class:`repro.SwiftRuntime`)
    and the CLI both funnel options through :meth:`with_options`, so
    declaring a field here is all it takes to expose a new option everywhere.
    """

    size: int = _opt(
        4,
        "worker ranks, which run the leaf tasks (the field holds the world size: "
        "of() and the CLI add the servers and engines)",
        "--workers",
        metavar="N",
        dest="workers",
    )
    n_servers: int = _opt(
        1,
        "ADLB server ranks: a data-store shard and a work queue each",
        "--servers",
        metavar="N",
    )
    n_engines: int = _opt(
        1,
        "Turbine engine ranks, which evaluate the dataflow rules",
        "--engines",
        metavar="N",
    )
    trace: bool = _opt(
        False,
        "record level 1 of the event spine (repro.obs.spine): spans, provenance and "
        "data-op events from the MPI, ADLB, Turbine and compile layers, for "
        "RunResult.trace / .profile (the CLI prints the profile report on stderr)",
        "--trace",
    )
    tracer: Any | None = field(
        default=None,
        repr=False,
        compare=False,
        metadata={
            "help": "externally supplied repro.obs.Recorder (the session API's "
            "hand-off: one recorder across several runs); overrides trace"
        },
    )
    trace_capacity: int = _opt(
        1 << 16, "events retained per rank on a traced run before its ring wraps"
    )
    echo: bool = _opt(False, "also print program output to real stdout")
    monitor: bool | Callable[[str], None] = _opt(
        False,
        "live monitoring: a driver-side sampler reads the run's counter table (and "
        "the live servers' state) every monitor_interval seconds into MonitorSample "
        "rows on RunResult.timeline.  True keeps it silent; a callable is also fed "
        "one rendered line per sample (the CLI passes a printer to stderr)",
        "--monitor",
    )
    monitor_interval: float = _opt(
        0.25, "seconds between monitor samples", "--monitor-interval", metavar="SECONDS"
    )
    recv_timeout: float = _opt(
        120.0, "seconds a rank may block in one receive before the run is reported hung"
    )
    interp_mode: str = _opt(
        "retain",
        "state policy of the embedded Python/R interpreters (paper III-C): retain "
        "keeps state across tasks, reinit reinitializes per task",
        "--interp-mode",
        choices=("retain", "reinit"),
    )
    # --- fault tolerance --------------------------------------------
    on_error: str = _opt(
        "retry",
        "what happens when a unit of work raises: retry (the server leases tasks and "
        "requeues failures up to max_retries with backoff), fail_fast (abort promptly "
        "with a traceback-bearing TaskError) or continue (record a TaskFailure on "
        "RunResult.failures and keep draining)",
        "--on-error",
        choices=_ON_ERROR,
    )
    max_retries: int = _opt(
        2,
        "re-executions allowed per failed task under on_error=retry",
        "--max-retries",
        metavar="N",
    )
    lease_timeout: float = _opt(
        60.0,
        "under a fault plan, seconds a handed-out task may stay unacknowledged "
        "before its rank is presumed dead and the task is requeued (without one "
        "only an announced death requeues: a long leaf is not a dead rank; bound "
        "a runaway leaf with task_timeout)",
    )
    deadline: float | None = _opt(
        None,
        "wall-clock limit for the whole run; on expiry the world is shut down in an "
        "orderly way and DeadlineExceeded is raised",
        "--deadline",
        metavar="SECONDS",
    )
    faults: Any | None = _opt(
        None,
        "seeded fault-injection plan (repro.faults.FaultPlan; without one each fault "
        "hook costs a single `is None` test).  The CLI reads a FaultPlan JSON: a bare "
        "plan image, or a chaos repro artifact, which replays that trial",
        "--fault-plan",
        metavar="PATH",
    )
    flightrec: bool = _opt(
        True,
        "level 0 of the event spine, the flight recorder: a 512-slot ring per rank of "
        "lifecycle events and message headers with Lamport clocks, dumped as a black "
        "box on any failure path, plus the run's counter table (RunResult.metrics).  "
        "On by default: one tuple per event, bounded by benchmarks/overhead.py",
        "--no-flightrec",
    )
    blackbox_dir: str | None = _opt(
        None,
        "directory for blackbox-*.json dumps on failure; None keeps the black box in "
        "memory only (exception .blackbox / RunResult.blackbox).  The CLI defaults to "
        "the current directory while the flight recorder is on",
        "--blackbox-dir",
        metavar="DIR",
    )
    audit: bool = _opt(
        False,
        "run-invariant auditing (repro.chaos.invariants): each rank snapshots its "
        "terminal bookkeeping (leases, journals, dedup slots, pending refcounts, "
        "termination counter) once at shutdown and the driver checks conservation "
        "laws over the rows; off, it is one flag test per rank at teardown",
        "--audit",
    )
    replicate: bool | None = _opt(
        None,
        "buddy replication of server state (survives server death).  Unset, "
        "RuntimeConfig.resolve() turns it on under on_error=retry when a second "
        "server exists to hold the replica; set with a lone server, it is an error",
        "--replicate",
    )
    journal: bool | None = _opt(
        None,
        "rule-table journaling: engines stream rule-lifecycle entries to their anchor "
        "server so that a surviving engine can adopt a dead engine's pending rules.  "
        "Unset, RuntimeConfig.resolve() turns it on under on_error=retry when a "
        "second engine exists to adopt; set with a lone engine, it is an error",
        "--journal",
    )
    task_timeout: float | None = _opt(
        None,
        "per-task watchdog: a task running longer than this is abandoned with a "
        "TaskTimeout fed into the normal retry/lease path, and the worker recycles "
        "embedded interpreter state before taking new work",
        "--task-timeout",
        metavar="SECONDS",
    )
    checkpoint_path: str | None = _opt(
        None,
        "write periodic consistent checkpoints (master-driven two-phase snapshot) here",
        "--checkpoint",
        metavar="PATH",
    )
    checkpoint_interval: float | None = _opt(
        None, "seconds between checkpoints", "--checkpoint-interval", metavar="SECONDS"
    )
    restore: str | None = _opt(
        None,
        "resume from a checkpoint written by a previous run of the same world shape "
        "instead of executing the program entry point",
        "--restore",
        metavar="PATH",
    )
    args: dict = _opt(
        dict,
        'program arguments, readable from Swift via argv("name")',
        "--arg",
        metavar="NAME=VALUE",
    )

    def layout(self) -> Layout:
        return Layout(self.size, self.n_servers, self.n_engines)

    @property
    def workers(self) -> int:
        return self.size - self.n_servers - self.n_engines

    def resolve(self) -> "RuntimeConfig":
        """The config with its unset recovery features decided: the
        result's ``replicate`` / ``journal`` are concrete booleans
        (idempotent).  The one home of the auto-rules — the runtime, the
        chaos generator's survivability envelope and the ``ServerLost`` /
        ``EngineLost`` remedy texts read the resolved values.  Raises
        ``ValueError`` for a policy, a number or a feature the run cannot
        honour."""
        if self.on_error not in _ON_ERROR:
            raise ValueError(
                "on_error must be 'retry', 'fail_fast', or 'continue', not %r"
                % (self.on_error,)
            )
        for name, least in (("max_retries", 0), ("trace_capacity", 1)):
            value = getattr(self, name)
            if value < least:
                raise ValueError("%s must be >= %d, not %r" % (name, least, value))
        for name in (
            "lease_timeout", "task_timeout", "monitor_interval",
            "deadline", "recv_timeout", "checkpoint_interval",
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError("%s must be > 0, not %r" % (name, value))
        if self.replicate and self.n_servers < 2:
            raise ValueError(
                "replicate=True needs n_servers >= 2: a lone server has "
                "no buddy to hold its replica"
            )
        if self.journal and self.n_engines < 2:
            raise ValueError(
                "journal=True needs n_engines >= 2: a lone engine has "
                "no surviving engine to adopt its rules"
            )
        # Unset: on when recovery is wanted at all (retry) and possible.
        retry = self.on_error == "retry"
        replicate, journal = self.replicate, self.journal
        if replicate is None:
            replicate = retry and self.n_servers >= 2
        if journal is None:
            journal = retry and self.n_engines >= 2
        return replace(self, replicate=replicate, journal=journal)

    @property
    def reliable(self) -> bool:
        """Whether RPCs are seq-stamped and re-sendable — what lets
        clients survive a lost server or a dropped message; it rides
        along whenever either can actually happen."""
        return bool(self.resolve().replicate) or (
            self.faults is not None and bool(self.faults.msg_rules)
        )

    def recorder(self) -> Recorder | None:
        """The event recorder of a run under this config: the ``tracer``
        handed in, else a fresh one at level 1 (``trace``) or level 0
        (``flightrec``), else none."""
        if self.tracer is not None or not (self.trace or self.flightrec):
            return self.tracer
        if self.trace:
            return Recorder(level=1, capacity=self.trace_capacity)
        return Recorder()

    @classmethod
    def of(
        cls, workers: int = 2, servers: int = 1, engines: int = 1, **options
    ) -> "RuntimeConfig":
        """Build a config from role counts instead of a total size."""
        return cls().with_options(
            workers=workers, servers=servers, engines=engines, **options
        )

    def with_options(self, **options) -> "RuntimeConfig":
        """Return a copy with the given options applied.

        Accepts every field name and the role counts ``workers`` /
        ``servers`` / ``engines`` (``size`` is recomputed).  Unknown
        names raise ``TypeError`` — options never vanish silently.
        """
        valid = {f.name for f in fields(self)}
        updates: dict[str, Any] = {}
        roles: dict[str, int] = {}
        for key, value in options.items():
            if key in _ROLE_OPTIONS:
                roles[key] = value
            elif key in valid:
                updates[key] = value
            else:
                raise TypeError(
                    "unknown runtime option %r; valid options: %s"
                    % (key, ", ".join(sorted(valid | set(_ROLE_OPTIONS))))
                )
        cfg = replace(self, **updates)
        if roles:
            workers = roles.get("workers", self.workers)
            servers = roles.get("servers", cfg.n_servers)
            engines = roles.get("engines", cfg.n_engines)
            cfg.size = workers + servers + engines
            cfg.n_servers = servers
            cfg.n_engines = engines
        return cfg
