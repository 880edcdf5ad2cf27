"""Public API: compile and run Swift programs on the Swift/T runtime.

Quickstart::

    from repro import swift_run

    result = swift_run('''
        foreach i in [0:9] {
            string out = python(strcat("x = ", fromint(i), " * 2"), "x");
            printf("doubled: %s", out);
        }
    ''', workers=4)
    print(result.stdout)

Every runtime knob lives on :class:`RuntimeConfig`; ``swift_run`` and
:class:`SwiftRuntime` accept a ``config=`` plus keyword overrides that
are validated by :meth:`RuntimeConfig.with_options` (unknown names
raise ``TypeError``).  The one Tcl-layer knob is ``tcl_compile``: on
(the default) scripts run on the bytecode VM; ``swift_run(src,
tcl_compile=False)`` selects the plain interpreted walk that the
differential tests use as their oracle.  For repeated runs, use the
session form — one compiled-program cache and one trace sink across
runs::

    from repro import RuntimeConfig, SwiftRuntime

    cfg = RuntimeConfig.of(workers=4, trace=True)
    with SwiftRuntime.from_config(cfg) as rt:
        first = rt.run(source)      # compiles
        second = rt.run(source)     # cache hit
    print(rt.trace.by_category())   # merged trace of both runs
"""

from __future__ import annotations

from typing import Any, Callable

from .core import CompiledProgram, compile_swift
from .turbine import RunResult, RuntimeConfig, run_turbine_program


class SwiftRuntime:
    """A reusable, configurable handle for running Swift programs.

    Construct directly with role counts and option overrides, or from
    an explicit config via :meth:`from_config`.  Used as a context
    manager it becomes a *session*: compiled programs are cached by
    ``(source, opt)`` and — when tracing is enabled — all runs share a
    single :class:`repro.obs.Recorder`, with the merged
    :class:`repro.obs.Trace` available as ``rt.trace`` after exit.
    """

    def __init__(
        self,
        workers: int | None = None,
        servers: int | None = None,
        engines: int | None = None,
        opt: int = 1,
        setup: Callable | None = None,
        args: dict | None = None,
        config: RuntimeConfig | None = None,
        **overrides,
    ):
        cfg = config if config is not None else RuntimeConfig.of()
        given = {"workers": workers, "servers": servers, "engines": engines}
        if args is not None:
            given["args"] = dict(args)
        overrides.update((k, v) for k, v in given.items() if v is not None)
        self.config = cfg.with_options(**overrides) if overrides else cfg
        self.opt = opt
        self.setup = setup
        # session state (populated by __enter__)
        self._cache: dict[tuple[str, int], CompiledProgram] | None = None
        self._session_recorder = None
        #: merged session trace, set on context-manager exit
        self.trace = None

    @classmethod
    def from_config(
        cls,
        config: RuntimeConfig,
        opt: int = 1,
        setup: Callable | None = None,
    ) -> "SwiftRuntime":
        return cls(opt=opt, setup=setup, config=config)

    # ------------------------------------------------------------- session

    def __enter__(self) -> "SwiftRuntime":
        self._cache = {}
        if self.config.tracer is not None or self.config.trace:
            self._session_recorder = self.config.recorder()
        return self

    def __exit__(self, *exc) -> bool:
        if self._session_recorder is not None:
            self.trace = self._session_recorder.freeze()
            self._session_recorder = None
        self._cache = None
        return False

    # ------------------------------------------------------------- running

    @property
    def workers(self) -> int:
        return self.config.workers

    @property
    def servers(self) -> int:
        return self.config.n_servers

    @property
    def engines(self) -> int:
        return self.config.n_engines

    def _run_config(self, overrides: dict) -> RuntimeConfig:
        cfg = self.config
        if self._session_recorder is not None:
            cfg = cfg.with_options(tracer=self._session_recorder)
        if overrides:
            cfg = cfg.with_options(**overrides)
        return cfg

    def compile(self, source: str, _tracer=None) -> CompiledProgram:
        key = (source, self.opt)
        if self._cache is not None:
            cached = self._cache.get(key)
            if cached is not None:
                return cached
        compiled = compile_swift(
            source, opt=self.opt, tracer=_tracer or self._session_recorder
        )
        if self._cache is not None:
            self._cache[key] = compiled
        return compiled

    def run(self, source: str, **overrides) -> RunResult:
        cfg = self._run_config(overrides)
        if cfg.tracer is None and cfg.trace:
            # Create the run's recorder up front so compile-phase spans
            # land in the same trace as the runtime events.
            cfg = cfg.with_options(tracer=cfg.recorder())
        compiled = self.compile(source, _tracer=cfg.tracer)
        return run_turbine_program(
            compiled.tcl_text,
            config=cfg,
            setup=self.setup,
            entry=compiled.entry,
        )

    def run_compiled(self, compiled: CompiledProgram, **overrides) -> RunResult:
        return run_turbine_program(
            compiled.tcl_text,
            config=self._run_config(overrides),
            setup=self.setup,
            entry=compiled.entry,
        )


def swift_run(
    source: str,
    workers: int | None = None,
    servers: int | None = None,
    engines: int | None = None,
    opt: int = 1,
    setup: Callable | None = None,
    args: dict | None = None,
    config: RuntimeConfig | None = None,
    **overrides: Any,
) -> RunResult:
    """Compile and execute a Swift program; returns the RunResult.

    ``config`` seeds all runtime options; the remaining keywords are
    overrides applied on top (``swift_run(src, config=cfg, trace=True)``).
    Unknown option names raise ``TypeError``.

    Level 0 of the event spine (``RuntimeConfig.flightrec``, default
    True) is always armed: every run's counters are on
    ``RunResult.metrics``, and on any failure path a black-box snapshot
    of every rank's event ring lands on the raised exception
    (``e.blackbox``) or on ``RunResult.blackbox`` for runs that drain
    past failures — render it with :func:`repro.obs.render_postmortem`.
    Pass ``flightrec=False`` to disable, ``blackbox_dir=...`` to also
    dump ``blackbox-*.json`` to disk, ``trace=True`` to record level 1
    (spans and provenance: ``RunResult.trace`` / ``.profile``).
    """
    rt = SwiftRuntime(
        workers=workers,
        servers=servers,
        engines=engines,
        opt=opt,
        setup=setup,
        args=args,
        config=config,
        **overrides,
    )
    return rt.run(source)
