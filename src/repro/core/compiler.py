"""The STC compiler driver: Swift source -> Turbine Tcl program."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from .codegen import Codegen, CompiledProgram
from .parser import parse
from .semantics import analyze


@dataclass
class CompileStats:
    parse_time: float
    check_time: float
    codegen_time: float
    n_procs: int
    n_lines: int


def compile_swift(
    source: str,
    opt: int = 1,
    return_stats: bool = False,
    tracer: Any | None = None,
) -> CompiledProgram | tuple[CompiledProgram, CompileStats]:
    """Compile Swift source text at the given optimization level.

    Levels: 0 = no pass — every op is a rule over TDs (the oracle the
    differential test compares against); 1 = the pass list of
    :mod:`repro.core.passes` (closed-value propagation, by-value
    leaves, single-consumer fusion, loops of leaves); 2 is accepted
    and equals 1.

    ``tracer`` (a level-1 :class:`repro.obs.Recorder`) records
    per-phase spans in the ``compile`` category on the driver's ring.
    """
    ring = None
    if tracer is not None and tracer.level:
        from ..obs import RANK_DRIVER

        ring = tracer.ring(RANK_DRIVER)
    t0 = time.perf_counter()
    program = parse(source)
    t1 = time.perf_counter()
    if ring is not None:
        ring.emit("compile_parse", t0=t0)
    funcs = analyze(program)
    t2 = time.perf_counter()
    if ring is not None:
        ring.emit("compile_check", t0=t1)
    compiled = Codegen(program, funcs, opt=opt).generate()
    t3 = time.perf_counter()
    if ring is not None:
        ring.emit(
            "compile_codegen", opt, compiled.n_procs, compiled.n_lines, t0=t2
        )
    if not return_stats:
        return compiled
    stats = CompileStats(
        parse_time=t1 - t0,
        check_time=t2 - t1,
        codegen_time=t3 - t2,
        n_procs=compiled.n_procs,
        n_lines=compiled.n_lines,
    )
    return compiled, stats
