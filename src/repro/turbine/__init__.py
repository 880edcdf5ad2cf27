"""Turbine: the distributed-memory dataflow engine (Wozniak et al.).

Engines evaluate STC-generated Tcl, registering dataflow rules against
Turbine data (TDs) in the ADLB store; workers execute leaf tasks
shipped through ADLB as Tcl code fragments.
"""

from ..faults import (
    DeadlineExceeded,
    FaultPlan,
    TaskError,
    TaskFailure,
)
from .config import RuntimeConfig
from .engine import Engine, EngineStats, Rule
from .runtime import Output, RankContext, RunResult, run_turbine_program
from .tcllib import TURBINE_TCL
from .unit import UnitRunner
from .worker import Worker, WorkerStats

__all__ = [
    "Engine",
    "EngineStats",
    "Rule",
    "UnitRunner",
    "Worker",
    "WorkerStats",
    "RuntimeConfig",
    "RunResult",
    "RankContext",
    "Output",
    "run_turbine_program",
    "TURBINE_TCL",
    "FaultPlan",
    "TaskError",
    "TaskFailure",
    "DeadlineExceeded",
]
