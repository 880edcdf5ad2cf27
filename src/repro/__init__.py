"""repro: a from-scratch reproduction of Swift/T interlanguage parallel
scripting for distributed-memory scientific computing (CLUSTER 2015).

Layers (bottom-up):

* :mod:`repro.mpi` -- thread-backed MPI-like message passing
* :mod:`repro.adlb` -- the Asynchronous Dynamic Load Balancer
* :mod:`repro.tcl` -- a mini-Tcl interpreter (the compile target)
* :mod:`repro.turbine` -- the dataflow engine and worker runtime
* :mod:`repro.core` -- the Swift language and STC compiler
* :mod:`repro.interlang` -- embedded Python/R, shell, leaf packages
* :mod:`repro.rlang` -- the embedded mini-R interpreter
* :mod:`repro.blob` -- blobutils for bulk binary interlanguage data
* :mod:`repro.swig` -- SWIG/FortWrap-style native-code binding generator
* :mod:`repro.packaging` -- static packages (many-small-files fix)
* :mod:`repro.launch` -- batch scheduler integration
* :mod:`repro.simcluster` -- discrete-event large-scale cluster model
* :mod:`repro.obs` -- unified runtime tracing/metrics layer

Public entry points: :func:`swift_run`, :class:`SwiftRuntime`,
:class:`RuntimeConfig`, :func:`compile_swift`; traced runs return a
:class:`Trace` via ``result.trace`` / ``result.profile``.
"""

from .api import SwiftRuntime, swift_run
from .core import CompiledProgram, SwiftError, compile_swift
from .faults import (
    DeadlineExceeded,
    EngineLost,
    FaultPlan,
    QuarantinedTask,
    ServerLost,
    TaskError,
    TaskFailure,
    TaskTimeout,
)
from .mpi import RankFailure
from .obs import Profile, Recorder, Trace
from .turbine import RunResult, RuntimeConfig

__version__ = "0.3.0"

__all__ = [
    "swift_run",
    "SwiftRuntime",
    "RuntimeConfig",
    "RunResult",
    "compile_swift",
    "CompiledProgram",
    "SwiftError",
    "Trace",
    "Recorder",
    "Profile",
    "FaultPlan",
    "TaskError",
    "TaskFailure",
    "TaskTimeout",
    "ServerLost",
    "EngineLost",
    "QuarantinedTask",
    "DeadlineExceeded",
    "RankFailure",
    "__version__",
]
