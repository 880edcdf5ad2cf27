"""Shared test fixtures and helpers."""

from __future__ import annotations

import contextlib
import functools

import pytest

from repro.tcl import Interp


@pytest.fixture()
def tcl() -> Interp:
    it = Interp()
    it.echo = False
    return it


@pytest.fixture()
def tcl_oracle(monkeypatch):
    """``with tcl_oracle():`` — every rank of a run started inside the
    block evaluates its Tcl on the interpreted walk
    (``Interp(compile_enabled=False)``), the oracle the VM is checked
    against; outside it, runs are back on the VM."""
    from repro.turbine import runtime

    @contextlib.contextmanager
    def oracle():
        with monkeypatch.context() as m:
            m.setattr(runtime, "Interp", functools.partial(Interp, compile_enabled=False))
            yield

    return oracle


def run_swift(src: str, workers: int = 3, **kw) -> list[str]:
    """Compile + run a Swift program; return sorted output lines."""
    from repro import swift_run

    res = swift_run(src, workers=workers, **kw)
    return sorted(res.stdout_lines)


class ManualClock:
    """A clock that only the test moves: ``World(n, clock=clock)``.

    It starts where no machine's ``time.monotonic()`` is (31 years of
    uptime), so a timer that read the wall clock would neither see
    ``advance`` nor agree with this one by luck — every timer test
    checks "not before" and "then after"."""

    def __init__(self, start: float = 1.0e9):
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


@pytest.fixture()
def clock() -> ManualClock:
    return ManualClock()
