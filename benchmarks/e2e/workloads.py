"""The four workloads: seeded Swift programs, layouts, serial references.

A workload is one fixed-size Swift program per rep.  Operands and the
order in which the leaves get their payloads come from ``--seed`` (the
generated program text carries them); expected outputs come from
:meth:`Workload.expected`, plain integer arithmetic that never touches
the runtime, so a wrong answer anywhere in the stack shows as a failed
leaf task and not as a faster run.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

# Operand ranges keep every seed's program text the same length (A and
# the stride have four digits, B and the offset three), so bytes/task
# does not depend on the seed.
MODULUS = 1_000_003
CRUNCH_ITERS = 3000
# Four-digit primes above every program size: each is coprime to any
# leaf count, so ``(i * stride + offset) % n`` is a permutation of 0..n-1.
STRIDES = [p for p in range(2003, 10000) if all(p % d for d in range(2, 100))]


@dataclass(frozen=True)
class Operands:
    a: int
    b: int
    stride: int
    offset: int

    @classmethod
    def from_seed(cls, seed: int) -> "Operands":
        rng = random.Random(seed)
        return cls(
            a=rng.randrange(1001, 9999, 2),
            b=rng.randrange(100, 999),
            stride=rng.choice(STRIDES),
            offset=rng.randrange(100, 999),
        )

    def payload(self, i: int, n: int) -> int:
        """Which payload the ``i``-th leaf of an ``n``-leaf fan-out gets:
        the seed's order of the leaves."""
        return (i * self.stride + self.offset) % n


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "fanout" | "chain" | "tcl": which program shape below
    workers: int
    servers: int
    engines: int
    size: int  # leaf tasks in one timed rep
    # Leaf tasks in the one untimed rep that opens a run: the issue's
    # program size, all of it queued at once on the fan-outs.  It sets
    # peak_rss_mb and adlb.max_queue; the timed reps are shorter because
    # a rep can only be priced by calibrations close to it in time.
    peak_size: int
    recovery: bool  # replication + journaling are on by default at this layout

    def crunch_iters(self, n: int) -> int:
        """Loop count of each ``crunch`` leaf in the ``n``-leaf variant.
        The 1-leaf variant exists to time launch and teardown
        (``startup_ms``), so its one leaf does a single iteration."""
        return CRUNCH_ITERS if n > 1 else 1

    # ------------------------------------------------------------ program

    def source(self, n: int, ops: Operands) -> str:
        """Swift text of the ``n``-leaf variant."""
        if self.kind == "fanout":
            return (
                "foreach i in [0:%d] {\n"
                '    string s = python(strcat("i=", fromint(i)), "%d+%d*((i*%d+%d)%%%d)");\n'
                "    trace(s);\n"
                "}\n" % (n - 1, ops.b, ops.a, ops.stride, ops.offset, n)
            )
        if self.kind == "chain":
            return (
                "string a[];\n"
                'a[0] = "1";\n'
                "foreach i in [0:%d] {\n"
                '    a[i+1] = python(strcat("x=", a[i], "*%d+%d*", fromint(i)),'
                ' "x%%%d");\n'
                "}\n"
                "trace(a[%d]);\n" % (n - 1, ops.a, ops.b, MODULUS, n)
            )
        return (
            '(int o) crunch(int x, int n) "" "1.0" [ "%s" ];\n'
            "foreach i in [0:%d] {\n"
            "    int y = crunch(i, %d);\n"
            "    trace(y);\n"
            "}\n"
            % (
                crunch_template(ops, "<<x>>", "<<n>>", "<<o>>", n),
                n - 1,
                self.crunch_iters(n),
            )
        )

    # ---------------------------------------------------------- reference

    def expected(self, n: int, ops: Operands) -> list[str]:
        """Output lines of the ``n``-leaf variant, from plain arithmetic."""
        if self.kind == "fanout":
            return ["trace: %d" % (ops.b + ops.a * ops.payload(i, n)) for i in range(n)]
        if self.kind == "chain":
            x = 1
            for i in range(n):
                x = (x * ops.a + ops.b * i) % MODULUS
            return ["trace: %d" % x]
        iters = self.crunch_iters(n)
        return [
            "trace: %d" % crunch_reference(ops, ops.payload(i, n), iters)
            for i in range(n)
        ]

    def failed_leaves(self, n: int, expected: list[str], lines: list[str]) -> int:
        """Leaf tasks whose output is missing or wrong.

        Fan-outs compare multisets (task order is the scheduler's);
        the chain has one output, and if it is wrong every hop is
        counted failed because the hop that broke cannot be told apart.
        """
        if self.kind == "chain":
            return 0 if lines == expected else n
        want, got = Counter(expected), Counter(lines)
        missing = sum((want - got).values())
        extra = sum((got - want).values())
        return min(n, max(missing, extra))

    # ----------------------------------------------------------- baseline

    def serial_outputs(self, n: int, ops: Operands) -> list[str]:
        """The same leaf payloads in one plain loop: no ranks, no
        dataflow, just the embedded interpreter the leaves would use."""
        if self.kind == "tcl":
            from repro.tcl import Interp

            interp = Interp()
            interp.eval(
                "proc crunch {x n} { %s; return $o }"
                % crunch_template(ops, "$x", "$n", "o", n)
            )
            iters = self.crunch_iters(n)
            return [
                "trace: %s" % interp.eval("crunch %d %d" % (i, iters)) for i in range(n)
            ]
        from repro.interlang import EmbeddedPython

        py = EmbeddedPython()
        if self.kind == "fanout":
            expr = "%d+%d*((i*%d+%d)%%%d)" % (ops.b, ops.a, ops.stride, ops.offset, n)
            return [
                "trace: %s" % py.eval("i=%d" % i, expr) for i in range(n)
            ]
        x = "1"
        for i in range(n):
            x = py.eval("x=%s*%d+%d*%d" % (x, ops.a, ops.b, i), "x%%%d" % MODULUS)
        return ["trace: %s" % x]


def crunch_template(ops: Operands, x: str, n: str, o: str, leaves: int) -> str:
    """Tcl body of ``crunch``: an expr-in-a-for-loop kernel, started
    from the payload the seed's order gives leaf ``x`` of ``leaves``."""
    return (
        "set acc [expr {(%s * %d + %d) %% %d}]; "
        "for {set k 0} {$k < %s} {incr k} "
        "{ set acc [expr {($acc * %d + $k) %% %d}] }; "
        "set %s $acc" % (x, ops.stride, ops.offset, leaves, n, ops.a, MODULUS, o)
    )


def crunch_reference(ops: Operands, x: int, n: int) -> int:
    acc = x
    for k in range(n):
        acc = (acc * ops.a + k) % MODULUS
    return acc


# ``size`` makes one timed rep ~0.3 s.  The machine's speed changes
# within seconds, and a rep can only be priced by the calibrations on
# either side of it: with identical work on both sides of the ratio,
# 2 s slots repeated to 6.8 %, 0.25-0.5 s slots to 1.5 % (README.md).
# ``peak_size`` is the issue's program size (~2 s a rep); every run
# prints the per-task cost at both sizes.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fanout_py", "fanout", 2, 1, 1, 200, 1200, recovery=False),
        Workload("chain_py", "chain", 2, 1, 1, 120, 800, recovery=False),
        Workload("tcl_compute", "tcl", 2, 1, 1, 12, 80, recovery=False),
        Workload("fanout_recovery", "fanout", 2, 2, 2, 80, 600, recovery=True),
    )
}
