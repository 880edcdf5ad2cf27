"""``python3 benchmarks/census.py``: per package, the function lines (a line belongs to the innermost
``def`` around it) that no consumer calls, then which functions of ``tcl/`` and ``rlang/`` they are."""

import ast
import contextlib
import runpy
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = {  # the program and the engine-kill plan of CI's smoke steps
    "fan.swift": 'int n = argv_int("n", 9);\nforeach i in [0:n] { trace(python(strcat("x=", fromint(i)), "x")); }\n',
    "kill.json": '{"seed": 0, "kills": [{"rank": 0, "after_tasks": 3, "silent": false}]}'}
CLI = [  # CI's smoke steps and README's --arg example; {d} holds FILES, {box} the engine kill's black box
    "compile {d}/fan.swift -O0", "compile {d}/fan.swift -O1", "disasm {d}/fan.tic", "run {d}/fan.swift --arg n=3",
    "analyze {d}/fan.swift --workers 4 --servers 2 --engines 2",
    "run {d}/fan.swift -O0 --engines 2 --no-journal --fault-plan {d}/kill.json --blackbox-dir {d}", "postmortem {box}",
    "chaos --workloads fixpoint_labels --trials 1 --intensity light --out {d}/chaos"]


def functions(path: Path) -> Counter:
    """(file, first line, name) -> lines, for every def in one file."""
    owner = {}
    for node in ast.walk(ast.parse(path.read_text())):  # breadth-first: inner defs win
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            owner.update(dict.fromkeys(range(first, node.end_lineno + 1), (str(path), first, node.name)))
    return Counter(owner.values())


def reached(run) -> set:
    """The (file, first line, name) of every function called, on any thread, during ``run()``."""
    seen = set()
    hook = lambda frame, event, arg: event == "call" and seen.add(frame.f_code)  # noqa: E731
    threading.setprofile(hook)
    sys.setprofile(hook)
    run()  # a consumer that raises ends the census, hook and all
    sys.setprofile(None)
    threading.setprofile(None)
    return {(code.co_filename, code.co_firstlineno, code.co_name) for code in seen}


def consumers() -> None:
    """The e2e workloads at 8 leaves, the examples' main(), eight experiments, the CLI."""
    experiments = runpy.run_path(str(ROOT / "benchmarks" / "experiments.py"))  # puts src/, e2e/ on sys.path
    experiments["main"]("STC EMBED STATE BLOB PKG FIG3 FIG1 LB".split())  # pins us to one CPU from here on
    import repro.cli
    from workloads import WORKLOADS, Operands
    for w in WORKLOADS.values():
        repro.swift_run(w.source(8, Operands.from_seed(700)), workers=w.workers, servers=w.servers, engines=w.engines)
    for path in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(path))["main"]()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            Path(tmp, name).write_text(text)
        for line in CLI:
            repro.cli.main(line.format(d=tmp, box=next(Path(tmp).glob("blackbox-*.json"), None)).split())


def main() -> None:
    with tempfile.TemporaryFile("w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        seen = reached(consumers)
    rows, unreached = {}, []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        parts = path.relative_to(ROOT / "src" / "repro").parts
        for key, lines in functions(path).items():
            missed = lines * (key not in seen)
            rows.setdefault(parts[0] + "/" * (len(parts) > 1), Counter()).update(lines=lines, missed=missed)
            if missed and parts[0] in ("tcl", "rlang"):
                unreached.append("  %s:%d %s (%d lines)" % ("/".join(parts), key[1], key[2], lines))
    print("%-14s %8s %9s %8s" % ("package", "fn lines", "unreached", "reached"), *(
        "%-14s %8d %9d %7.0f%%" % (name, r["lines"], r["missed"], 100 - 100 * r["missed"] / r["lines"])
        for name, r in rows.items()), "", "unreached in tcl/ and rlang/:", *unreached, sep="\n")


if __name__ == "__main__":
    main()
