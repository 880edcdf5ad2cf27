"""benchmarks/census.py's accounting, with no consumers: which functions
a call reached, and how many lines each one owns."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_called_function_reads_reached_and_the_other_unreached(tmp_path):
    census = load("census", ROOT / "benchmarks" / "census.py")
    path = tmp_path / "two.py"
    # a decorated def starts at its decorator line, as its code object does
    path.write_text(
        "@staticmethod\ndef called():\n    return 1\n\n\n"
        "def never(x):\n    y = x + 1\n    return y\n"
    )
    two = load("two", path)
    seen = census.reached(two.called)
    got = {key[2]: (lines, key in seen) for key, lines in census.functions(path).items()}
    assert got == {"called": (3, True), "never": (3, False)}
