"""benchmarks/experiments.py: the table matches the documents, the
deterministic claims hold, and a wrong shape fails the command."""

from __future__ import annotations

import importlib.util
import json
import os
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ex():
    spec = importlib.util.spec_from_file_location(
        "experiments", ROOT / "benchmarks" / "experiments.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def unpinned(ex, monkeypatch):
    """``main`` pins the process to one CPU; the test session stays as it was."""
    monkeypatch.setattr(ex.harness, "pin_to_one_cpu", lambda: None)


def holds(ex, exp_id: str, key: str, m: dict) -> bool:
    op, bound = ex.EXPERIMENTS[exp_id].shape[key]
    return ex.OPS[op](m[key], bound)


def section(exp_id: str) -> str:
    """The document's section for one id, heading excluded."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    return re.search(r"^## %s — .*?\n(.*?)(?=^## |^---$)" % exp_id, text, re.M | re.S).group(1)


def test_ids_match_the_documents(ex):
    ids = list(ex.EXPERIMENTS)
    headings = re.findall(r"^## (\w+) — ", (ROOT / "EXPERIMENTS.md").read_text(), re.M)
    design = (ROOT / "DESIGN.md").read_text()
    index = design[design.index("## 4. Evaluation reproduction index") : design.index("## 5. ")]
    rows = re.findall(r"^\| (\w+) \|.*\| `benchmarks/experiments.py (\w+)` \|$", index, re.M)
    assert headings == ids
    assert rows == [(i, i) for i in ids]
    assert {i for i, _ in ex.KNOWN_FAILING} <= set(ids)
    for (exp_id, key), owner in ex.KNOWN_FAILING.items():
        assert key in ex.EXPERIMENTS[exp_id].shape
        assert "known-fail: " + owner in section(exp_id)


def test_pkg_holds_and_the_document_quotes_it(ex):
    m = ex.pkg()
    block, verdict, problems = ex.render("PKG", m)
    assert (verdict, problems) == ("holds", [])
    assert m["by modules"][400]["loose_ops"] == 400
    assert block in section("PKG")


def test_stc_counts_hold(ex):
    m = ex.stc()
    assert ex.render("STC", m)[1:] == ("holds", [])
    fan = m["40-leaf python fan-out by level"]
    # Re-pinned on purpose, 960 -> 880 data ops: each -O0 leaf's two
    # retrieves of its closed inputs are answered from its grant.
    assert (fan["-O0"]["rules"], fan["-O0"]["data_ops"]) == (160, 880)
    assert (fan["-O1"]["rules"], fan["-O1"]["data_ops"]) == (0, 0)


def test_fig2_des_holds(ex):
    m = ex.fig2_des()
    assert holds(ex, "FIG2", "des_99_over_50", m)
    assert not holds(ex, "FIG2", "des_99_over_50", dict(m, des_99_over_50=0.9))


def test_scale_des_holds_up_to_1024_ranks(ex):
    m = ex.scale(max_exp=10)
    assert list(m["one server per 64 ranks, one engine per 128, by ranks"]) == [64, 256, 1024]
    assert all(holds(ex, "SCALE", key, m) for key in ex.EXPERIMENTS["SCALE"].shape)
    # what the document used to claim and the DES does not measure
    utilization = [
        row["worker_utilization"]
        for row in m["one server per 64 ranks, one engine per 128, by ranks"].values()
    ]
    assert utilization == sorted(utilization, reverse=True) and utilization[-1] < 0.7
    assert "constant utilization" not in section("SCALE")


PKG_WRONG = {"by modules": {}, "min_loose_ops_per_module": 1.0, "max_static_ops": 3}
FIG2_FLAT = {"real_spread": 0.1, "des_99_over_50": 1.5}


def test_failing_shape_fails_the_command(ex, unpinned, capsys):
    assert ex.main(["PKG"], measure=lambda exp_id: PKG_WRONG) == 1
    out, err = capsys.readouterr()
    assert "verdict PKG: FAILS" in out
    assert "max_static_ops ≤ 1 (3: FAILS)" in out
    assert json.loads(out.splitlines()[-1])["verdicts"] == {"PKG": "FAILS"}
    assert "PROBLEM: PKG.max_static_ops does not hold" in err


def test_failed_output_check_fails_the_command(ex, unpinned, capsys):
    def measure(exp_id):
        assert "40424" == "40425"

    assert ex.main(["EMBED"], measure=measure) == 1
    assert "verdict EMBED: FAILS (output check)" in capsys.readouterr().out


@pytest.fixture()
def fig2_known_failing(ex, monkeypatch):
    """FIG2's spread listed as a known failure, as it was until ROADMAP
    item 2(a) made it hold: the list's mechanism, on a real entry."""
    monkeypatch.setitem(ex.KNOWN_FAILING, ("FIG2", "real_spread"), "ROADMAP item 2")


def test_known_failing_check_that_holds_fails_the_command(ex, unpinned, fig2_known_failing, capsys):
    assert ex.main(["FIG2"], measure=lambda exp_id: FIG2_FLAT) == 1
    out, err = capsys.readouterr()
    assert "verdict FIG2: holds" in out
    assert "FIG2.real_spread holds now: remove it from KNOWN_FAILING" in err


def test_a_level_pair_makes_the_known_failing_fig2_hold_now(
    ex, monkeypatch, fig2_known_failing, capsys
):
    # (1, 1) and (1, 2) run at one level: measured for real, their spread
    # is far inside the bound, so the check fires on a known-fail that holds
    monkeypatch.setattr(ex, "FIG2_LAYOUTS", ((1, 1), (1, 2)))
    cpus = os.sched_getaffinity(0)  # main pins the process to one CPU
    try:
        assert ex.main(["FIG2"]) == 1
    finally:
        os.sched_setaffinity(0, cpus)
    out, err = capsys.readouterr()
    assert "verdict FIG2: holds" in out
    assert "FIG2.real_spread holds now: remove it from KNOWN_FAILING" in err


def test_known_failing_check_that_fails_is_not_a_failure(ex, unpinned, fig2_known_failing, capsys):
    assert ex.main(["FIG2"], measure=lambda exp_id: dict(FIG2_FLAT, real_spread=0.66)) == 0
    out, err = capsys.readouterr()
    assert "verdict FIG2: known-fail: ROADMAP item 2" in out
    assert err == ""


def test_unknown_id_and_options_are_usage_errors(ex, unpinned):
    for argv in (["NOPE"], ["--fast"], ["PKG", "--check"]):
        with pytest.raises(SystemExit) as exit_info:
            ex.main(argv, measure=lambda exp_id: pytest.fail("measured"))
        assert exit_info.value.code == 2
