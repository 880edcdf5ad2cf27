"""Static packages and the filesystem metadata model."""

from __future__ import annotations

import os

import pytest

from repro.interlang import register_python, register_r
from repro.packaging import (
    MetadataFS,
    Module,
    PackageError,
    StaticPackage,
    load_loose_modules,
)
from repro.tcl import Interp, TclError


@pytest.fixture()
def pkg():
    p = StaticPackage("myapp")
    p.add("util", "tcl", "package provide util 1.0\nproc util::id {x} { return $x }")
    p.add("helpers", "python", "def helper(x):\n    return x * 2\n")
    p.add("stats", "r", "rhelper <- function(x) x + 100")
    p.add("table.csv", "data", "a,b\n1,2\n")
    return p


class TestStaticPackage:
    def test_add_and_get(self, pkg):
        assert pkg.get("util", "tcl").source.startswith("package provide")
        assert len(pkg) == 4

    def test_duplicate_add_raises(self, pkg):
        with pytest.raises(PackageError):
            pkg.add("util", "tcl", "again")

    def test_unknown_language_raises(self):
        with pytest.raises(PackageError):
            StaticPackage().add("m", "cobol", "src")

    def test_missing_module_raises(self, pkg):
        with pytest.raises(PackageError):
            pkg.get("ghost", "tcl")

    def test_save_load_round_trip(self, pkg, tmp_path):
        path = str(tmp_path / "app.pkg")
        pkg.save(path)
        loaded = StaticPackage.load(path)
        assert loaded.name == "myapp"
        assert len(loaded) == 4
        assert loaded.get("helpers", "python").source == pkg.get("helpers", "python").source

    def test_load_counts_one_fs_access(self, pkg, tmp_path):
        path = str(tmp_path / "app.pkg")
        pkg.save(path)
        fs = MetadataFS(metadata_latency=2e-3)
        StaticPackage.load(path, fs=fs)
        assert fs.stats.opens == 1
        assert fs.stats.simulated_time >= 2e-3

    def test_add_many(self):
        p = StaticPackage()
        p.add_many([Module("a", "tcl", "x"), Module("b", "r", "y")])
        assert len(p) == 2


class TestInstallation:
    def test_tcl_package_require_from_bundle(self, pkg):
        it = Interp()
        it.echo = False
        pkg.install_into(it)
        assert it.eval("package require util") == "1.0"
        assert it.eval("util::id hello") == "hello"

    # `source` is gone: a bundled Tcl module loads by `package require`,
    # or the host evaluates its text

    def test_source_from_bundle(self, pkg):
        it = Interp()
        it.echo = False
        pkg.install_into(it)
        it.eval(pkg.get("util", "tcl").source)
        assert it.eval("util::id 5") == "5"

    def test_source_missing_module_raises(self, pkg):
        it = Interp()
        it.echo = False
        pkg.install_into(it)
        with pytest.raises(TclError, match="can't find package nothere"):
            it.eval("package require nothere")

    def test_python_require_from_bundle(self, pkg):
        it = Interp()
        it.echo = False
        register_python(it)
        pkg.install_into(it)
        it.eval("python::require helpers")
        assert it.eval("python::eval {} {helper(21)}") == "42"

    def test_r_require_from_bundle(self, pkg):
        it = Interp()
        it.echo = False
        register_r(it)
        pkg.install_into(it)
        it.eval("r::require stats")
        assert it.eval("r::eval {} {rhelper(1)}") == "101"


class TestMetadataFS:
    def test_loose_loading_costs_per_module(self, tmp_path):
        paths = []
        for i in range(15):
            p = tmp_path / ("m%d.tcl" % i)
            p.write_text("content %d" % i)
            paths.append(str(p))
        fs = MetadataFS(metadata_latency=1e-3)
        loaded = load_loose_modules(fs, paths)
        assert len(loaded) == 15
        assert fs.stats.opens == 15
        assert fs.stats.simulated_time >= 15e-3

    def test_static_vs_loose_cost_ratio(self, pkg, tmp_path):
        """The headline claim: static packages amortize metadata cost."""
        n = 40
        loose_dir = tmp_path / "loose"
        loose_dir.mkdir()
        paths = []
        big = StaticPackage("big")
        for i in range(n):
            src = "proc m%d {} { return %d }" % (i, i)
            (loose_dir / ("m%d.tcl" % i)).write_text(src)
            paths.append(str(loose_dir / ("m%d.tcl" % i)))
            big.add("m%d" % i, "tcl", src)
        pkg_path = str(tmp_path / "big.pkg")
        big.save(pkg_path)

        fs_loose = MetadataFS(metadata_latency=1e-3)
        load_loose_modules(fs_loose, paths)
        fs_static = MetadataFS(metadata_latency=1e-3)
        StaticPackage.load(pkg_path, fs=fs_static)
        assert fs_loose.stats.simulated_time > 10 * fs_static.stats.simulated_time

    def test_stat_and_reset(self, tmp_path):
        fs = MetadataFS()
        assert fs.stat(str(tmp_path)) is True
        assert fs.stat(str(tmp_path / "missing")) is False
        assert fs.stats.stats == 2
        fs.reset()
        assert fs.stats.stats == 0

    def test_read_bandwidth_accounted(self, tmp_path):
        p = tmp_path / "big.bin"
        p.write_bytes(b"x" * 1_000_000)
        fs = MetadataFS(metadata_latency=0.0, read_bandwidth=1e6)
        fs.open_read_bytes(str(p))
        assert fs.stats.simulated_time == pytest.approx(1.0)
        assert fs.stats.bytes_read == 1_000_000
