"""Static packages: bundle an application's scripts into one artifact.

The paper (§IV): "the many small file problem common in scripted
solutions can be addressed with our static packages."  A
:class:`StaticPackage` collects every Tcl/Python/R module an
application needs into a single archive; at startup each rank performs
*one* filesystem access instead of one per module, and
``package require`` / ``source`` / Python ``import``-ish loading
resolve from memory.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass
from typing import Iterable

from ..tcl.errors import TclError
from ..tcl.interp import Interp

_LANGS = ("tcl", "python", "r", "data")


class PackageError(RuntimeError):
    pass


@dataclass(frozen=True)
class Module:
    name: str  # logical name, e.g. "my_package" or "mylib/helpers"
    lang: str  # tcl | python | r | data
    source: str
    version: str = "1.0"


class StaticPackage:
    def __init__(self, name: str = "app"):
        self.name = name
        self.modules: dict[tuple[str, str], Module] = {}

    # -- building ---------------------------------------------------------

    def add(self, name: str, lang: str, source: str, version: str = "1.0") -> None:
        if lang not in _LANGS:
            raise PackageError("unknown module language %r" % lang)
        key = (lang, name)
        if key in self.modules:
            raise PackageError("module %s/%s already added" % (lang, name))
        self.modules[key] = Module(name, lang, source, version)

    def add_many(self, modules: Iterable[Module]) -> None:
        for m in modules:
            self.add(m.name, m.lang, m.source, m.version)

    def get(self, name: str, lang: str) -> Module:
        mod = self.modules.get((lang, name))
        if mod is None:
            raise PackageError("no %s module %r in package %s" % (lang, name, self.name))
        return mod

    def __len__(self) -> int:
        return len(self.modules)

    # -- serialization -------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the package as a single zip archive."""
        manifest = {
            "name": self.name,
            "modules": [
                {"name": m.name, "lang": m.lang, "version": m.version}
                for m in self.modules.values()
            ],
        }
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
            zf.writestr("MANIFEST.json", json.dumps(manifest, indent=1))
            for m in self.modules.values():
                zf.writestr("%s/%s" % (m.lang, m.name), m.source)

    @classmethod
    def load(cls, path: str, fs=None) -> "StaticPackage":
        """Load a package archive — one filesystem access total."""
        if fs is not None:
            raw: bytes = fs.open_read_bytes(path)
        else:
            with open(path, "rb") as f:
                raw = f.read()
        with zipfile.ZipFile(io.BytesIO(raw)) as zf:
            manifest = json.loads(zf.read("MANIFEST.json"))
            pkg = cls(manifest["name"])
            for entry in manifest["modules"]:
                source = zf.read(
                    "%s/%s" % (entry["lang"], entry["name"])
                ).decode("utf-8")
                pkg.add(entry["name"], entry["lang"], source, entry.get("version", "1.0"))
        return pkg

    # -- installation into a rank ----------------------------------------------

    def install_into(self, interp: Interp) -> None:
        """Wire the package into a Tcl interpreter.

        Tcl modules become lazily-required packages; ``source`` resolves
        package-relative paths from memory; Python and R modules become
        available to the embedded interpreters via ``python::require``
        and ``r::require``.
        """
        for (lang, name), mod in self.modules.items():
            if lang == "tcl":
                interp.package_loaders[name] = (
                    mod.version,
                    lambda it, src=mod.source: it.eval(src),
                )

        def resolver(path: str, _pkg=self) -> str:
            for lang in _LANGS:
                try:
                    return _pkg.get(path, lang).source
                except PackageError:
                    continue
            raise PackageError("source: no module %r in static package" % path)

        interp.source_resolver = resolver  # type: ignore[attr-defined]

        def require(lang: str):
            def cmd_require(it, args):
                embedded = it.embedded.get(lang)
                if embedded is None:
                    raise TclError("%s package not registered" % lang)
                for name in args:
                    embedded.eval(self.get(name, lang).source, "")
                return ""

            return cmd_require

        interp.register("python::require", require("python"))
        interp.register("r::require", require("r"))


def load_loose_modules(
    fs, paths: list[str]
) -> list[tuple[str, str]]:
    """Baseline: load each module as its own file (M metadata ops)."""
    out = []
    for path in paths:
        out.append((path, fs.open_read(path)))
    return out
