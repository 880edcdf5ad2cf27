"""Tcl command bindings for the interlanguage leaf packages.

These are the "Tcl extensions" of §III-C: each scripting language is
exposed to Tcl (and hence to Swift leaf tasks) as a package of
commands.  Handles to blobs and other host objects travel through Tcl
as opaque strings.
"""

from __future__ import annotations

from ..blob import Blob, FortranArray
from ..blob.convert import blob_from_string, blob_to_string
from ..tcl.errors import TclError
from ..tcl.interp import Interp
from .embedded import Embedded
from .python_interp import EmbeddedPython
from .r_bridge import EmbeddedR
from .shell import ShellTaskError, run_command, run_line


def _usage(msg: str) -> TclError:
    return TclError('wrong # args: should be "%s"' % msg)


# ------------------------------------------------------- embedded interpreters


def register_embedded(interp: Interp, name: str, embedded: Embedded, printed=None):
    """Bind one embedded interpreter as the Tcl package ``name``
    (``NAME::eval``, ``NAME::reset``, ``NAME::stats``) and record it in
    ``interp.embedded``.  The lines a call prints, returned or raised,
    move to the list ``printed`` (on a run's ranks, the running unit's:
    it decides); None leaves them in ``embedded.stdout``.  Returns the
    task runner, for language-specific commands."""
    interp.embedded[name] = embedded

    def run(code: str, expr: str = "") -> str:
        try:
            return embedded.eval(code, expr)
        except embedded.error as e:
            raise TclError(str(e)) from e
        finally:
            if printed is not None and embedded.stdout:
                printed.extend(embedded.stdout)
                embedded.stdout.clear()

    def cmd_eval(it, args):
        if len(args) not in (1, 2):
            raise _usage("%s::eval code ?expr?" % name)
        return run(*args)

    def cmd_reset(it, args):
        embedded.reset()
        return ""

    def cmd_stats(it, args):
        return "inits %d tasks %d" % (embedded.init_count, embedded.task_count)

    interp.register(name + "::eval", cmd_eval)
    interp.register(name + "::reset", cmd_reset)
    interp.register(name + "::stats", cmd_stats)
    interp.packages_provided.setdefault(name, "1.0")
    return run


def register_python(interp: Interp, mode: str = "retain", printed=None) -> None:
    embedded = EmbeddedPython(mode=mode)
    run = register_embedded(interp, "python", embedded, printed)

    def cmd_persist(it, args):
        # Force-retain evaluation regardless of the configured mode.
        if len(args) not in (1, 2):
            raise _usage("python::persist code ?expr?")
        saved = embedded.mode
        embedded.mode = "retain"
        try:
            return run(*args)
        finally:
            embedded.mode = saved

    interp.register("python::persist", cmd_persist)


def register_r(interp: Interp, mode: str = "retain", printed=None) -> None:
    register_embedded(interp, "r", EmbeddedR(mode=mode), printed)


# ---------------------------------------------------------------------- shell


def register_shell(interp: Interp) -> None:
    def cmd_exec(it, args):
        if not args:
            raise _usage("shell::exec command ?arg ...?")
        try:
            return run_command(list(args))
        except ShellTaskError as e:
            raise TclError(str(e)) from e

    def cmd_exec_line(it, args):
        if len(args) != 1:
            raise _usage("shell::exec_line commandLine")
        try:
            return run_line(args[0])
        except ShellTaskError as e:
            raise TclError(str(e)) from e

    interp.register("shell::exec", cmd_exec)
    interp.register("shell::exec_line", cmd_exec_line)
    interp.packages_provided.setdefault("shell", "1.0")


# -------------------------------------------------------------------- blobutils


def _blob(it: Interp, handle: str) -> Blob:
    obj = it.unwrap(handle)
    if not isinstance(obj, Blob):
        raise TclError("%r is not a blob handle" % handle)
    return obj


def register_blobutils(interp: Interp) -> None:
    def cmd_create_floats(it, args):
        import numpy as np

        values = np.array([float(a) for a in args], dtype=np.float64)
        return it.wrap_object(Blob(values, "double"), "blob")

    def cmd_zeroes(it, args):
        import numpy as np

        if len(args) != 1:
            raise _usage("blobutils::zeroes_float n")
        return it.wrap_object(
            Blob(np.zeros(int(args[0]), dtype=np.float64), "double"), "blob"
        )

    def cmd_from_string(it, args):
        if len(args) != 1:
            raise _usage("blobutils::from_string s")
        return it.wrap_object(blob_from_string(args[0]), "blob")

    def cmd_to_string(it, args):
        if len(args) != 1:
            raise _usage("blobutils::to_string handle")
        return blob_to_string(_blob(it, args[0]))

    def cmd_from_list(it, args):
        import numpy as np

        from ..tcl.listutil import parse_list

        if len(args) not in (1, 2):
            raise _usage("blobutils::from_list list ?ctype?")
        ctype = args[1] if len(args) > 1 else "double"
        values = [float(x) for x in parse_list(args[0])]
        dtype = np.int32 if ctype == "int" else np.float64
        return it.wrap_object(Blob(np.array(values, dtype=dtype), ctype), "blob")

    def cmd_to_list(it, args):
        from ..tcl.expr import to_string
        from ..tcl.listutil import format_list

        if len(args) != 1:
            raise _usage("blobutils::to_list handle")
        blob = _blob(it, args[0])
        return format_list([to_string(v) for v in blob.data.tolist()])

    def cmd_get_float(it, args):
        from ..tcl.expr import to_string

        if len(args) != 2:
            raise _usage("blobutils::get_float handle index")
        return to_string(float(_blob(it, args[0]).cast("double").get(int(args[1]))))

    def cmd_set_float(it, args):
        if len(args) != 3:
            raise _usage("blobutils::set_float handle index value")
        _blob(it, args[0]).cast("double").set(int(args[1]), float(args[2]))
        return ""

    def cmd_get_int(it, args):
        if len(args) != 2:
            raise _usage("blobutils::get_int handle index")
        return str(int(_blob(it, args[0]).cast("int").get(int(args[1]))))

    def cmd_length(it, args):
        if len(args) != 1:
            raise _usage("blobutils::length handle")
        return str(len(_blob(it, args[0])))

    def cmd_size(it, args):
        if len(args) != 1:
            raise _usage("blobutils::size handle")
        return str(_blob(it, args[0]).nbytes)

    def cmd_cast(it, args):
        if len(args) != 2:
            raise _usage("blobutils::cast handle ctype")
        try:
            out = _blob(it, args[0]).cast(args[1])
        except ValueError as e:
            raise TclError(str(e)) from e
        return it.wrap_object(out, "blob")

    def cmd_free(it, args):
        for h in args:
            it.release_object(h)
        return ""

    def cmd_matrix(it, args):
        if len(args) != 2:
            raise _usage("blobutils::matrix rows cols")
        fa = FortranArray.zeros((int(args[0]), int(args[1])))
        return it.wrap_object(fa, "fmat")

    def cmd_matrix_set(it, args):
        if len(args) != 4:
            raise _usage("blobutils::matrix_set handle i j value")
        fa = it.unwrap(args[0])
        fa.set(int(args[1]), int(args[2]), float(args[3]))
        return ""

    def cmd_matrix_get(it, args):
        from ..tcl.expr import to_string

        if len(args) != 3:
            raise _usage("blobutils::matrix_get handle i j")
        fa = it.unwrap(args[0])
        return to_string(fa.get(int(args[1]), int(args[2])))

    for name, fn in [
        ("create_floats", cmd_create_floats),
        ("zeroes_float", cmd_zeroes),
        ("from_string", cmd_from_string),
        ("to_string", cmd_to_string),
        ("from_list", cmd_from_list),
        ("to_list", cmd_to_list),
        ("get_float", cmd_get_float),
        ("set_float", cmd_set_float),
        ("get_int", cmd_get_int),
        ("length", cmd_length),
        ("size", cmd_size),
        ("cast", cmd_cast),
        ("free", cmd_free),
        ("matrix", cmd_matrix),
        ("matrix_set", cmd_matrix_set),
        ("matrix_get", cmd_matrix_get),
    ]:
        interp.register("blobutils::" + name, fn)
    interp.packages_provided.setdefault("blobutils", "1.0")
