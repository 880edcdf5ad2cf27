"""Miscellaneous commands: puts, namespace, info, package."""

from __future__ import annotations

from ..errors import TclError
from ..listutil import format_list


def _wrong_args(usage: str) -> TclError:
    return TclError('wrong # args: should be "%s"' % usage)


def cmd_puts(interp, args):
    newline = True
    rest = list(args)
    if rest and rest[0] == "-nonewline":
        newline = False
        rest = rest[1:]
    if rest and rest[0] in ("stdout", "stderr"):
        rest = rest[1:]
    if len(rest) != 1:
        raise _wrong_args("puts ?-nonewline? ?channelId? string")
    interp.puts(rest[0] if newline else rest[0])
    return ""


def cmd_namespace(interp, args):
    if not args:
        raise _wrong_args("namespace subcommand ?arg ...?")
    sub = args[0]
    if sub == "eval":
        if len(args) < 3:
            raise _wrong_args("namespace eval name script")
        name = args[1].lstrip(":")
        if interp.current_ns.name and not args[1].startswith("::"):
            name = interp.current_ns.name + "::" + name
        ns = interp.namespace(name, create=True)
        script = args[2] if len(args) == 3 else " ".join(args[2:])
        saved = interp.current_ns
        interp.current_ns = ns
        try:
            return interp.eval(script)
        finally:
            interp.current_ns = saved
    if sub == "current":
        return "::" + interp.current_ns.name
    if sub == "exists":
        return "1" if args[1].lstrip(":") in interp.namespaces else "0"
    if sub == "qualifiers":
        name = args[1]
        if "::" in name.lstrip(":"):
            return name.lstrip(":").rsplit("::", 1)[0]
        return ""
    if sub == "tail":
        name = args[1].lstrip(":")
        return name.rsplit("::", 1)[-1]
    if sub == "export" or sub == "import":
        return ""  # accepted for compatibility; lookup is already global
    raise TclError('unknown or unsupported namespace subcommand "%s"' % sub)


def cmd_info(interp, args):
    if not args:
        raise _wrong_args("info subcommand ?arg ...?")
    sub = args[0]
    if sub == "exists":
        return "1" if interp.var_exists(args[1]) else "0"
    if sub == "commands":
        names = sorted(interp.commands.keys())
        if len(args) > 1:
            import fnmatch

            names = [n for n in names if fnmatch.fnmatchcase(n, args[1])]
        return format_list(names)
    if sub == "procs":
        from ..interp import TclProc

        names = sorted(
            n for n, f in interp.commands.items() if isinstance(f, TclProc)
        )
        if len(args) > 1:
            import fnmatch

            names = [n for n in names if fnmatch.fnmatchcase(n, args[1])]
        return format_list(names)
    if sub == "level":
        return str(len(interp.frames) - 1)
    if sub == "args":
        from ..interp import TclProc

        fn = interp.lookup_command(args[1])
        if not isinstance(fn, TclProc):
            raise TclError('"%s" isn\'t a procedure' % args[1])
        return format_list([p for p, _ in fn.params])
    if sub == "body":
        from ..interp import TclProc

        fn = interp.lookup_command(args[1])
        if not isinstance(fn, TclProc):
            raise TclError('"%s" isn\'t a procedure' % args[1])
        return fn.body
    if sub == "vars" or sub == "locals":
        return format_list(sorted(interp.frames[-1].vars.keys()))
    if sub == "globals":
        return format_list(sorted(interp.global_ns.vars.keys()))
    raise TclError('unknown or unsupported info subcommand "%s"' % sub)


def cmd_package(interp, args):
    if not args:
        raise _wrong_args("package subcommand ?arg ...?")
    sub = args[0]
    if sub == "provide":
        if len(args) not in (2, 3):
            raise _wrong_args("package provide name ?version?")
        name = args[1]
        version = args[2] if len(args) == 3 else "1.0"
        interp.packages_provided[name] = version
        return version
    if sub == "require":
        rest = [a for a in args[1:] if a != "-exact"]
        if not rest:
            raise _wrong_args("package require name ?version?")
        name = rest[0]
        if name in interp.packages_provided:
            return interp.packages_provided[name]
        loader = interp.package_loaders.get(name)
        if loader is None:
            raise TclError('can\'t find package %s' % name)
        version, fn = loader
        fn(interp)
        interp.packages_provided.setdefault(name, version)
        return interp.packages_provided[name]
    if sub == "ifneeded":
        if len(args) != 4:
            raise _wrong_args("package ifneeded name version script")
        name, version, script = args[1], args[2], args[3]
        interp.package_loaders[name] = (
            version,
            lambda it, s=script: it.eval(s),
        )
        return ""
    if sub == "names":
        names = sorted(
            set(interp.packages_provided) | set(interp.package_loaders)
        )
        return format_list(names)
    if sub == "present":
        name = args[1]
        if name not in interp.packages_provided:
            raise TclError("package %s is not present" % name)
        return interp.packages_provided[name]
    raise TclError('unknown or unsupported package subcommand "%s"' % sub)


def register(interp) -> None:
    interp.register("puts", cmd_puts)
    interp.register("namespace", cmd_namespace)
    interp.register("info", cmd_info)
    interp.register("package", cmd_package)
