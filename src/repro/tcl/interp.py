"""The Tcl interpreter core: frames, namespaces, dispatch, substitution.

Values follow the everything-is-a-string model: command arguments and
results are Python ``str``.  Opaque host objects (blobs, interpreter
handles, native pointers) are stored in an object registry and passed
through Tcl as handle strings, the same trick SWIG uses for pointers.
"""

from __future__ import annotations

import functools
import itertools
import re
import sys
from typing import Any, Callable

from .bytecode import VMStats
from .errors import TclBreak, TclContinue, TclError, TclReturn
from .expr import to_string
from .listutil import format_list, parse_list
from .parser import Command, TclParseError, Word, parse_cached

CommandFn = Callable[["Interp", list[str]], Any]


# Builtins that evaluate a script argument by calling ``interp.eval``
# on it.  A one-command literal script naming one of these is not
# dispatched as a parsed :class:`Command`: it takes the bytecode path,
# where the compiler inlines ``if``/``for``/``while`` bodies into the
# same code object instead of re-entering ``eval`` per iteration.
# Name-based on purpose: if a user rebinds one of these names the
# script just takes the (semantically identical) full bytecode path.
_SCRIPT_BUILTINS = frozenset(
    ("if", "while", "for", "foreach", "switch", "eval", "catch", "dict", "namespace")
)

# One command of plain words: printable ASCII without any of
# ``$ [ ] { } " \ ; #``, separated by single spaces.  Its words are what
# ``split(" ")`` gives, so ``Interp.eval`` dispatches it without a parse
# or a cache entry: a worker's task payload and a rule action are
# unique texts that no cache would ever hit.
_PLAIN = re.compile(r"[!%-:<-Z^-z|~]+(?: [!%-:<-Z^-z|~]+)*").fullmatch


class Var:
    """A variable cell, shared between frames by ``global`` links."""

    __slots__ = ("value",)

    def __init__(self, value: str = ""):
        self.value = value


class Namespace:
    __slots__ = ("name", "vars")

    def __init__(self, name: str):
        self.name = name  # fully qualified, "" for global
        self.vars: dict[str, Var] = {}


class Frame:
    __slots__ = ("vars", "ns", "label", "version")

    def __init__(self, ns: Namespace, label: str = "<frame>"):
        self.vars: dict[str, Var] = {}
        self.ns = ns
        self.label = label
        # Bumped whenever a var *cell* is replaced or removed (unset,
        # global links) so the VM's local-slot cell cache
        # can invalidate.  Plain creation never bumps: the VM caches
        # cells lazily and re-probes the dict on a miss.
        self.version = 0


class TclProc:
    """A user-defined procedure (``proc``)."""

    __slots__ = (
        "name", "params", "body", "ns",
        "_names", "_simple", "_vm_code",
    )

    def __init__(self, name: str, spec: tuple, body: str, ns: Namespace):
        self.name = name
        # spec: (params, names, simple), cached per text by ``_arg_spec``.
        # params are (name, default|None), the last may be "args"; simple
        # is 1 for plain positionals, 2 for those then ``args``, else 0:
        # the argument-binding fast paths.
        self.params, self._names, self._simple = spec
        self.body = body
        self.ns = ns
        # Bytecode slot: the body's template bound for the one interp
        # that defined this proc; False marks a body the compiler
        # declined, which runs via ``interp.eval``.
        self._vm_code: Any = None

    def bind(self, fv: dict[str, "Var"], argv: list[str]) -> None:
        """Bind ``argv`` to the parameters in ``fv``: positionals, then
        defaults, then a trailing ``args`` list; arity errors raise."""
        params = self.params
        n_named = len(params)
        has_varargs = bool(params) and params[-1][0] == "args"
        if has_varargs:
            n_named -= 1
        if len(argv) > n_named and not has_varargs:
            raise self._wrong_args()
        for i in range(n_named):
            pname, default = params[i]
            if i < len(argv):
                fv[pname] = Var(argv[i])
            elif default is not None:
                fv[pname] = Var(default)
            else:
                raise self._wrong_args()
        if has_varargs:
            fv["args"] = Var(format_list(argv[n_named:]))

    def _wrong_args(self) -> TclError:
        return TclError(
            'wrong # args: should be "%s %s"' % (self.name, " ".join(self._names))
        )

    def __call__(self, interp: "Interp", argv: list[str]) -> str:
        if interp.compile_enabled:
            vcode = self._vm_code or interp._vm_proc_code(interp, self)
            if vcode:
                return interp._vm_call_proc(interp, self, vcode, argv)
        frame = Frame(self.ns, label=self.name)
        if self._simple == 1 and len(argv) == len(self.params):
            fv = frame.vars
            for pname, val in zip(self._names, argv):
                fv[pname] = Var(val)
        else:
            self.bind(frame.vars, argv)
        interp.frames.append(frame)
        saved_ns = interp.current_ns
        interp.current_ns = self.ns
        try:
            return interp.eval(self.body)
        except TclReturn as r:
            if r.code == 1:
                raise TclError(r.value) from None
            return r.value
        finally:
            interp.frames.pop()
            interp.current_ns = saved_ns


class Interp:
    """A Tcl interpreter instance.

    Each MPI rank in the runtime hosts one of these; rule bodies and
    worker task fragments are evaluated here.
    """

    MAX_DEPTH = 900
    # VM mode: Tcl proc calls stay inside one dispatch loop, so only
    # nested *evaluations* (eval/catch and EXEC fallbacks)
    # consume Python stack — a much lower eval-depth budget fits under
    # CPython's default recursion limit with no setrecursionlimit bump.
    VM_MAX_DEPTH = 128
    # VM frame-depth limit: Tcl proc recursion depth before the VM
    # raises a catchable TclError (replaces RecursionError entirely).
    FRAME_LIMIT = 4000

    def __init__(self, register_core: bool = True, compile_enabled: bool = True):
        # Exceptions of the host program that a command may raise and
        # Tcl must neither wrap as a TclError nor ``catch``; whoever
        # registers such commands adds theirs.
        self.passthrough: tuple[type[BaseException], ...] = (RecursionError,)
        # The bytecode VM is the product; compile_enabled=False selects
        # the plain interpreted walk, kept as the differential oracle.
        self.compile_enabled = compile_enabled
        if compile_enabled:
            self.MAX_DEPTH = self.VM_MAX_DEPTH
        else:
            # A Tcl evaluation level costs ~12 Python frames; make room
            # for the MAX_DEPTH guard to fire before CPython's.
            sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))
        self.global_ns = Namespace("")
        self.namespaces: dict[str, Namespace] = {"": self.global_ns}
        self.commands: dict[str, CommandFn] = {}
        gframe = Frame(self.global_ns, label="<global>")
        gframe.vars = self.global_ns.vars  # global frame sees global ns vars
        self.frames: list[Frame] = [gframe]
        self.current_ns: Namespace = self.global_ns
        self._depth = 0
        # Opaque host-object registry (blobs, pointers, interpreters).
        self._objects: dict[str, Any] = {}
        self._obj_seq = itertools.count(1)
        # Provided / loadable packages: name -> (version, loader)
        self.package_loaders: dict[str, tuple[str, Callable[["Interp"], None]]] = {}
        self.packages_provided: dict[str, str] = {}
        # Embedded language interpreters bound into this one, by
        # package name (repro.interlang.register_embedded).
        self.embedded: dict[str, Any] = {}
        # Output sink for puts (tests capture this).
        self.stdout: list[str] = []
        self.echo = True  # also print to real stdout
        # cmd_epoch is bumped by register/unregister (and therefore by
        # proc redefinition and rename); every cached command pointer
        # (the VM's inline call caches) is tagged with the epoch it was
        # looked up under and re-resolves on mismatch.
        self.cmd_epoch = 0
        self.vm_stats = VMStats()
        if compile_enabled:
            from . import vm as _vm

            self._vm_run_script = _vm.run_script
            self._vm_call_proc = _vm.call_proc
            self._vm_proc_code = _vm.proc_code
            self.vm_nest = 0  # vm.call_proc activations running, nested
            # Script text -> its _vm_lower, a Code bound for this interp,
            # LRU first.  This interp's rank thread alone touches it.
            self._vm_code_cache: dict[str, Any] = {}
        if register_core:
            from .commands import register_all

            register_all(self)

    # -- object registry --------------------------------------------------

    def wrap_object(self, obj: Any, prefix: str = "obj") -> str:
        handle = "_%s#%d" % (prefix, next(self._obj_seq))
        self._objects[handle] = obj
        return handle

    def unwrap(self, handle: str) -> Any:
        try:
            return self._objects[handle]
        except KeyError:
            raise TclError("invalid object handle %r" % handle) from None

    def has_object(self, handle: str) -> bool:
        return handle in self._objects

    def release_object(self, handle: str) -> None:
        self._objects.pop(handle, None)

    # -- variables ---------------------------------------------------------

    def _resolve_ns(self, qualified: str) -> tuple[Namespace, str]:
        """Split a qualified variable name into (namespace, tail)."""
        name = qualified.lstrip(":")
        if "::" in name:
            ns_name, tail = name.rsplit("::", 1)
            ns = self.namespaces.get(ns_name)
            if ns is None:
                raise TclError(
                    'namespace "%s" does not exist (variable "%s")'
                    % (ns_name, qualified)
                )
            return ns, tail
        return self.global_ns, name

    def _var_cell(self, name: str, create: bool) -> Var | None:
        if "::" in name:
            ns, tail = self._resolve_ns(name)
            cell = ns.vars.get(tail)
            if cell is None and create:
                cell = Var()
                ns.vars[tail] = cell
            return cell
        frame = self.frames[-1]
        cell = frame.vars.get(name)
        if cell is None and create:
            cell = Var()
            frame.vars[name] = cell
        return cell

    def get_var(self, name: str) -> str:
        cell = self._var_cell(name, create=False)
        if cell is None:
            raise TclError('can\'t read "%s": no such variable' % name)
        return cell.value

    def set_var(self, name: str, value: Any) -> str:
        sval = value if isinstance(value, str) else to_string(value)
        cell = self._var_cell(name, create=True)
        assert cell is not None
        cell.value = sval
        return sval

    def unset_var(self, name: str) -> None:
        if "::" in name:
            ns, tail = self._resolve_ns(name)
            if tail not in ns.vars:
                raise TclError('can\'t unset "%s": no such variable' % name)
            del ns.vars[tail]
            return
        frame = self.frames[-1]
        if name not in frame.vars:
            raise TclError('can\'t unset "%s": no such variable' % name)
        del frame.vars[name]
        frame.version += 1  # invalidate VM slot-cell caches

    def var_exists(self, name: str) -> bool:
        return self._var_cell(name, create=False) is not None

    def link_var(self, local_name: str, target_frame: Frame, target_name: str) -> None:
        """Implement global: alias local_name to a cell elsewhere."""
        cell = target_frame.vars.get(target_name)
        if cell is None:
            cell = Var()
            target_frame.vars[target_name] = cell
        frame = self.frames[-1]
        frame.vars[local_name] = cell
        frame.version += 1  # the local name now aliases a foreign cell

    # -- namespaces ---------------------------------------------------------

    def namespace(self, name: str, create: bool = False) -> Namespace:
        key = name.lstrip(":")
        ns = self.namespaces.get(key)
        if ns is None:
            if not create:
                raise TclError('unknown namespace "%s"' % name)
            ns = Namespace(key)
            self.namespaces[key] = ns
        return ns

    # -- commands ------------------------------------------------------------

    def register(self, name: str, fn: CommandFn) -> None:
        self.commands[name.lstrip(":")] = fn
        self.cmd_epoch += 1  # invalidate compiled command-pointer caches

    def unregister(self, name: str) -> None:
        self.commands.pop(name.lstrip(":"), None)
        self.cmd_epoch += 1

    def qualify(self, name: str) -> str:
        """Fully qualify a command name relative to the current namespace."""
        if name.startswith("::"):
            return name.lstrip(":")
        if self.current_ns.name and not name.startswith("::"):
            cand = self.current_ns.name + "::" + name
            if cand in self.commands:
                return cand
        return name

    def lookup_command(self, name: str) -> CommandFn | None:
        return self.commands.get(self.qualify(name))

    # -- evaluation -----------------------------------------------------------

    def eval(self, script: str) -> str:
        """Evaluate a script; returns the result of its last command."""
        if self._depth >= self.MAX_DEPTH:
            raise TclError("too many nested evaluations (infinite loop?)")
        self._depth += 1
        try:
            if self.compile_enabled:
                if _PLAIN(script):
                    argv = script.split(" ")
                    if argv[0] not in _SCRIPT_BUILTINS:
                        return self._dispatch(argv, 1)
                code = self.vm_compiled(script)
                if type(code) is Command:
                    return self._run_command(code)
                return self._vm_run_script(self, code)
            # Oracle: walk the parsed representation directly,
            # substituting per word per call.
            try:
                cmds = parse_cached(script)
            except TclParseError as e:
                raise TclError(str(e)) from None
            result = ""
            for cmd in cmds:
                result = self._run_command(cmd)
            return result
        finally:
            self._depth -= 1

    def vm_compiled(self, script: str):
        """Fetch (or lower) the VM form of a script, LRU-cached."""
        cache = self._vm_code_cache
        code = cache.pop(script, None)
        if code is None:
            code = _vm_lower(script)
            if type(code) is not Command:
                code = code.bind(self.vm_stats)
            if len(cache) >= 2048:
                del cache[next(iter(cache))]
            self.vm_stats.code_misses += 1
        else:
            self.vm_stats.code_hits += 1
        cache[script] = code
        return code

    def _dispatch(self, argv: list[str], line: int) -> str:
        """Run a substituted command: its function, else ``unknown``."""
        fn = self.lookup_command(argv[0])
        if fn is None:
            return self._call_unknown(argv, line)
        return self._finish_command(fn, argv, line)

    def _call_unknown(self, argv: list[str], line: int) -> str:
        """Hand an unresolvable command to ``unknown``, if one is defined."""
        fn = self.commands.get("unknown")
        if fn is None:
            raise TclError('invalid command name "%s"' % argv[0])
        return self._finish_command(fn, ["unknown"] + argv, line)

    def _finish_command(self, fn: CommandFn, argv: list[str], line: int) -> str:
        """Call ``fn`` on an already-substituted ``argv``, decorating
        errors with the command text and stringifying the result."""
        try:
            result = fn(self, argv[1:])
        except Exception as e:
            raise self.failed(e, argv, line)
        if result is None:
            return ""
        return result if isinstance(result, str) else to_string(result)

    def failed(self, e: Exception, argv: list[str], line: int) -> Exception:
        """What command ``argv``'s exception raises at its call site: a
        TclError gains the site, a host error becomes one, and return
        codes and ``passthrough`` exceptions go on as they are."""
        if isinstance(e, (TclReturn, TclBreak, TclContinue) + self.passthrough):
            return e
        if not isinstance(e, TclError):
            err = TclError("%s: %s" % (type(e).__name__, e))
            err.__cause__, e = e, err
        e.add_info('"%s" (line %d)' % (_abbrev(argv), line))
        return e

    def _subst_word(self, word: Word) -> str:
        if word.literal is not None:
            return word.literal
        parts: list[str] = []
        for kind, text in word.segments:
            if kind == "lit":
                parts.append(text)
            elif kind == "var":
                parts.append(self.get_var(text))
            else:  # cmd
                parts.append(self.eval(text))
        return "".join(parts)

    def _run_command(self, cmd: Command) -> str:
        argv: list[str] = []
        for word in cmd.words:
            val = self._subst_word(word)
            if word.expand:
                argv.extend(parse_list(val))
            else:
                argv.append(val)
        if not argv:
            return ""
        return self._dispatch(argv, cmd.line)

    # -- host conveniences ------------------------------------------------------

    def puts(self, line: str) -> None:
        self.stdout.append(line)
        if self.echo:
            print(line)


@functools.lru_cache(maxsize=4096)
def _vm_lower(script: str):
    """Lower one script for the VM, once per process.

    A one-command script whose words are all literal (a braced or
    escaped word keeps it off the plain road) stays its parsed
    :class:`Command`, which ``eval`` runs as the oracle does: no
    Code build, no root frame.  Everything else gets a bytecode
    template, which each interp binds before it runs.
    """
    try:
        cmds = parse_cached(script)
    except TclParseError as e:
        raise TclError(str(e)) from None
    if len(cmds) == 1:
        cmd = cmds[0]
        if cmd.words[0].literal not in _SCRIPT_BUILTINS and all(
            w.literal is not None and not w.expand for w in cmd.words
        ):
            return cmd
    from .compile import compile_script_code

    return compile_script_code(cmds, script)


def _abbrev(argv: list[str]) -> str:
    s = " ".join(argv)
    return s if len(s) <= 60 else s[:57] + "..."
