"""The Tcl interpreter core: frames, namespaces, dispatch, substitution.

Values follow the everything-is-a-string model: command arguments and
results are Python ``str``.  Opaque host objects (blobs, interpreter
handles, native pointers) are stored in an object registry and passed
through Tcl as handle strings, the same trick SWIG uses for pointers.
"""

from __future__ import annotations

import itertools
import sys
from typing import Any, Callable

from ..lru import LRUCache
from .bytecode import VMStats
from .errors import TclBreak, TclContinue, TclError, TclReturn
from .expr import to_string
from .listutil import format_list, parse_list
from .parser import Command, TclParseError, Word, parse_cached

CommandFn = Callable[["Interp", list[str]], Any]


class CompiledCommand:
    """A one-command script whose words are all literal — the shape of
    every dataflow rule action.

    Owned by a single interpreter (it lives in the interp's code cache,
    never shared across interps/threads), which makes the embedded
    command-pointer cache safe.

    * ``argv`` — the argument vector, fixed at parse time.
    * ``_fn``/``_epoch``/``_ns`` — the resolved-command cache: valid
      only while the owning interp's ``cmd_epoch`` and current namespace
      match, so ``proc`` redefinition, ``rename``, and re-``register``
      self-invalidate it.
    """

    __slots__ = ("line", "argv", "_fn", "_epoch", "_ns")

    def __init__(self, argv: list[str], line: int):
        self.line = line
        self.argv = argv
        self._fn: CommandFn | None = None
        self._epoch = -1
        self._ns: Namespace | None = None


# Builtins that evaluate a script argument by calling ``interp.eval``
# on it.  A one-command literal script naming one of these is not
# dispatched as a :class:`CompiledCommand`: it takes the bytecode path,
# where the compiler inlines ``if``/``for``/``while`` bodies into the
# same code object instead of re-entering ``eval`` per iteration.
# Name-based on purpose: if a user rebinds one of these names the
# script just takes the (semantically identical) full bytecode path.
_SCRIPT_BUILTINS = frozenset(
    (
        "if", "while", "for", "foreach", "switch", "eval", "catch",
        "time", "subst", "dict", "lmap", "namespace", "source",
        "uplevel", "apply", "try",
    )
)


class Var:
    """A variable cell, shared between frames by upvar/global links."""

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
        # upvar/global/variable links) so the VM's local-slot cell cache
        # can invalidate.  Plain creation never bumps: the VM caches
        # cells lazily and re-probes the dict on a miss.
        self.version = 0


class TclProc:
    """A user-defined procedure (``proc``)."""

    __slots__ = (
        "name", "params", "body", "ns",
        "_names", "_simple", "_vm_code", "_vm_code_interp",
    )

    def __init__(
        self,
        name: str,
        params: list[tuple[str, str | None]],
        body: str,
        ns: Namespace,
    ):
        self.name = name
        self.params = params  # (name, default|None); last may be "args"
        self.body = body
        self.ns = ns
        # Argument-binding fast path: plain positional params only.
        self._names = [p for p, _ in params]
        self._simple = all(d is None for _, d in params) and (
            not params or params[-1][0] != "args"
        )
        # Bytecode slot: the body lowered for one interp's VM (procs are
        # created per-interp, but guard on identity anyway); False marks
        # a body the compiler declined, which runs via ``interp.eval``.
        self._vm_code: Any = None
        self._vm_code_interp: "Interp" | None = None

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
            vcode = self._vm_code
            if vcode is None or self._vm_code_interp is not interp:
                vcode = interp._vm_proc_code(interp, self)
            elif vcode is False:
                vcode = None
            if vcode is not None:
                return interp._vm_call_proc(interp, self, vcode, argv)
        frame = Frame(self.ns, label=self.name)
        if self._simple and len(argv) == len(self.params):
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
    # nested *evaluations* (eval/catch/uplevel and EXEC fallbacks)
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
        # (CompiledCommand, the VM's inline call caches) is tagged with
        # the epoch it was looked up under and re-resolves on mismatch.
        self.cmd_epoch = 0
        self.vm_stats = VMStats()
        if compile_enabled:
            from . import vm as _vm
            from .compile import compile_script_code as _vm_compile

            self._vm_run_script = _vm.run_script
            self._vm_call_proc = _vm.call_proc
            self._vm_proc_code = _vm.proc_code
            self._vm_compile_script = _vm_compile
            self._vm_code_cache: LRUCache[str, Any] = LRUCache(2048)
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
        """Implement upvar/global: alias local_name to a cell elsewhere."""
        cell = target_frame.vars.get(target_name)
        if cell is None:
            cell = Var()
            target_frame.vars[target_name] = cell
        frame = self.frames[-1]
        frame.vars[local_name] = cell
        frame.version += 1  # the local name now aliases a foreign cell

    def link_ns_var(self, local_name: str, ns: Namespace, target_name: str) -> None:
        cell = ns.vars.get(target_name)
        if cell is None:
            cell = Var()
            ns.vars[target_name] = cell
        frame = self.frames[-1]
        frame.vars[local_name] = cell
        frame.version += 1

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
                code = self.vm_compiled(script)
                if type(code) is CompiledCommand:
                    # Single literal command: dispatch directly — no
                    # script Code object, no root VM frame.  Proc bodies
                    # still run on the VM via TclProc.__call__.
                    return self._run_compiled(code)
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
        code = self._vm_code_cache.get(script)
        if code is None:
            code = self._vm_lower(script)
            self._vm_code_cache.put(script, code)
            self.vm_stats.code_misses += 1
        else:
            self.vm_stats.code_hits += 1
        return code

    def _vm_lower(self, script: str):
        """Lower one script for the VM.

        One-command scripts whose words are all literal skip bytecode
        entirely: lowering them to a :class:`CompiledCommand` avoids
        the per-script Code build and root frame, which dominates for
        the unique single-command strings the dataflow engine emits.
        Everything else gets the full bytecode treatment.
        """
        try:
            cmds = parse_cached(script)
        except TclParseError as e:
            raise TclError(str(e)) from None
        if len(cmds) == 1:
            words = cmds[0].words
            if words and all(
                w.literal is not None and not w.expand for w in words
            ):
                argv = [w.literal for w in words]
                if argv[0] not in _SCRIPT_BUILTINS:
                    return CompiledCommand(argv, cmds[0].line)  # type: ignore[arg-type]
        return self._vm_compile_script(self, script)

    def _run_compiled(self, cc: CompiledCommand) -> str:
        fn = cc._fn
        if (
            fn is None
            or cc._epoch != self.cmd_epoch
            or cc._ns is not self.current_ns
        ):
            fn = self.lookup_command(cc.argv[0])
            if fn is None:  # never cached
                return self._call_unknown(cc.argv, cc.line)
            cc._fn = fn
            cc._epoch = self.cmd_epoch
            cc._ns = self.current_ns
        return self._finish_command(fn, cc.argv, cc.line)

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
        except (TclReturn, TclBreak, TclContinue):
            raise
        except TclError as e:
            e.add_info('"%s" (line %d)' % (_abbrev(argv), line))
            raise
        except self.passthrough:
            raise
        except Exception as e:
            err = TclError("%s: %s" % (type(e).__name__, e))
            err.add_info('"%s" (line %d)' % (_abbrev(argv), line))
            err.__cause__ = e
            raise err from e
        if result is None:
            return ""
        return result if isinstance(result, str) else to_string(result)

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
        fn = self.lookup_command(argv[0])
        if fn is None:
            return self._call_unknown(argv, cmd.line)
        return self._finish_command(fn, argv, cmd.line)

    # -- host conveniences ------------------------------------------------------

    def call(self, name: str, *args: Any) -> str:
        """Call a Tcl command from Python with automatic stringification."""
        fn = self.lookup_command(name)
        if fn is None:
            raise TclError('invalid command name "%s"' % name)
        argv = [a if isinstance(a, str) else to_string(a) for a in args]
        result = fn(self, argv)
        if result is None:
            return ""
        return result if isinstance(result, str) else to_string(result)

    def puts(self, line: str) -> None:
        self.stdout.append(line)
        if self.echo:
            print(line)


def _abbrev(argv: list[str]) -> str:
    s = " ".join(argv)
    return s if len(s) <= 60 else s[:57] + "..."
