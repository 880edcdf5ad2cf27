"""Primitive Turbine commands, registered into each rank's Tcl interp.

Real Turbine implements these in C and exposes them to Tcl; here they
are Python functions bound to the rank's :class:`AdlbClient` (and, on
engine ranks, the rule engine).  The derived procs in
:mod:`repro.turbine.tcllib` build on them.
"""

from __future__ import annotations

import itertools
from typing import Any

from ..adlb import constants as C
from ..adlb.client import AdlbClient, AdlbError
from ..adlb.constants import (
    T_BOOLEAN,
    T_CONTAINER,
    T_FLOAT,
    T_INTEGER,
    T_STRING,
)
from ..adlb.dataops import apply_data_op
from ..adlb.datastore import DataStoreError
from ..mpi import AbortError, DeadlockError
from ..tcl.errors import TclError
from ..tcl.expr import to_string
from ..tcl.interp import Interp
from ..tcl.listutil import format_list, parse_list
from .unit import Held

def _to_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        try:
            return int(float(s))
        except ValueError:
            raise TclError("expected integer, got %r" % s) from None


def _to_float(s: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise TclError("expected float, got %r" % s) from None


def _to_bool(s: str) -> int:
    t = s.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return 1
    if t in ("0", "false", "no", "off", ""):
        return 0
    try:
        return 1 if float(t) != 0 else 0
    except ValueError:
        raise TclError("expected boolean, got %r" % s) from None


# What each typed store makes of a Tcl string (``turbine::norm`` applies
# the same conversion without a TD).
_CONV = {
    T_INTEGER: _to_int,
    T_FLOAT: _to_float,
    T_STRING: str,
    T_BOOLEAN: _to_bool,
}


#: A loop of leaves runs at most this many iterations in one unit: a
#: longer range is halved into CONTROL tasks until its pieces are not,
#: so engines share the loop and a server queues a chunk at a time.
SPLIT_OVER = 64


def range_count(lo: int, hi: int, step: int) -> int:
    """Iterations of ``foreach i in [lo:hi:step]`` — the one place a
    loop proc's step is checked, whether or not the range is split."""
    if step == 0 or (step < 0 and lo <= hi):
        raise TclError("range [%d:%d:%d] never ends" % (lo, hi, step))
    return (hi - lo) // step + 1 if hi >= lo else 0


def register_turbine(interp: Interp, client: AdlbClient, runtime, held: Held) -> None:
    """Register primitive turbine:: commands.

    ``runtime`` is the per-rank RankContext (layout, role).  ``held``
    is the :class:`~repro.turbine.unit.Held` of the rank's
    :class:`~repro.turbine.unit.UnitRunner`: the tables that hold the
    running unit's writes, spawns, rule registrations, refcount
    decrements and printed lines until its Tcl returns — the tables,
    not the runner: commands that reached the runner would tie the
    interpreter into a reference cycle, and a finished worker's
    interpreter would wait for the cycle collector instead of being
    freed at thread exit.  ``held.rules`` is None on a worker, which
    registers no rule.
    """
    writes, scratch, spawns, rules = held.writes, held.scratch, held.spawns, held.rules
    deferred, printed = held.deferred, held.printed

    def reg(name: str, fn) -> None:
        interp.register("turbine::" + name, fn)

    # These commands talk to other ranks: a transport failure inside one
    # is the rank's, not a Tcl error a unit could fail with or ``catch``.
    interp.passthrough += (AbortError, DeadlockError)

    # ---- rules and tasks --------------------------------------------------

    # A rule is held like a spawn, as a Rule.spec dict, and registered
    # when the unit's Tcl returns; everything about it is checked here.
    def cmd_rule(it, args):
        if rules is None:
            raise TclError("turbine::rule is only available on engine ranks")
        if len(args) < 2:
            raise TclError("usage: turbine::rule inputs action ?type? ?opts?")
        rtype = args[2] if len(args) > 2 else "LOCAL"
        if rtype not in ("LOCAL", "WORK", "CONTROL"):
            raise TclError("bad rule type %r" % rtype)
        inputs = [int(x) for x in parse_list(args[0])]
        spec = dict(inputs=inputs, action=args[1], type=rtype, target=-1, priority=0, name="")
        rest = args[3:]
        if len(rest) % 2:
            raise TclError("turbine::rule option %r has no value" % rest[-1])
        for i in range(0, len(rest), 2):
            key = rest[i].lstrip("-")
            if key in ("target", "priority"):
                spec[key] = int(rest[i + 1])
            elif key == "name":
                spec[key] = rest[i + 1]
            else:
                raise TclError("bad rule option %r" % rest[i])
        rules.append(spec)
        return ""

    # A spawn is held by the running unit, with the server it is bound
    # for, and its runner sends them all in the unit's commit when its
    # Tcl returns: a unit that raises, or is abandoned, has spawned
    # nothing.
    def cmd_spawn(it, args):
        # spawn type action ?priority? ?target?
        if len(args) < 2:
            raise TclError("usage: turbine::spawn type action ?priority? ?target?")
        if args[0] not in ("WORK", "CONTROL"):
            # no rank ever asks for another type: the run would hang
            raise TclError("bad task type %r" % args[0])
        priority = int(args[2]) if len(args) > 2 else 0
        target = int(args[3]) if len(args) > 3 else -1
        spawns.append((args[0], args[1], priority, target, client.bound_for(target)))
        return ""

    # A guarded chunk's catch branch forgets all it held before it raised,
    # and its fallback makes it again: ``spawned`` marks the unit's Held
    # before the catch, ``drop`` cuts back to the mark — not further: the
    # chunk may run in place in a unit whose earlier effects must stay.
    def cmd_spawned(it, args):
        if args:
            raise TclError("usage: turbine::spawned")
        return " ".join(map(str, held.mark()))

    def cmd_drop(it, args):
        mark = parse_list(args[0]) if len(args) == 1 else []
        if len(mark) < 4 or len(mark) % 3 != 1 or not all(x.lstrip("-").isdigit() for x in mark):
            raise TclError("usage: turbine::drop spawned")
        held.cut([int(x) for x in mark])
        return ""

    splits = itertools.count(1)  # this rank's splits, for the round-robin

    def cmd_range_count(it, args):
        if len(args) != 3:
            raise TclError("usage: turbine::range_count lo hi step")
        return str(range_count(*map(_to_int, args)))

    def cmd_split_range(it, args):
        # split_range proc lo hi step ?capture ...?: 1 if the range is
        # longer than SPLIT_OVER and was handed on as two CONTROL spawns
        # that call proc on a half each, 0 if it is the caller's to run.
        # The second half is bound for the next server round-robin, so
        # the engines of every server share the loop.
        if len(args) < 4:
            raise TclError("usage: turbine::split_range proc lo hi step ?capture ...?")
        lo, hi, step = map(_to_int, args[1:4])
        n = range_count(lo, hi, step)
        if n <= SPLIT_OVER:
            return "0"
        mid = lo + (n + 1) // 2 * step  # where the second half starts
        servers = client.layout.servers
        there = servers[(servers.index(client.my_server) + next(splits)) % len(servers)]
        for a, b, server in ((lo, mid - step, client.my_server), (mid, hi, there)):
            half = format_list([args[0], str(a), str(b), str(step), *args[4:]])
            spawns.append(("CONTROL", half, 0, -1, server))
        return "1"

    reg("rule", cmd_rule)
    reg("spawn", cmd_spawn)
    reg("spawned", cmd_spawned)
    reg("drop", cmd_drop)
    reg("range_count", cmd_range_count)
    reg("split_range", cmd_split_range)

    # ---- data ----------------------------------------------------------------

    # A write is held with the unit's spawns and leaves first, as one
    # commit per server.  One on a TD the unit created is also applied
    # to ``scratch`` at once, and reads of such a TD are answered from
    # it: the TD does not exist on its server until the unit commits.
    def local(msg: dict) -> Any:
        try:
            return apply_data_op(scratch, msg, client.rank, [], [])[0]
        except DataStoreError as e:
            raise AdlbError(str(e)) from None

    def write(op: dict) -> str:
        if op["op"] == C.OP_CREATE or op["id"] in scratch.tds:
            local(op)
        writes.append(op)
        return ""

    def read(op: str, td: str, subscript: str | None = None) -> Any:
        msg = {"op": op, "id": int(td), "subscript": subscript}
        return local(msg) if msg["id"] in scratch.tds else client.read(msg)

    def cmd_allocate(it, args):
        if not args:
            raise TclError("usage: turbine::allocate type ?write_refcount?")
        # the scratch create checks the type and the refcount
        td = client.allocate_id()
        wrc = int(args[1]) if len(args) > 1 else 1
        write({"op": C.OP_CREATE, "id": td, "type": args[0], "write_refcount": wrc})
        return str(td)

    def cmd_allocate_container(it, args):
        return cmd_allocate(it, [T_CONTAINER, *args])

    reg("allocate", cmd_allocate)
    reg("allocate_container", cmd_allocate_container)

    def _store(td: str, value: Any, decr: str | None, subscript: str | None = None) -> str:
        op = {"op": C.OP_STORE, "id": int(td), "value": value, "subscript": subscript}
        return write(dict(op, decr_write=int(decr) if decr else 1))

    def _mk_store(conv):
        def cmd(it, args):
            if len(args) not in (2, 3):
                raise TclError("usage: turbine::store_* id value ?decr?")
            return _store(args[0], conv(args[1]), args[2] if len(args) > 2 else None)

        return cmd

    for dtype, conv in _CONV.items():
        reg("store_" + dtype, _mk_store(conv))

    def cmd_norm(it, args):
        # norm type value: the string a store_<type> of value followed
        # by a retrieve gives back.  STC-generated code applies it where
        # a value skips the TD, so closed, fused and stored evaluation
        # of one expression agree.
        if len(args) != 2 or args[0] not in _CONV:
            raise TclError("usage: turbine::norm type value")
        return to_string(_CONV[args[0]](args[1]))

    reg("norm", cmd_norm)

    def cmd_store_void(it, args):
        if len(args) not in (1, 2):
            raise TclError("usage: turbine::store_void id ?decr?")
        return _store(args[0], "", args[1] if len(args) > 1 else None)

    reg("store_void", cmd_store_void)

    def cmd_store_blob(it, args):
        if len(args) not in (2, 3):
            raise TclError("usage: turbine::store_blob id handle ?decr?")
        obj = it.unwrap(args[1])
        if hasattr(obj, "to_bytes"):  # Blob
            data = obj.to_bytes()
        elif isinstance(obj, (bytes, bytearray)):
            data = bytes(obj)
        else:
            raise TclError("store_blob: %r is not blob-like" % args[1])
        return _store(args[0], data, args[2] if len(args) > 2 else None)

    reg("store_blob", cmd_store_blob)

    def cmd_copy_td(it, args):
        # src's server stores its value into dst once it closes: no rule
        if len(args) != 2:
            raise TclError("usage: turbine::copy_td dst src")
        return write({"op": C.OP_COPY, "id": int(args[1]), "dst": int(args[0])})

    reg("copy_td", cmd_copy_td)

    # ---- retrieves -----------------------------------------------------------

    def _value_to_tcl(it, value: Any) -> str:
        if isinstance(value, (bytes, bytearray)):
            from ..blob import Blob

            return it.wrap_object(Blob.from_bytes(bytes(value)), "blob")
        if isinstance(value, bool):
            return "1" if value else "0"
        if value is None:
            return ""
        return to_string(value)

    def cmd_retrieve(it, args):
        if len(args) not in (1, 2):
            raise TclError("usage: turbine::retrieve id ?subscript?")
        return _value_to_tcl(it, read(C.OP_RETRIEVE, *args))

    reg("retrieve", cmd_retrieve)
    reg("retrieve_integer", cmd_retrieve)
    reg("retrieve_float", cmd_retrieve)
    reg("retrieve_string", cmd_retrieve)
    reg("retrieve_blob", cmd_retrieve)

    def cmd_exists(it, args):
        if len(args) not in (1, 2):
            raise TclError("usage: turbine::exists id ?subscript?")
        return "1" if read(C.OP_EXISTS, *args) else "0"

    reg("exists", cmd_exists)

    def cmd_typeof(it, args):
        if len(args) != 1:
            raise TclError("usage: turbine::typeof id")
        return read(C.OP_TYPEOF, args[0])

    reg("typeof", cmd_typeof)

    # ---- containers -------------------------------------------------------------

    def cmd_container_insert(it, args):
        if len(args) not in (3, 4):
            raise TclError(
                "usage: turbine::container_insert c subscript member ?decr?"
            )
        return _store(args[0], int(args[2]), args[3] if len(args) > 3 else None, args[1])

    reg("container_insert", cmd_container_insert)

    def cmd_container_lookup(it, args):
        if len(args) != 2:
            raise TclError("usage: turbine::container_lookup c subscript")
        return to_string(read(C.OP_RETRIEVE, *args))

    reg("container_lookup", cmd_container_lookup)

    def cmd_container_reference(it, args):
        # copy member subscript of c into dst once it is inserted and closed
        if len(args) != 3:
            raise TclError("usage: turbine::container_reference c subscript dst")
        op = {"op": C.OP_CONTAINER_REF, "id": int(args[0]), "subscript": args[1]}
        return write(dict(op, dst=int(args[2])))

    reg("container_reference", cmd_container_reference)

    def cmd_enumerate(it, args):
        if len(args) != 1:
            raise TclError("usage: turbine::enumerate c")
        return format_list(read(C.OP_ENUMERATE, args[0]))

    reg("enumerate", cmd_enumerate)

    # ---- refcounts ----------------------------------------------------------------

    def _td_and_n(name: str, args) -> tuple[int, int]:
        if len(args) not in (1, 2):
            raise TclError("usage: turbine::%s id ?n?" % name)
        return int(args[0]), int(args[1]) if len(args) > 1 else 1

    def cmd_wrc_incr(it, args):
        # A write like any other: the slots it adds are handed out only
        # by spawns and rules, which leave after the writes.
        td, n = _td_and_n("write_refcount_incr", args)
        return write({"op": C.OP_REFCOUNT, "id": td, "write_delta": n}) if n else ""

    def cmd_wrc_decr(it, args):
        td, n = _td_and_n("write_refcount_decr", args)
        if n:
            deferred.setdefault(td, [0, 0])[1] -= n
        return ""

    def cmd_rrc_decr(it, args):
        td, n = _td_and_n("read_refcount_decr", args)
        if n:
            deferred.setdefault(td, [0, 0])[0] -= n
        return ""

    reg("write_refcount_incr", cmd_wrc_incr)
    reg("write_refcount_decr", cmd_wrc_decr)
    reg("read_refcount_decr", cmd_rrc_decr)

    # ---- environment ---------------------------------------------------------------

    reg("rank", lambda it, args: str(client.rank))
    reg("role", lambda it, args: runtime.role)
    reg("nworkers", lambda it, args: str(runtime.layout.n_workers))
    reg("nengines", lambda it, args: str(runtime.layout.n_engines))
    reg("nservers", lambda it, args: str(runtime.layout.n_servers))

    def cmd_log_output(it, args):
        printed.append(" ".join(args))
        return ""

    reg("log_output", cmd_log_output)
    reg("noop", lambda it, args: "")
