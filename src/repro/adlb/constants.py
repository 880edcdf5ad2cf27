"""Protocol constants for the ADLB layer: tags, opcodes, task types."""

from __future__ import annotations

# --- message tags ---------------------------------------------------------
TAG_REQUEST = 10  # client -> server RPC request
TAG_RESPONSE = 11  # server -> client RPC response
TAG_ONEWAY = 12  # client -> server, no response expected
TAG_ASYNC = 13  # server -> client async delivery (notify/ctask/shutdown)
TAG_SERVER = 14  # server <-> server (steal, shutdown fanout, counters)

# --- task types -----------------------------------------------------------
WORK = "WORK"  # leaf tasks, executed by workers
CONTROL = "CONTROL"  # dataflow logic tasks, executed by engines

# --- data types -----------------------------------------------------------
T_INTEGER = "integer"
T_FLOAT = "float"
T_STRING = "string"
T_BLOB = "blob"
T_BOOLEAN = "boolean"
T_VOID = "void"
T_CONTAINER = "container"

SCALAR_TYPES = {T_INTEGER, T_FLOAT, T_STRING, T_BLOB, T_BOOLEAN, T_VOID}

# --- opcodes (request ops carry a dict payload) -----------------------------
OP_GET = "GET"  # blocking get (worker)
OP_GET_ASYNC = "GET_ASYNC"  # parked get with async delivery (engine)
OP_ID_BLOCK = "ID_BLOCK"
OP_COMMIT = "COMMIT"  # a unit's effects on one server, applied in order
OP_RETRIEVE = "RETRIEVE"
OP_EXISTS = "EXISTS"
OP_ENUMERATE = "ENUMERATE"
OP_TYPEOF = "TYPEOF"
# the ops inside a commit (the data ops also in the replication op-log)
OP_CREATE = "CREATE"
OP_STORE = "STORE"
OP_CONTAINER_REF = "CONTAINER_REF"  # copy member subscript of id into dst
OP_COPY = "COPY"  # copy TD id into TD dst once id closes
OP_REFCOUNT = "REFCOUNT"
OP_SUBSCRIBE = "SUBSCRIBE"
OP_TASKS = "TASKS"  # queue tasks: {"server", "tasks", "prov"?}
OP_WORK = "WORK"  # move the termination counter: {"amount", "poison"?}
OP_TASK_FAIL = "TASK_FAIL"  # client reports a failed leased work unit
OP_JOURNAL = "JOURNAL"  # engine streams rule-lifecycle journal entries

# --- server <-> server ops ---------------------------------------------------
SOP_STEAL_REQ = "STEAL_REQ"
SOP_STEAL_RESP = "STEAL_RESP"
SOP_SHUTDOWN = "SHUTDOWN"
SOP_RANK_DEAD = "RANK_DEAD"  # launcher-side notification: a rank died
SOP_DRAIN_PROBE = "DRAIN_PROBE"  # master asks: are you quiescent?
SOP_DRAIN_RESP = "DRAIN_RESP"
SOP_REPLICATE = "REPLICATE"  # a turn's op-log entries to the buddy (+ its ack)
SOP_REPL_ACK = "REPL_ACK"  # a lone ack, where no batch goes back (3+ servers)
SOP_CKPT_REQ = "CKPT_REQ"  # master asks a server for its checkpoint shard
SOP_CKPT_PART = "CKPT_PART"  # shard/engine contribution back to the master

# id allocation block size handed to clients
ID_BLOCK_SIZE = 256

#: most tasks one worker GET takes: the reply is a bundle of up to this
#: many matching tasks, fewer when the queue is short for the server's
#: clients or the tasks are not short (``BUNDLE_S``)
GET_BUNDLE = 8
#: seconds of work a bundle holds at most, at the pace of the worker's
#: last lease: tasks of ``BUNDLE_S / 2`` or longer go one a GET
BUNDLE_S = 0.002

#: most messages one server turn (``Server.pump``) dispatches before it
#: ships its op-log batch and looks at its timers again
TURN_MAX = 16
