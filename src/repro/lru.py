"""A small bounded LRU cache shared by the hot-path caches.

Used by the Tcl script parse cache, the ``expr`` AST cache and each
interpreter's code cache.  Eviction is one-at-a-time
least-recently-used — never a full clear, which would cause a
thundering re-parse of every live entry (the bug this replaced in
``parse_cached``).

Plain dict preserves insertion order in CPython; ``get`` re-inserts the
key to mark it most-recently-used, and ``put`` evicts from the front.

Concurrency: the module-level parse/expr-AST caches are shared by all
rank threads with no lock.  Each individual dict operation is atomic
under the GIL, but the multi-step sequences here (read-then-touch in
``get``, pick-a-victim-then-delete in ``put``) are not, so every
removal tolerates another thread having removed the same key first.
A lost race costs at most a redundant re-parse or a slightly stale
LRU order, never an exception.  The ``hits``/``misses``/``evictions``
counters are best-effort under contention.
"""

from __future__ import annotations

from typing import Any, Generic, TypeVar

K = TypeVar("K")
V = TypeVar("V")

_MISSING = object()


class LRUCache(Generic[K, V]):
    __slots__ = ("capacity", "_data", "hits", "misses", "evictions")

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("LRU capacity must be >= 1")
        self.capacity = capacity
        self._data: dict[K, V] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def get(self, key: K, default: Any = None) -> V | Any:
        data = self._data
        value = data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        # Move to most-recently-used position (the key may already be
        # gone if another thread just evicted it; re-insert regardless).
        data.pop(key, None)
        data[key] = value
        return value

    def put(self, key: K, value: V) -> None:
        data = self._data
        if data.pop(key, _MISSING) is _MISSING:
            # Evict least-recently-used entries down to capacity:
            # exactly one, unless racing threads overshot it.
            while len(data) >= self.capacity:
                try:
                    victim = next(iter(data))
                except (StopIteration, RuntimeError):
                    continue  # another thread resized the dict; re-check
                if data.pop(victim, _MISSING) is not _MISSING:
                    self.evictions += 1
        data[key] = value

    def clear(self) -> None:
        self._data.clear()
