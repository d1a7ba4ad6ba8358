"""A thread-safe memo with per-key single flight and an optional LRU bound.

Threads (and one worker's RPC connections) miss on the same cold key at
once, so :meth:`Memo.get` builds each key once while the others wait.  A
failed build leaves the key absent; the next waiter builds it again.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

__all__ = ["Memo"]

_K = TypeVar("_K", bound=Hashable)
_V = TypeVar("_V")


class Memo(Generic[_K, _V]):
    """Key -> value table; ``maxsize`` evicts least recently used first.

    Args:
        maxsize: Entries kept; None keeps every entry.
    """

    def __init__(self, maxsize: int | None = None) -> None:
        self._maxsize = maxsize
        self._values: "OrderedDict[_K, _V]" = OrderedDict()
        self._lock = threading.Lock()
        # One lock per key being built; held for the whole build.
        self._building: dict[_K, threading.Lock] = {}

    def _hit(self, key: _K) -> bool:
        # Caller holds self._lock.
        if key in self._values:
            self._values.move_to_end(key)
            return True
        return False

    def _insert(self, key: _K, value: _V) -> None:
        # Caller holds self._lock; ``key`` is absent, so it lands last.
        self._values[key] = value
        if self._maxsize is not None:
            while len(self._values) > self._maxsize:
                self._values.popitem(last=False)

    def get(self, key: _K, build: Callable[[], _V]) -> _V:
        """The value under ``key``, calling ``build()`` once on a miss."""
        with self._lock:
            if self._hit(key):
                return self._values[key]
            flight = self._building.setdefault(key, threading.Lock())
        with flight:
            with self._lock:
                if self._hit(key):
                    return self._values[key]
            value = build()
            with self._lock:
                if self._hit(key):  # put_if_absent won the race
                    value = self._values[key]
                else:
                    self._insert(key, value)
                self._building.pop(key, None)
        return value

    def put_if_absent(self, key: _K, value: _V) -> bool:
        """Insert ``value`` unless ``key`` is present; True if inserted."""
        with self._lock:
            if key in self._values:
                return False
            self._insert(key, value)
            return True

    def pop(self, key: _K) -> _V | None:
        """Remove ``key``; its value, or None when absent."""
        with self._lock:
            return self._values.pop(key, None)

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._values.clear()
