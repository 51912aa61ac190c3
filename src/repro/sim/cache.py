"""The process's one cache of expensive deterministic artefacts.

Everything the program keeps between experiments lives here, bounded
by the bytes of array data it holds: synthesised voices, attacker
emissions, transmitted interference beds, rendered interference
waveforms and the fleet's devices and trial contexts, each under a
namespaced :func:`stable_key`. Lives below the scenario, pipeline and
engine modules so each of them can reach :func:`process_cache`
without importing the others.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable

import numpy as np

from repro.errors import ExperimentError

#: Bytes of array data the process cache may hold. Quick-suite entries
#: run up to 51.5 MB; T2's 32-element array emission holds 44.7 MB of
#: radiated sources. The fleet's working set is 7.5 MB, so it never
#: evicts. Run in one process (single runs) the quick suite peaks at
#: 294, 318, 374 and 382 MB RSS with 37, 32, 32 and 31 misses at 32,
#: 64, 96 and 128 MiB: 64 MiB saves five re-syntheses over 32 MiB for
#: 24 MB, and more budget buys almost no hits.
CACHE_BUDGET_BYTES = 64 << 20

#: Leaves of the size walk, which hold no array memory.
_OPAQUE = (str, bytes, int, float, complex, type, ModuleType)


def stable_key(*parts: Any) -> str:
    """A stable hex digest of heterogeneous, ``repr``-able key parts.

    Used to key the emission cache by command + attacker
    configuration; stable across processes (unlike ``hash``, which is
    salted per interpreter for strings).
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
        digest.update(b"\x1f")
    return digest.hexdigest()


def array_nbytes(value: Any) -> int:
    """Bytes of the distinct ndarray buffers reachable from ``value``.

    Walks containers, instance attributes and ``__slots__`` (a
    :class:`~repro.dsp.signals.Signal`, an emission's ``sources``, a
    trial context, a device); a view counts its base array, once
    however many views of it the value holds.
    """
    buffers: dict[int, int] = {}
    seen: set[int] = set()
    stack = [value]
    while stack:
        node = stack.pop()
        if isinstance(node, _OPAQUE) or id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, np.ndarray):
            while isinstance(node.base, np.ndarray):
                node = node.base
            buffers[id(node)] = node.nbytes
        elif isinstance(node, (list, tuple, set, frozenset)):
            stack.extend(node)
        elif isinstance(node, dict):
            stack.extend(node.values())
        else:
            stack.extend(getattr(node, "__dict__", {}).values())
            for cls in type(node).__mro__:
                for name in getattr(cls, "__slots__", ()):
                    stack.append(getattr(node, name, None))
    return sum(buffers.values())


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting for an :class:`EmissionCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


class EmissionCache:
    """Process-local LRU cache for expensive deterministic artefacts.

    Entries are keyed by :func:`stable_key` digests and can be tens of
    MB (full array emissions), so the cache is bounded by the bytes of
    array data its entries hold (:func:`array_nbytes`): past
    ``max_bytes`` it evicts least recently used entries, never the one
    just inserted. An entry larger than the budget is still returned
    and held alone, so a trial group builds it once.
    """

    def __init__(self, max_bytes: int = CACHE_BUDGET_BYTES) -> None:
        if max_bytes < 1:
            raise ExperimentError(
                f"max_bytes must be >= 1, got {max_bytes}"
            )
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        #: Bytes of array data the entries hold.
        self.nbytes = 0
        self._entries: OrderedDict[str, tuple[Any, int]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get_or_compute(self, key: str, factory: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on miss."""
        if key in self._entries:
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key][0]
        self.stats.misses += 1
        value = factory()
        size = array_nbytes(value)
        self._entries[key] = (value, size)
        self.nbytes += size
        while self.nbytes > self.max_bytes and len(self._entries) > 1:
            _, (_, evicted) = self._entries.popitem(last=False)
            self.nbytes -= evicted
            self.stats.evictions += 1
        return value


#: The per-process cache. Workers forked from a warm parent inherit
#: its entries for free; workers that miss recompute once and keep the
#: result for every later task they execute.
_PROCESS_CACHE = EmissionCache()


def process_cache() -> EmissionCache:
    """The calling process's one cache of deterministic artefacts."""
    return _PROCESS_CACHE
