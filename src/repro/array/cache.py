"""Array-controller caching: a small read cache and a write staging budget.

The paper deliberately configures tiny caches so results reflect AFRAID
itself rather than caching effects (§4.1): a 256 KB read cache with no
readahead (hits were rare — the traced hosts had much larger file buffer
caches upstream) and a 256 KB write staging area with a *write-through*
policy, so writes complete only once on disk.

:class:`ReadCache` is a plain LRU over stripe-unit-sized lines.
:class:`ByteBudget` models the staging area as a counted byte budget:
a write must reserve its footprint before its disk I/Os are issued and
releases it at completion, creating back-pressure for write bursts larger
than the staging memory.
"""

from __future__ import annotations

import collections
import dataclasses

from repro.sim import Event, Simulator


@dataclasses.dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ReadCache:
    """LRU read cache over fixed-size lines of logical address space.

    A lookup only counts as a hit when *every* line of the extent is
    resident (partial hits still cost the full disk access — a reasonable
    simplification given the paper's observation that array-cache read
    hits were rare under its traces).
    """

    def __init__(self, capacity_bytes: int, line_bytes: int, sector_bytes: int = 512) -> None:
        if line_bytes < sector_bytes or line_bytes % sector_bytes != 0:
            raise ValueError("line size must be a whole number of sectors")
        self.capacity_lines = max(0, capacity_bytes // line_bytes)
        self.line_sectors = line_bytes // sector_bytes
        self.stats = CacheStats()
        self._lines: collections.OrderedDict[int, None] = collections.OrderedDict()

    def _lines_of(self, sector: int, nsectors: int) -> range:
        first = sector // self.line_sectors
        last = (sector + nsectors - 1) // self.line_sectors
        return range(first, last + 1)

    def lookup(self, sector: int, nsectors: int) -> bool:
        """True (and LRU-refresh) if the whole extent is cached."""
        if self.capacity_lines == 0:
            self.stats.misses += 1
            return False
        resident = self._lines
        first = sector // self.line_sectors
        last = (sector + nsectors - 1) // self.line_sectors
        if first == last:
            # Single-line extent: the overwhelmingly common case for
            # stripe-unit-sized lines.
            if first in resident:
                resident.move_to_end(first)
                self.stats.hits += 1
                return True
            self.stats.misses += 1
            return False
        lines = range(first, last + 1)
        if all(line in resident for line in lines):
            for line in lines:
                resident.move_to_end(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def insert(self, sector: int, nsectors: int) -> None:
        """Make the extent resident (LRU evicting as needed)."""
        if self.capacity_lines == 0:
            return
        resident = self._lines
        first = sector // self.line_sectors
        last = (sector + nsectors - 1) // self.line_sectors
        if first == last:
            if first in resident:
                resident.move_to_end(first)
            else:
                resident[first] = None
                if len(resident) > self.capacity_lines:
                    resident.popitem(last=False)
            return
        for line in range(first, last + 1):
            if line in resident:
                resident.move_to_end(line)
            else:
                resident[line] = None
                if len(resident) > self.capacity_lines:
                    resident.popitem(last=False)

    @property
    def resident_lines(self) -> int:
        return len(self._lines)


class ByteBudget:
    """A counted byte budget with FIFO granting (the write staging area).

    ``reserve(n)`` returns an event that fires once ``n`` bytes are held.
    Requests larger than the whole budget are clamped to it (they proceed
    alone once the staging area is empty, rather than deadlocking).
    """

    def __init__(self, sim: Simulator, capacity_bytes: int, name: str = "staging") -> None:
        if capacity_bytes < 1:
            raise ValueError(f"capacity must be >= 1 byte, got {capacity_bytes}")
        self.sim = sim
        self.capacity_bytes = capacity_bytes
        self.name = name
        self._grant_name = f"{name}.grant"
        self._in_use = 0
        self._waiters: collections.deque[tuple[int, Event]] = collections.deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity_bytes - self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def clamp(self, nbytes: int) -> int:
        """The reservable footprint for a request of ``nbytes``."""
        return min(nbytes, self.capacity_bytes)

    def reserve(self, nbytes: int) -> Event:
        """Reserve ``nbytes`` (clamped); event fires when held."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        amount = self.clamp(nbytes)
        if not self._waiters and self._in_use + amount <= self.capacity_bytes:
            self._in_use += amount
            return Event(self.sim, self._grant_name).succeed(amount)
        grant = Event(self.sim, name=self._grant_name)
        self._waiters.append((amount, grant))
        return grant

    def release(self, nbytes: int) -> None:
        """Release a previously granted reservation (pass the same size)."""
        amount = self.clamp(nbytes)
        if amount > self._in_use:
            raise RuntimeError(f"{self.name}: releasing {amount} bytes but only {self._in_use} held")
        self._in_use -= amount
        while self._waiters and self._in_use + self._waiters[0][0] <= self.capacity_bytes:
            next_amount, grant = self._waiters.popleft()
            self._in_use += next_amount
            grant.succeed(next_amount)

    def __repr__(self) -> str:
        return f"<ByteBudget {self.name!r} {self._in_use}/{self.capacity_bytes}B, {self.queued} waiting>"
