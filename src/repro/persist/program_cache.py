"""Name-abstracted cache of whole compiled programs.

The plan cache (:mod:`repro.persist.plan_cache`) skips the dynamic program
for a signature-equal chain segment, but a renamed repeat of a whole
program still pays parse, segment decomposition, one plan lookup and
rebind per segment, and emission.  None of that depends on the operand
names: the generalized matrix chain algorithm chooses kernels from shapes
and properties only.  :class:`ProgramCache` therefore keys a whole
program's compiled result by its name-abstracted token stream
(:func:`repro.algebra.dsl.abstract_operand_names`) plus the options that
shape it, and a repeat under fresh names is answered by substituting the
new names into the stored result.

The cache stores opaque entries; what an entry holds and how names are
substituted back is the caller's business (the service's
:func:`repro.service.api.execute_request`).  This module owns the bound,
the LRU order, the telemetry counters and validity: entries derive from
the session's plan cache, so they are flushed whenever that cache is
(catalog extension, predicate-registry mutation), and requests the plan
cache would bypass bypass this cache too.  Entries live in memory only; a
snapshot-booted session starts with an empty program cache and answers
its first requests from the restored plan cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional

from ..options import CompileOptions
from .plan_cache import PlanCache

__all__ = ["ProgramCache", "MAX_PROGRAMS"]

#: Bound on the programs one session keeps (least recently used go first).
MAX_PROGRAMS = 1024


class ProgramCache:
    """An LRU-bounded map from a name-abstracted program key to an entry.

    Bound to one session's :class:`~repro.persist.plan_cache.PlanCache`,
    whose eligibility rules and flushes it follows.  Joins the telemetry
    protocol as the ``program_cache`` layer (:mod:`repro.telemetry`).
    """

    def __init__(self, plan_cache: PlanCache) -> None:
        self._plan_cache = plan_cache
        self._generation = plan_cache.generation
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bypasses = 0
        self.stores = 0

    def __len__(self) -> int:
        return len(self._entries)

    def usable(self, options: CompileOptions) -> bool:
        """Whether a request under *options* may use this cache.

        Diagnostic requests (``trace``, ``profile``) and ``plan_cache=False``
        may not, nor may anything the plan cache would bypass.  The caller
        counts its bypasses in :attr:`bypasses`.
        """
        if (
            options.plan_cache
            and not options.trace
            and not options.profile
            and self._plan_cache.usable(options)
        ):
            if self._generation != self._plan_cache.generation:
                self._entries.clear()
                self._generation = self._plan_cache.generation
            return True
        return False

    def lookup(self, key: Hashable) -> Optional[object]:
        """The entry stored under *key*, or ``None`` (counts hit/miss)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry

    def store(self, key: Hashable, entry: object) -> None:
        if key not in self._entries and len(self._entries) >= MAX_PROGRAMS:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self.stores += 1

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Plain-dict counters (uniform cache-stats protocol)."""
        return {
            "layer": "program_cache",
            "size": len(self._entries),
            "max_entries": MAX_PROGRAMS,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "bypasses": self.bypasses,
            "stores": self.stores,
        }

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bypasses = 0
        self.stores = 0
