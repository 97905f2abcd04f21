"""Persistence: whole-plan caching and snapshot-backed warm boot.

Two layers on top of the per-process caches of the compilation pipeline:

* :mod:`repro.persist.plan_cache` -- :class:`PlanCache`, an LRU cache
  mapping a request's name-abstracted chain signature plus an options
  fingerprint to the *full solved plan*; on a hit the entire dynamic
  program is skipped and the cached kernel calls are re-bound to the new
  request's operands by preorder position.
* :mod:`repro.persist.program_cache` -- :class:`ProgramCache`, an LRU
  cache of whole compiled programs keyed by their name-abstracted token
  stream; the service answers a renamed repeat of a program from it
  without parsing, decomposing or re-binding.  Memory only: it is never
  snapshotted.
* :mod:`repro.persist.snapshot` -- a versioned, checksummed on-disk
  snapshot of the plan cache and the kernel-match cache, written atomically
  and loaded at worker boot so a restarted service answers its first
  signature-equal request warm.  Stale or corrupt snapshots fall back to a
  clean cold boot, never a crash.

The :class:`~repro.frontend.compiler.Compiler` session owns one
:class:`PlanCache` and one :class:`ProgramCache`; the service executors (:mod:`repro.service.pool`) own
the snapshot lifecycle (``--snapshot-dir`` / ``POST /snapshot``).
"""

from .plan_cache import CachedPlanSolution, PlanCache, PlanRecipe, plan_fingerprint
from .program_cache import ProgramCache
from .snapshot import (
    SNAPSHOT_FILENAME,
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    SnapshotError,
    capture_state,
    load_snapshot,
    merge_states,
    read_snapshot,
    restore_state,
    snapshot_path,
    write_snapshot,
)

__all__ = [
    "PlanCache",
    "PlanRecipe",
    "CachedPlanSolution",
    "plan_fingerprint",
    "ProgramCache",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SNAPSHOT_FILENAME",
    "SnapshotError",
    "snapshot_path",
    "capture_state",
    "merge_states",
    "write_snapshot",
    "read_snapshot",
    "restore_state",
    "load_snapshot",
]
