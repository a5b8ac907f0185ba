"""The fingerprint-keyed, disk-backed knowledge cache.

One entry per problem fingerprint, one JSON file per entry.  An entry
records what the winning solve of that problem *learned* — one
:class:`~repro.core.seeding.Knowledge` value: schedule-vocabulary
clauses (learned + root units, serialized literal tuples) and the route
veto of a proven unsat, under the signature they were learned with —
plus, for a ``sat``, the schedule it found (the ``schedules_to_wire``
form), and bookkeeping (status, solver work).

Admission path (:meth:`KnowledgeCache.lookup`): one dictionary lookup by
:func:`~repro.service.fingerprint.problem_fingerprint`.  A hit is the
entry of the very formula the request asks for, so its knowledge plugs
straight into ``SynthesisOptions.seed_knowledge`` and the whole import
machinery (verbatim clauses, veto escapes) is the race's, untouched.
The stored schedule is never seeded: the server answers a ``sat`` hit
with it after certifying it, and :meth:`KnowledgeCache.quarantine`
drops an entry whose schedule does not certify.

Persistence is crash-safe and hostile-input-safe: files are written
atomically (tmp + rename), and a file that fails to parse or validate
on load is *quarantined* — renamed to ``<name>.quarantined``, counted,
never imported, never fatal (the robustness contract of PR 7's pool
boundary, extended to disk).

Eviction is LRU with two caps: ``max_entries`` and ``max_bytes`` of
on-disk payload.  Every hit refreshes recency; inserts evict from the
cold end until both caps hold.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.seeding import Knowledge, StrategySignature
from ..fieldcheck import check_fields
from ..runtime.knowledge import validate_knowledge
from .protocol import rejecting, schedules_from_wire

#: On-disk schema version; bump on incompatible layout changes (old
#: entries are quarantined, not migrated — they are only ever hints).
#: Files written before entries carried ``schedules`` are version 1
#: too: they load, and their hits solve until a write-back records the
#: schedule.  So are files whose entries also carry a compatibility
#: bucket and per-application digests: the loader ignores keys it does
#: not read.
CACHE_VERSION = 1


def _tuplify(value):
    """Recursively turn JSON lists back into the tuples seeds are made of."""
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


@dataclass
class CacheEntry:
    """One cached problem's transferable knowledge."""

    fingerprint: str
    status: str = field(metadata={"in": ("sat", "unsat", "unknown")})
    knowledge: Knowledge                 # learned under the recorder's options
    schedules: Optional[List[dict]] = None   # schedules_to_wire, sat only
    work: Dict[str, int] = field(default_factory=dict)
    created: float = 0.0

    def to_json(self) -> dict:
        knowledge = self.knowledge
        return {
            "version": CACHE_VERSION,
            "fingerprint": self.fingerprint,
            "options": asdict(knowledge.signature),
            "status": self.status,
            "clauses": knowledge.clauses,
            "route_veto": knowledge.route_veto or None,
            "schedules": self.schedules,
            "work": self.work,
            "created": self.created,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "CacheEntry":
        """The entry of a cache file (keys it does not read are ignored);
        ``ProtocolError``, a ``ValueError``, on anything else."""
        with rejecting("cache entry"):
            if payload.get("version") != CACHE_VERSION:
                raise ValueError(f"unsupported cache version "
                                 f"{payload.get('version')!r}")
            entry = cls(
                fingerprint=payload["fingerprint"],
                status=payload["status"],
                knowledge=Knowledge(
                    StrategySignature(**payload["options"]),
                    clauses=_tuplify(payload.get("clauses") or []),
                    route_veto=_tuplify(payload.get("route_veto") or [])),
                schedules=payload.get("schedules"),
                work=payload.get("work", {}),
                created=payload.get("created", 0.0),
            )
            entry.validate()
        return entry

    def validate(self) -> None:
        """Shape-check everything a seeded worker would deserialize.

        The disk is a pool boundary exactly like the race's worker
        pipes: an entry that fails here is quarantined by the loader,
        never imported.  Its knowledge passes the pipe-boundary gate,
        :func:`~repro.runtime.knowledge.validate_knowledge`; a schedule
        must parse with :func:`~repro.service.protocol.schedules_from_wire`
        (whether it solves the problem is the server's check, at hit
        time).
        """
        check_fields(self)
        if not self.fingerprint:
            raise ValueError("entry without a fingerprint")
        problem = validate_knowledge(self.knowledge)
        if problem is not None:
            raise ValueError(f"cached knowledge invalid: {problem}")
        if self.schedules is not None:
            if self.status != "sat":
                raise ValueError(f"schedules on a {self.status} entry")
            schedules_from_wire(self.schedules)   # ProtocolError: ValueError


class KnowledgeCache:
    """LRU-bounded persistent cache of per-fingerprint knowledge."""

    def __init__(self, root: str | Path, max_entries: int = 256,
                 max_bytes: int = 16 * 1024 * 1024) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        # fingerprint -> entry, in LRU order (first = coldest).
        self._entries: Dict[str, CacheEntry] = {}
        self._sizes: Dict[str, int] = {}
        # ``ancestor_hits`` is always 0: every hit is exact.  The ledger's
        # ``harness/metrics.py`` reads the key by name; it goes with the
        # ledger's next contract change (ROADMAP item 17).
        self.counters: Dict[str, int] = {
            "exact_hits": 0, "ancestor_hits": 0, "misses": 0,
            "stores": 0, "evictions": 0, "quarantined_entries": 0,
        }
        self._load()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def _load(self) -> None:
        """Scan the cache directory; quarantine anything unreadable."""
        loaded: List[Tuple[float, CacheEntry, int]] = []
        for path in sorted(self.root.glob("*.json")):
            try:
                payload = json.loads(path.read_text())
                entry = CacheEntry.from_json(payload)
                if entry.fingerprint != path.stem:
                    raise ValueError("fingerprint does not match filename")
            except (ValueError, RecursionError, OSError):
                self._quarantine(path)
                continue
            loaded.append((entry.created, entry, path.stat().st_size))
        # Recency order: oldest first (LRU cold end at the front).
        for _, entry, size in sorted(loaded, key=lambda t: t[0]):
            self._entries[entry.fingerprint] = entry
            self._sizes[entry.fingerprint] = size
        self._evict()

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt file aside; never raise, never import."""
        try:
            path.rename(path.with_suffix(path.suffix + ".quarantined"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        self.counters["quarantined_entries"] += 1

    def quarantine(self, fingerprint: str) -> None:
        """Drop an entry the server refused to serve (its schedule does
        not certify); its file is quarantined like a corrupt one."""
        if self._entries.pop(fingerprint, None) is not None:
            self._sizes.pop(fingerprint, None)
            self._quarantine(self._path(fingerprint))

    def _write(self, entry: CacheEntry) -> int:
        """Atomic write (tmp + rename); returns the on-disk size."""
        blob = (json.dumps(entry.to_json(), sort_keys=True) + "\n").encode()
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, self._path(entry.fingerprint))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return len(blob)

    def _evict(self) -> None:
        while self._entries and (
                len(self._entries) > self.max_entries
                or sum(self._sizes.values()) > self.max_bytes):
            coldest = next(iter(self._entries))
            # Refuse to evict the only entry on a size-cap violation it
            # cannot fix — a single oversized entry is better than none.
            if (len(self._entries) == 1
                    and len(self._entries) <= self.max_entries):
                break
            del self._entries[coldest]
            self._sizes.pop(coldest, None)
            try:
                self._path(coldest).unlink()
            except OSError:
                pass
            self.counters["evictions"] += 1

    def _touch(self, fingerprint: str) -> None:
        """Refresh LRU recency (move to the hot end)."""
        self._entries[fingerprint] = self._entries.pop(fingerprint)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def lookup(self, fingerprint: str) -> Optional[CacheEntry]:
        """The entry stored under ``fingerprint``, or None.

        ``fingerprint`` is the request's
        :func:`~repro.service.fingerprint.problem_fingerprint`, which the
        caller computes once and passes to :meth:`store` too.  A hit
        refreshes the entry's recency; its knowledge seeds the request
        even when empty, because it is this very formula's.
        """
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.counters["misses"] += 1
            return None
        self._touch(fingerprint)
        self.counters["exact_hits"] += 1
        return entry

    def store(self, fingerprint: str, options, status: str,
              knowledge: Optional[Knowledge] = None,
              work: Optional[Dict[str, int]] = None,
              schedules: Optional[List[dict]] = None
              ) -> Optional[CacheEntry]:
        """Write one completed request's knowledge back (LRU insert).

        ``fingerprint`` is the key :meth:`lookup` took for the request,
        ``options`` its options.  ``knowledge`` is what the solve of
        ``options`` exported (None: nothing).  ``unknown`` results with
        no clauses are not stored.
        An existing entry for the same fingerprint is replaced (the
        fresh solve's knowledge supersedes it).  ``schedules`` (the
        ``schedules_to_wire`` form) is recorded for a ``sat`` only.
        """
        if knowledge is None:
            knowledge = Knowledge(options.signature)
        if (status not in ("sat", "unsat")
                and not getattr(knowledge, "clauses", ())):
            return None
        entry = CacheEntry(
            fingerprint=fingerprint,
            status=status,
            knowledge=knowledge,
            schedules=(list(schedules) if status == "sat" and schedules
                       else None),
            work=dict(work or {}),
            created=time.time(),
        )
        try:
            entry.validate()
            # Seeding reads the route limit off the signature, so
            # knowledge filed under another formula would import unsound.
            if knowledge.signature != options.signature:
                raise ValueError("knowledge of another formula")
        except ValueError:
            # A worker shipped junk (fault injection, version skew):
            # quarantine at the boundary, exactly like the pool does.
            self.counters["quarantined_entries"] += 1
            return None
        self._entries.pop(entry.fingerprint, None)
        self._sizes.pop(entry.fingerprint, None)
        try:
            size = self._write(entry)
        except OSError:
            return None  # disk trouble: the cache is only ever a hint
        self._entries[entry.fingerprint] = entry
        self._sizes[entry.fingerprint] = size
        self.counters["stores"] += 1
        self._evict()
        return entry

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    @property
    def total_bytes(self) -> int:
        return sum(self._sizes.values())

    @property
    def statistics(self) -> Dict[str, int]:
        stats = dict(self.counters)
        stats["entries"] = len(self._entries)
        stats["bytes"] = self.total_bytes
        return stats
