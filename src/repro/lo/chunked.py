"""The chunked-object core shared by f-chunk (§6.3) and v-segment (§6.4).

The paper builds v-segment on top of f-chunk: its compressed segments
are "concatenated end-to-end and stored as a large ADT, chunked into 8K
blocks using the fixed-block storage scheme f-chunk".  Both keep their
byte size in a ``pg_largeobject`` row and both let disjoint-range
writers run in parallel, so the concurrency machinery is the same for
both and lives here, once:

* the descriptor state — deferred size, own high-water mark, held
  range locks, the commit epoch last checked, the before-commit flush
  hook, and the wall-clock gate ``_fast``;
* the one staleness rule (:meth:`ChunkedObject._refresh_committed`):
  every read, size and write path first compares
  ``clog.visibility_epoch`` with the epoch this descriptor last saw.
  When it has moved, everything cached under the old epoch is dropped —
  read-only or writable, in or out of a transaction, on both clocks —
  and a writable descriptor folds in the size other transactions
  committed.  No memo keeps an epoch of its own;
* grain-aligned EXCLUSIVE range locks and the whole-object lock;
* the size read (with its read-only memo) and the size-row flush;
* EOF-stable :meth:`ChunkedObject.append`.

Subclasses supply the layout: the relation and index names, the lock
bounds a byte span rounds out to (:meth:`ChunkedObject._lock_bounds`),
and the memos to drop when the epoch moves
(:meth:`ChunkedObject._on_epoch_moved`).
"""

from __future__ import annotations

from abc import abstractmethod
from typing import TYPE_CHECKING

from repro.compress.base import Compressor
from repro.errors import (
    LargeObjectError,
    NoActiveTransaction,
    ReadOnlyObject,
)
from repro.lo import metadata
from repro.lo.interface import LargeObject
from repro.txn.locks import LockMode
from repro.txn.manager import Transaction
from repro.txn.rangelock import IntervalSet, lo_range, lo_whole
from repro.txn.snapshot import Snapshot

if TYPE_CHECKING:
    from repro.db import Database


class ChunkedObject(LargeObject):
    """An open large object stored as tuples of a per-object class."""

    #: What one stored unit is called in anomaly diagnostics.
    unit = "chunk"

    def __init__(self, db: "Database", oid: int, compressor: Compressor,
                 txn: Transaction | None, writable: bool,
                 as_of: float | None, relation_name: str, index_name: str):
        if writable and txn is None:
            raise NoActiveTransaction(
                f"opening large object {oid} for writing requires a "
                f"transaction")
        if writable and as_of is not None:
            raise LargeObjectError(
                "historical (as-of) opens are read-only")
        super().__init__(f"lo:{oid}", writable)
        self.db = db
        self.oid = oid
        self.txn = txn
        self.as_of = as_of
        self.compressor = compressor
        self.relation = db.get_class(relation_name)
        self.index = db.get_index(index_name)
        self._cache_stats = db.lo.cache_stats
        #: Deferred size (writable only), materialized at close/commit.
        self._pending_size: int | None = None
        #: Highest byte-end this transaction itself has written (or the
        #: exact size its own truncate set).  The committed size can move
        #: *down* under us (a neighbour's committed truncate), so the
        #: pending size is re-derived as max(committed, own) — never
        #: ratcheted monotonically, which would resurrect the pre-cut
        #: extent and land appends past the new EOF.
        self._own_high = 0
        # -- model-fidelity gate -------------------------------------------
        # The fast paths (read-only memos, the f-chunk known-TID map,
        # v-segment append detection) skip B-tree probes and scans the
        # simulated cost model charges for, so they engage only when the
        # database runs in wall-clock mode (``charge_cpu=False`` →
        # ``bufmgr.cpu is None``).  Figure runs therefore execute the
        # identical operation stream they always did; see
        # docs/performance.md.
        self._fast = db.bufmgr.cpu is None
        #: Read-only size memo, dropped when the epoch moves — and only
        #: for descriptors outside a transaction, whose snapshots see
        #: committed state only (an in-transaction descriptor also sees
        #: its own writes, which the epoch cannot witness).
        self._size_cache: int | None = None
        #: Byte spans this descriptor holds EXCLUSIVE range locks on
        #: (writable only); re-locking a covered span is a no-op.
        self._locked = IntervalSet()
        self._whole_locked = False
        self._commit_epoch = db.clog.visibility_epoch
        if writable:
            self._pending_size = metadata.read_size(db, oid,
                                                    self._snapshot())
            txn.before_commit.append(self.flush)

    # -- snapshots ----------------------------------------------------------------

    def _snapshot(self) -> Snapshot:
        return self.db.snapshot(self.txn, as_of=self.as_of)

    def _anomaly(self, key, count: int) -> LargeObjectError:
        """Anomaly diagnostic for the scan layer's ``unique`` mode.

        Two visible versions of one chunk (or of the segment at one
        ``locn``) would let whichever sorts later silently win — that is
        a snapshot anomaly, not data.
        """
        return LargeObjectError(
            f"large object {self.oid}: {count} visible versions of "
            f"{self.unit} {key[0]} (snapshot anomaly)")

    # -- staleness rule / range locking ------------------------------------------

    def _refresh_committed(self, force: bool = False) -> None:
        """Drop state other transactions' commits made stale; the one
        epoch check at the top of every read, size and write path.

        Gated on ``CommitLog.visibility_epoch``: while nothing commits or
        aborts anywhere, this is one integer compare (so single-writer
        runs — including the simulated figure workloads — never pay an
        extra probe).  When the epoch has moved, the size memo and
        everything :meth:`_on_epoch_moved` names are dropped, for every
        descriptor.  A writable descriptor also re-reads the committed
        size, and its pending size becomes max(committed, own writes) —
        both directions, since a neighbour's committed *truncate*
        legitimately shrinks it.  Without this, a writer whose neighbour
        committed an extension would see a stale EOF and zero-fill a
        "gap" right over the neighbour's committed bytes.

        Once this descriptor holds the whole-object lock, no other
        transaction can commit a size change (every write path locks a
        sub-range of ``[0, inf)``), so the fold is skipped and the
        descriptor's own pending size is authoritative — refreshing
        would clobber its own in-flight truncate with the stale
        committed size.  ``force`` is the one-time fold performed while
        *acquiring* that lock.
        """
        if self._whole_locked and not force:
            return
        epoch = self.db.clog.visibility_epoch
        if epoch == self._commit_epoch and not force:
            return
        self._commit_epoch = epoch
        self._size_cache = None
        if self._pending_size is not None:
            committed = metadata.read_size(self.db, self.oid,
                                           self._snapshot())
            self._pending_size = max(committed, self._own_high)
        self._on_epoch_moved()

    def _on_epoch_moved(self) -> None:
        """Drop the subclass memos a concurrent commit may have made
        stale (a writable descriptor's pending size is already
        refreshed)."""

    @abstractmethod
    def _lock_bounds(self, start: int, end: int) -> tuple[int, int]:
        """The lock span ``[lo, hi)`` a write of ``[start, end)`` takes."""

    def _lock_span(self, start: int, end: int) -> None:
        """EXCLUSIVE range lock covering ``[start, end)``, rounded out by
        :meth:`_lock_bounds`.

        Writers declare the byte range they are about to mutate; disjoint
        declarations are granted in parallel, overlapping ones block
        until the holder's transaction ends (strict 2PL).
        """
        if self._whole_locked:
            return
        lo, hi = self._lock_bounds(start, end)
        if self._locked.covers(lo, hi):
            return
        self.db.locks.acquire(self.txn.xid, lo_range(self.oid, lo, hi),
                              LockMode.EXCLUSIVE)
        self._locked.add(lo, hi)
        self._refresh_committed()

    def _lock_whole(self) -> None:
        """The whole-object ``[0, inf)`` range (truncate): conflicts with
        every concurrent writer, and makes the flushed size *exact*."""
        if self._whole_locked:
            return
        self.db.locks.acquire(self.txn.xid, lo_whole(self.oid),
                              LockMode.EXCLUSIVE)
        self._locked.add(0, None)
        # Fold the committed size one last time, then freeze: while the
        # whole lock is held nobody else can commit a size change.
        self._refresh_committed(force=True)
        self._whole_locked = True

    # -- size row ------------------------------------------------------------------

    def _size(self) -> int:
        self._refresh_committed()
        if self._pending_size is not None:
            return self._pending_size
        if self._fast and self.txn is None:
            if self._size_cache is None:
                self._size_cache = metadata.read_size(self.db, self.oid,
                                                      self._snapshot())
            return self._size_cache
        return metadata.read_size(self.db, self.oid, self._snapshot())

    def _flush_size(self) -> None:
        """Persist the pending size row (writable descriptors only)."""
        if self._pending_size is None:
            return
        # Holding [0, inf) (truncate) is the only case where the size may
        # legitimately shrink; everyone else max-merges (see write_size).
        metadata.write_size(self.db, self.txn, self.oid,
                            self._pending_size, exact=self._whole_locked)

    @abstractmethod
    def flush(self) -> None:
        """Materialize buffered data and the pending size (runs at close
        and, through the before-commit hook, at commit)."""

    def _close(self) -> None:
        if self.writable:
            self.flush()
            # A closed descriptor has nothing left to flush; leaving the
            # hook registered would pin this object (and every other
            # descriptor opened by a long transaction) until commit.
            try:
                self.txn.before_commit.remove(self.flush)
            except ValueError:
                pass

    # -- append ----------------------------------------------------------------------------

    def append(self, data: bytes) -> int:
        """Write *data* at end-of-file, atomically under concurrency.

        ``seek(0, SEEK_END)`` + ``write`` computes the EOF before taking
        any lock, so two appenders that both read the same committed size
        would overwrite each other after serializing.  This re-resolves
        the EOF *under* the range lock (see :meth:`_reserve_eof`), so
        concurrent appends land exactly once, in lock-grant order.
        """
        self._check_open()
        if not self.writable:
            raise ReadOnlyObject(
                f"large object {self.designator!r} is open read-only")
        data = bytes(data)
        if not data:
            return 0
        self.txn.require_active()
        offset = self._reserve_eof(len(data))
        self._write_at(offset, data)
        self._pos = offset + len(data)
        return len(data)

    def _reserve_eof(self, length: int) -> int:
        """A stable EOF to append *length* bytes at.

        Lock the grain the current EOF lands in, then re-check: if
        granting the lock waited out another appender's commit, the EOF
        has moved and the loop locks the new target.  Once the EOF grain
        is held, later appenders block on it, so the size is frozen and
        the loop exits — each retry implies another transaction committed
        an extension, so progress is guaranteed.
        """
        while True:
            start = self._size()
            self._lock_span(start, start + length)
            if self._size() == start:
                return start
