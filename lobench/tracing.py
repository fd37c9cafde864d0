"""Span tracing for the traced pass, and the per-layer ledger built on it.

The traced server child (``traced_server.py``) calls :func:`install`,
which wraps the public entry points of each engine layer so that every
call records a span: name, start, end, parent span and the id of the
server request it belongs to.  Spans stay in memory, one buffer per
thread, until the driver asks for them (SIGUSR1); the driver then
computes each span's self time (its duration minus its children's) and
turns self times plus ``stats`` diffs into per-layer metrics.

Nothing under ``src/repro`` changes: the wrappers are installed on the
classes and modules at start-up, before ``repro.server.cli.main`` runs.
"""

from __future__ import annotations

import functools
import itertools
import marshal
import os
import threading
import time
from collections import defaultdict

#: Span record layout (one tuple per span).
SID, NAME, PARENT, REQ, A, B, T0, T1 = range(8)

REQUEST = "server.request"

#: Unit of every metric :func:`ledger` returns.
LAYER_UNITS = {
    "server.requests_per_op": "count",
    "server.self_us_per_req": "us",
    "server.wire_us_per_req": "us",
    "ql.execute_us": "us",
    "ql.tuples_scanned_per_row": "count",
    "lo.read_us_per_op": "us",
    "lo.write_us_per_op": "us",
    "lo.flush_us_per_commit": "us",
    "lo.size_ops_per_txn": "count",
    "lo.cache_hit_rate": "ratio",
    "compress.us_per_kb": "us/KiB",
    "decompress.us_per_kb": "us/KiB",
    "compress.ratio": "ratio",
    "access.probes_per_op": "count",
    "access.btree_us_per_op": "us",
    "access.heap_fetch_us_per_op": "us",
    "access.heap_write_us_per_op": "us",
    "access.visible_per_scanned": "ratio",
    "storage.pins_per_op": "count",
    "storage.pin_us_per_op": "us",
    "storage.hit_rate": "ratio",
    "storage.evictions_per_op": "count",
    "storage.flush_us_per_commit": "us",
    "smgr.reads_per_op": "count",
    "smgr.read_us_per_op": "us",
    "smgr.write_bytes_per_user_byte": "ratio",
    "smgr.syncs_per_commit": "count",
    "smgr.sync_us_per_commit": "us",
    "txn.commit_us": "us",
    "txn.xlog_us_per_commit": "us",
    "txn.mutex_acquires_per_op": "count",
    "txn.lock_waits_per_txn": "count",
    "txn.lock_wait_us_per_txn": "us",
    "txn.deadlocks_per_ktxn": "count",
}


class _Buffer:
    __slots__ = ("stack", "req", "req_t0", "spans", "events")

    def __init__(self):
        self.stack: list[int] = []
        self.req = 0
        self.req_t0 = 0.0
        self.spans: list[tuple] = []
        self.events: list[float] = []


class Tracer:
    """Per-thread span buffers plus a process-wide span id sequence."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self.names: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        with self._lock:
            return self.names.setdefault(name, len(self.names))

    def buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, name: str, fn, measure=None):
        """*fn* recording one span per call; *measure(args, result)*
        gives the span's two size fields."""
        nid = self.name_id(name)
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self.buffer()
            stack = buf.stack
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            sizes = (0, 0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    sizes = measure(args, result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                buf.spans.append((sid, nid, parent, buf.req, *sizes, t0, t1))
        return traced

    def wrap_event(self, fn):
        """*fn* recording only the time of each call (no span)."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.buffer().events.append(clock())
            return fn(*args, **kwargs)
        return counted

    def request_boundaries(self, recv, send):
        """Wrap the protocol's frame I/O so a request span runs from
        ``recv_message`` returning to ``send_message`` returning."""
        nid = self.name_id(REQUEST)
        ids = self._ids
        clock = time.perf_counter

        def close(buf: _Buffer) -> None:
            if buf.req:
                buf.stack.pop()
                buf.spans.append((buf.req, nid, 0, buf.req, 0, 0,
                                  buf.req_t0, clock()))
                buf.req = 0

        @functools.wraps(recv)
        def traced_recv(*args, **kwargs):
            message = recv(*args, **kwargs)
            buf = self.buffer()
            close(buf)  # a request that never replied
            buf.req = next(ids)
            buf.req_t0 = clock()
            buf.stack.append(buf.req)
            return message

        @functools.wraps(send)
        def traced_send(*args, **kwargs):
            try:
                return send(*args, **kwargs)
            finally:
                close(self.buffer())

        return traced_recv, traced_send

    def dump(self, path: str) -> None:
        """Write every span and event recorded so far to *path*."""
        with self._lock:
            buffers = list(self._buffers)
        spans: list[tuple] = []
        events: list[float] = []
        for buf in buffers:
            spans.extend(list(buf.spans))
            events.extend(list(buf.events))
        names = {v: k for k, v in self.names.items()}
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as out:
            marshal.dump((names, spans, events), out)
        os.replace(tmp, path)


def _compressed_sizes(args, result):
    return len(args[1]), len(result)


def _decompressed_sizes(args, result):
    return len(result), len(args[1])


def _tid_count(args, result):
    return len(args[1]), 0


def _one(args, result):
    return 1, 0


def _block_read(args, result):
    return len(result), 0


def _block_write(args, result):
    return len(args[3]), 0


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points in *tracer* spans."""
    from repro.access import btree, heap, scan
    from repro.compress import base as compress_base
    from repro.lo import fchunk, interface, metadata, vsegment
    from repro.ql import executor
    from repro.server import protocol
    from repro.smgr import base as smgr_base
    from repro.storage import buffer
    from repro.txn import lockdep, locks, manager, xlog

    def patch(owner, attr, name, measure=None, source=None):
        fn = getattr(source if source is not None else owner, attr)
        setattr(owner, attr, tracer.wrap(name, fn, measure))

    protocol.recv_message, protocol.send_message = \
        tracer.request_boundaries(protocol.recv_message,
                                  protocol.send_message)
    patch(executor.Executor, "execute", "ql.execute")
    for cls in (fchunk.FChunkObject, vsegment.VSegmentObject):
        patch(cls, "read", "lo.read", source=interface.LargeObject)
        patch(cls, "write", "lo.write", source=interface.LargeObject)
        patch(cls, "flush", "lo.flush")
    patch(metadata, "read_size", "lo.size")
    patch(metadata, "write_size", "lo.size")
    # The "none" codec is the identity: it does no compression work.
    codecs = {type(compress_base.get_compressor(name))
              for name in compress_base.available_compressors()
              if name != "none"}
    for cls in codecs:
        if "compress" in cls.__dict__:
            patch(cls, "compress", "compress.compress", _compressed_sizes)
        if "decompress" in cls.__dict__:
            patch(cls, "decompress", "compress.decompress",
                  _decompressed_sizes)
    for attr in ("tuples", "first"):
        patch(scan.IndexProbe, attr, "access.probe")
    for attr in ("entries", "visible", "tuples"):
        patch(scan.IndexRangeScan, attr, "access.range_scan")
    for attr in ("search", "range_scan", "insert"):
        patch(btree.BTree, attr, "access.btree")
    patch(heap.HeapRelation, "fetch", "access.heap_fetch", _one)
    patch(heap.HeapRelation, "fetch_many", "access.heap_fetch", _tid_count)
    for attr in ("insert", "replace", "delete"):
        patch(heap.HeapRelation, attr, "access.heap_write")
    for attr in ("pin", "prefetch", "flush_file"):
        patch(buffer.BufferManager, attr, f"storage.{attr}")
    patch(smgr_base.StorageNode, "read", "smgr.read", _block_read)
    patch(smgr_base.StorageNode, "write", "smgr.write", _block_write)
    patch(smgr_base.DiskBlockStore, "sync", "smgr.sync")
    patch(manager.TransactionManager, "begin", "txn.begin")
    patch(manager.TransactionManager, "commit", "txn.commit")
    patch(locks.LockManager, "acquire", "txn.lock_acquire")
    patch(xlog.CommitLog, "set_committed", "txn.xlog")
    lockdep.LockdepMutex.acquire = tracer.wrap_event(
        lockdep.LockdepMutex.acquire)


# -- driver side: loading spans and computing self time -------------------------


def load(path: str) -> tuple[dict[int, str], list[tuple], list[float]]:
    """Read a span file written by :meth:`Tracer.dump` (this benchmark's
    own output only)."""
    with open(path, "rb") as src:
        names, spans, events = marshal.load(src)
    return names, spans, events


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children run on their parent's thread inside its interval, so they
    never overlap each other and their durations simply subtract.
    """
    child = defaultdict(float)
    for span in spans:
        if span[PARENT]:
            child[span[PARENT]] += span[T1] - span[T0]
    return {span[SID]: span[T1] - span[T0] - child[span[SID]]
            for span in spans}


def within(spans: list[tuple], start: float, end: float) -> list[tuple]:
    return [s for s in spans if s[T0] >= start and s[T1] <= end]


def ledger(names: dict[int, str], spans: list[tuple], events: list[float],
           window: tuple[float, float], before: dict, after: dict,
           work: dict) -> dict[str, float]:
    """Per-layer metrics for one traced phase.

    *work* holds the driver's counts for the phase: ``ops`` (frame and
    clip reads and writes plus lookups), ``reads``, ``writes``,
    ``lookups``, ``txns`` (committed), ``user_bytes`` (written by
    users), ``client_s`` (summed client call time), ``calls``.
    """
    spans = within(spans, *window)
    selfs = self_times(spans)
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[names[span[NAME]]].append(span)

    def self_us(name: str) -> float:
        return sum(selfs[s[SID]] for s in by_name[name]) * 1e6

    def count(name: str) -> int:
        return len(by_name[name])

    def per(x: float, n: float) -> float:
        return x / n if n else 0.0

    def diff(*path: str) -> float:
        a, b = before, after
        for key in path:
            a, b = a[key], b[key]
        return b - a

    ops, txns = work["ops"], work["txns"]
    requests = by_name[REQUEST]
    request_s = sum(s[T1] - s[T0] for s in requests)
    kinds = {s[SID]: names[s[NAME]] for s in spans}
    parents = {s[SID]: s[PARENT] for s in spans}

    def under_ql(sid: int) -> bool:
        while sid:
            if kinds.get(sid) == "ql.execute":
                return True
            sid = parents.get(sid, 0)
        return False

    ql_scanned = sum(s[A] for s in by_name["access.heap_fetch"]
                     if under_ql(s[PARENT]))
    packed = [s for s in by_name["compress.compress"]
              if kinds.get(s[PARENT]) != "compress.compress"]
    unpacked = [s for s in by_name["compress.decompress"]
                if kinds.get(s[PARENT]) != "compress.decompress"]
    lo_stats = [diff("largeobjects", k) for k in (
        "read_cache_hits", "read_cache_misses",
        "segment_cache_hits", "segment_cache_misses")]
    hits, misses = diff("buffer", "hits"), diff("buffer", "misses")
    scanned = diff("access", "tuples_scanned")
    smgr_bytes = sum(s[A] for s in by_name["smgr.write"])
    return {
        "server.requests_per_op": per(len(requests), ops),
        "server.self_us_per_req": per(self_us(REQUEST), len(requests)),
        "server.wire_us_per_req": per(
            (work["client_s"] - request_s) * 1e6, len(requests)),
        "ql.execute_us": per(self_us("ql.execute"), count("ql.execute")),
        "ql.tuples_scanned_per_row": per(ql_scanned, work["lookups"]),
        "lo.read_us_per_op": per(self_us("lo.read"), work["reads"]),
        "lo.write_us_per_op": per(self_us("lo.write"), work["writes"]),
        "lo.flush_us_per_commit": per(self_us("lo.flush"), txns),
        "lo.size_ops_per_txn": per(count("lo.size"), txns),
        "lo.cache_hit_rate": per(lo_stats[0] + lo_stats[2], sum(lo_stats)),
        "compress.us_per_kb": per(
            self_us("compress.compress"), sum(s[A] for s in packed) / 1024),
        "decompress.us_per_kb": per(
            self_us("compress.decompress"),
            sum(s[A] for s in unpacked) / 1024),
        "compress.ratio": per(sum(s[B] for s in packed),
                              sum(s[A] for s in packed)),
        "access.probes_per_op": per(diff("access", "probes"), ops),
        "access.btree_us_per_op": per(self_us("access.btree"), ops),
        "access.heap_fetch_us_per_op": per(self_us("access.heap_fetch"), ops),
        "access.heap_write_us_per_op": per(self_us("access.heap_write"), ops),
        "access.visible_per_scanned": per(diff("access", "tuples_visible"),
                                          scanned),
        "storage.pins_per_op": per(count("storage.pin"), ops),
        "storage.pin_us_per_op": per(self_us("storage.pin"), ops),
        "storage.hit_rate": per(hits, hits + misses),
        "storage.evictions_per_op": per(diff("buffer", "evictions"), ops),
        "storage.flush_us_per_commit": per(self_us("storage.flush_file"),
                                           txns),
        "smgr.reads_per_op": per(count("smgr.read"), ops),
        "smgr.read_us_per_op": per(self_us("smgr.read"), ops),
        "smgr.write_bytes_per_user_byte": per(smgr_bytes,
                                              work["user_bytes"]),
        "smgr.syncs_per_commit": per(count("smgr.sync"), txns),
        "smgr.sync_us_per_commit": per(self_us("smgr.sync"), txns),
        "txn.commit_us": per(self_us("txn.commit"), count("txn.commit")),
        "txn.xlog_us_per_commit": per(self_us("txn.xlog"), txns),
        "txn.mutex_acquires_per_op": per(
            sum(1 for t in events if window[0] <= t <= window[1]), ops),
        "txn.lock_waits_per_txn": per(diff("locks", "waits"), txns),
        "txn.lock_wait_us_per_txn": per(
            diff("locks", "wait_time") * 1e6, txns),
        "txn.deadlocks_per_ktxn": per(
            diff("locks", "deadlocks_detected") * 1000, txns),
    }
