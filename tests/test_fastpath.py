"""Wall-clock fast paths must be invisible to semantics.

A ``Database(charge_cpu=False)`` engages the model-fidelity-gated
optimizations (f-chunk known-TID map, the read-only size memo, the
v-segment segment-map memo, read-only entry memos — see
docs/performance.md).  These tests drive the large-object surface in
exactly that mode, and again with the simulated clock charging, and
check the answers stay byte-for-byte right: stale memos would show up
here as wrong bytes, not as slow runs.

Every descriptor's cached state — those memos and the decompressed
chunk and segment caches both clocks use — goes stale by one rule,
``ChunkedObject._refresh_committed``: when ``clog.visibility_epoch``
moves, all of it is dropped.  The open-descriptor cases below check
that rule from the reader's side, and the last test keeps every other
module under ``repro/lo`` from growing an epoch check of its own.
"""

import ast
from pathlib import Path

import pytest

import repro.lo
from repro.db import Database


IMPLS = ["fchunk", "vsegment"]


def make_object(db, impl, payload=b""):
    with db.begin() as txn:
        designator = db.lo.create(txn, impl, compression="none")
        if payload:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(payload)
    return designator


@pytest.mark.parametrize("impl", IMPLS)
class TestFastModeSemantics:
    #: Clock of the fixture database; TestChargedModeSemantics reruns
    #: every case with the simulated clock charging.
    charge_cpu = False

    @pytest.fixture
    def db(self):
        database = Database(pool_size=64, charge_cpu=self.charge_cpu)
        yield database
        database.close()

    def test_fast_gate_is_on(self, db, impl):
        assert (db.bufmgr.cpu is None) is not self.charge_cpu
        designator = make_object(db, impl, b"x" * 100)
        with db.lo.open(designator) as obj:
            assert obj._fast is not self.charge_cpu

    def test_sequential_write_read(self, db, impl):
        frames = [bytes([i % 251]) * 4096 for i in range(40)]
        designator = make_object(db, impl, b"".join(frames))
        with db.lo.open(designator) as obj:
            for frame in frames:
                assert obj.read(4096) == frame
            assert obj.read(4096) == b""

    def test_open_descriptor_sees_commits(self, db, impl):
        """A commit that lands while a read-only descriptor stays open
        must reach every later read: the size, the chunk and segment
        maps, and the bytes the reader had already read (and cached)
        before the commit."""
        designator = make_object(db, impl, b"A" * 20_000)
        reader = db.lo.open(designator)
        assert reader.read(100) == b"A" * 100  # memos and caches warm
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as writer:
                writer.write(b"B" * 16_000)
                writer.write(b"C" * 9_000)
        assert reader.size() == 25_000
        reader.seek(0)
        assert reader.read(16_000) == b"B" * 16_000
        assert reader.read(9_000) == b"C" * 9_000
        reader.close()
        with db.lo.open(designator) as fresh:
            assert fresh.read(25_000) == b"B" * 16_000 + b"C" * 9_000

    def test_open_descriptors_see_committed_append(self, db, impl):
        """A neighbour's committed append lands in the chunk every open
        descriptor cached on its first read (for v-segment: the byte
        store chunk holding the first segment).  Read-only descriptors
        outside and inside a transaction and a writable descriptor must
        all return the appended bytes, not the cached short chunk."""
        designator = make_object(db, impl, b"O" * 1_000)
        ro_txn = db.begin()
        rw_txn = db.begin()
        readers = [db.lo.open(designator),
                   db.lo.open(designator, ro_txn),
                   db.lo.open(designator, rw_txn, "rw")]
        for obj in readers:
            assert obj.read(1_000) == b"O" * 1_000
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as appender:
                appender.seek(1_000)
                appender.write(b"P" * 1_000)
        for obj in readers:
            assert obj.size() == 2_000
            assert obj.read(1_000) == b"P" * 1_000
            obj.close()
        ro_txn.commit()
        rw_txn.commit()

    def test_truncate_then_reextend(self, db, impl):
        designator = make_object(db, impl, b"D" * 30_000)
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.truncate(7_000)
                obj.seek(7_000)
                obj.write(b"E" * 9_000)
        with db.lo.open(designator) as obj:
            assert obj.read(7_000) == b"D" * 7_000
            assert obj.read(9_000) == b"E" * 9_000
            assert obj.read(1) == b""

    def test_sparse_extension_zero_fills(self, db, impl):
        designator = make_object(db, impl)
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.seek(50_000)
                obj.write(b"tail")
        with db.lo.open(designator) as obj:
            obj.seek(40_000)
            assert obj.read(10_000) == bytes(10_000)
            assert obj.read(4) == b"tail"

    def test_overwrite_mid_object(self, db, impl):
        designator = make_object(db, impl, b"F" * 40_000)
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.seek(9_999)
                obj.write(b"G" * 12_345)
        with db.lo.open(designator) as obj:
            expected = (b"F" * 9_999) + (b"G" * 12_345) + (
                b"F" * (40_000 - 9_999 - 12_345))
            assert obj.read(40_000) == expected

    def test_read_after_vacuum(self, db, impl):
        """Vacuum prunes dead versions and their index entries; memoized
        TIDs from before the sweep must not be chased afterwards."""
        designator = make_object(db, impl, b"H" * 25_000)
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"I" * 25_000)
        reader = db.lo.open(designator)
        assert reader.read(10) == b"I" * 10  # memos warm, pre-vacuum
        db.vacuum()
        reader.seek(0)
        assert reader.read(25_000) == b"I" * 25_000
        reader.close()

    def test_cached_bytes_do_not_outlive_slot_reuse(self, db, impl):
        """Vacuum frees the slot of a superseded version and a later
        write reuses it.  An open reader that cached bytes under that
        slot's TID (the v-segment segment cache) must return the new
        bytes, not the ones it cached before the sweep."""
        designator = make_object(db, impl, b"Q" * 1_000)
        reader = db.lo.open(designator)
        assert reader.read(1_000) == b"Q" * 1_000
        for fill in (b"R", b"S"):
            with db.begin() as txn:
                with db.lo.open(designator, txn, "rw") as obj:
                    obj.write(fill * 1_000)
            db.vacuum()
        reader.seek(0)
        assert reader.read(1_000) == b"S" * 1_000
        reader.close()

    def test_writer_revisits_own_chunk_after_unrelated_commit(self, db,
                                                              impl):
        """An unrelated commit moves the epoch while a writer holds a
        chunk it inserted past the committed size.  Going back to that
        chunk must update it, not find it absent and insert a second
        version."""
        designator = make_object(db, impl)
        other = make_object(db, impl)
        txn = db.begin()
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(b"X" * 8_000)
            obj.write(b"Y" * 8_000)  # leaves the first chunk: flushed
            with db.begin() as neighbour:
                with db.lo.open(other, neighbour, "rw") as unrelated:
                    unrelated.write(b"z")
            obj.seek(100)
            obj.write(b"W" * 10)
        txn.commit()
        with db.lo.open(designator) as reader:
            assert reader.read(16_000) == (b"X" * 100 + b"W" * 10
                                           + b"X" * 7_890 + b"Y" * 8_000)

    def test_writer_reads_own_buffered_writes(self, db, impl):
        designator = make_object(db, impl, b"J" * 10_000)
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as obj:
                obj.seek(5_000)
                obj.write(b"K" * 2_000)
                obj.seek(4_000)
                assert obj.read(4_000) == (b"J" * 1_000 + b"K" * 2_000
                                           + b"J" * 1_000)

    def test_abort_discards_and_invalidates(self, db, impl):
        designator = make_object(db, impl, b"L" * 15_000)
        reader = db.lo.open(designator)
        assert reader.read(10) == b"L" * 10
        txn = db.begin()
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(b"M" * 15_000)
        txn.abort()
        reader.seek(0)
        assert reader.read(15_000) == b"L" * 15_000
        reader.close()


class TestChargedModeSemantics(TestFastModeSemantics):
    """The same cases under the simulated clock, where every fast path
    is gated off: the memo and no-memo branches of the chunked-object
    core must give the same answers."""

    charge_cpu = True


class TestChargedModeUnaffected:
    @pytest.mark.parametrize("impl", IMPLS)
    def test_fast_gate_off_when_charging(self, impl):
        db = Database(pool_size=64, charge_cpu=True)
        try:
            designator = make_object(db, impl, b"N" * 5_000)
            with db.lo.open(designator) as obj:
                assert obj._fast is False
                assert obj.read(5_000) == b"N" * 5_000
        finally:
            db.close()


def test_only_the_chunked_core_reads_the_epoch():
    """Staleness is decided in one place: under ``repro/lo`` only the
    chunked-object core and the size-row merge read
    ``visibility_epoch``; every other module's memos are dropped through
    ``ChunkedObject._on_epoch_moved``."""
    readers = set()
    for path in Path(repro.lo.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(isinstance(node, ast.Attribute)
               and node.attr == "visibility_epoch"
               for node in ast.walk(tree)):
            readers.add(path.name)
    assert readers == {"chunked.py", "metadata.py"}
