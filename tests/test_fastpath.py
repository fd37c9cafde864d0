"""Wall-clock fast paths must be invisible to semantics.

A ``Database(charge_cpu=False)`` engages the model-fidelity-gated
optimizations (f-chunk known-TID map, epoch-keyed size caches, the
v-segment segment-map memo, read-only entry memos — see
docs/performance.md).  These tests drive the large-object surface in
exactly that mode and check the answers stay byte-for-byte what the
charged (figure) configuration produces: stale memos would show up here
as wrong bytes, not as slow runs.
"""

import pytest

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
        """Epoch-keyed memos must be invalidated by a commit that lands
        while a read-only descriptor stays open.

        (The reader deliberately never re-reads the bytes it read before
        the commit: the descriptor-level decompressed-chunk LRU has
        always been commit-oblivious by design — close and reopen to
        drop it.  The size memo and TID/segment maps added for fast mode
        are what must pick up the new state here.)"""
        designator = make_object(db, impl, b"A" * 20_000)
        reader = db.lo.open(designator)
        assert reader.read(100) == b"A" * 100  # memos now warm
        with db.begin() as txn:
            with db.lo.open(designator, txn, "rw") as writer:
                writer.seek(16_000)
                writer.write(b"C" * 9_000)
        assert reader.size() == 25_000
        reader.seek(16_000)
        assert reader.read(9_000) == b"C" * 9_000
        reader.close()
        with db.lo.open(designator) as fresh:
            assert fresh.read(25_000) == b"A" * 16_000 + b"C" * 9_000

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
