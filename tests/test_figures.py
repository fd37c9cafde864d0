"""Tests for the figure-harness plumbing (small scale, fast)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.bench.figures import (
    BenchConfig,
    _fresh_db,
    cool_down,
    load_object,
    run_operation,
)
from repro.bench.workload import Workload

SMALL = BenchConfig(scale=0.01)


@pytest.fixture
def workload():
    return Workload(0.01)


class TestLoadObject:
    @pytest.mark.parametrize("impl", ["ufile", "pfile", "fchunk",
                                      "vsegment"])
    def test_loads_full_object(self, workload, impl):
        db = _fresh_db(SMALL)
        try:
            designator = load_object(db, impl, workload, 0.0, "none")
            with db.lo.open(designator) as obj:
                assert obj.size() == workload.object_size
        finally:
            db.close()

    def test_contents_are_the_workload_frames(self, workload):
        from repro.bench.datasets import frame_bytes
        db = _fresh_db(SMALL)
        try:
            designator = load_object(db, "fchunk", workload, 0.3,
                                     "paper-8ipb")
            with db.lo.open(designator) as obj:
                obj.seek(7 * workload.frame_size)
                expected = frame_bytes(7, 0.3, workload.frame_size,
                                       seed=workload.seed)
                assert obj.read(workload.frame_size) == expected
        finally:
            db.close()

    def test_deterministic_across_runs(self, workload):
        sizes = []
        for _ in range(2):
            db = _fresh_db(SMALL)
            try:
                designator = load_object(db, "fchunk", workload, 0.5,
                                         "paper-20ipb")
                sizes.append(db.lo.storage_breakdown(designator)["data"])
            finally:
                db.close()
        assert sizes[0] == sizes[1]


class TestRunOperation:
    def test_read_op_reads_every_frame(self, workload):
        db = _fresh_db(SMALL)
        try:
            designator = load_object(db, "fchunk", workload, 0.0, "none")
            cool_down(db)
            op = workload.operations()[0]
            seconds = run_operation(db, designator, op, workload, 0.0, 0)
            assert seconds > 0
        finally:
            db.close()

    def test_write_op_changes_contents(self, workload):
        from repro.bench.datasets import frame_bytes
        db = _fresh_db(SMALL)
        try:
            designator = load_object(db, "fchunk", workload, 0.0, "none")
            op = workload.operations()[1]  # sequential write
            run_operation(db, designator, op, workload, 0.0, generation=3)
            with db.lo.open(designator) as obj:
                frame_no = op.frames[0]
                obj.seek(frame_no * workload.frame_size)
                assert obj.read(workload.frame_size) == frame_bytes(
                    frame_no, 0.0, workload.frame_size, generation=3,
                    seed=workload.seed)
        finally:
            db.close()

    def test_write_op_is_transactional(self, workload):
        db = _fresh_db(SMALL)
        try:
            designator = load_object(db, "fchunk", workload, 0.0, "none")
            # Writes happen inside a committed transaction.
            op = workload.operations()[3]
            run_operation(db, designator, op, workload, 0.0, 1)
            assert db.tm.active_count() == 0
        finally:
            db.close()


class TestCoolDown:
    def test_empties_the_pool(self, workload):
        db = _fresh_db(SMALL)
        try:
            designator = load_object(db, "fchunk", workload, 0.0, "none")
            cool_down(db)
            assert len(db.bufmgr._frames) == 0
            # Everything is still readable afterwards.
            with db.lo.open(designator) as obj:
                assert obj.size() == workload.object_size
        finally:
            db.close()

    def test_archives_worm_data(self, workload):
        db = _fresh_db(SMALL)
        try:
            load_object(db, "fchunk", workload, 0.0, "none", smgr="worm")
            cool_down(db)
            worm = db.storage_manager("worm")
            assert worm.base.media_blocks_used() > 0
            assert worm.stats()["staged_blocks"] == 0
        finally:
            db.close()


class TestConfigScaling:
    def test_pool_scales_with_floor(self):
        assert BenchConfig(scale=1.0).scaled_pool() == 256
        assert BenchConfig(scale=0.5).scaled_pool() == 128
        assert BenchConfig(scale=0.01).scaled_pool() == 64  # the floor

    def test_worm_cache_scales(self):
        assert BenchConfig(scale=1.0).scaled_worm_cache() == 3200
        assert BenchConfig(scale=0.1).scaled_worm_cache() == 320


#: ``repro-bench fig1 fig2 fig3 --scale 0.02`` as committed.  The
#: simulated figures are deterministic, so any change that moves a
#: charge (a cost model, the smgr or storage path, the operation order)
#: shows up here as a byte diff.
GOLDEN_FIGURES = Path(__file__).parent / "golden" / "figures_scale0.02.txt"


def test_simulated_figures_match_golden():
    """Regenerate the small-scale figures in a fresh interpreter (no
    state from other tests) and compare them byte for byte.

    After a deliberate, explained cost-model change, regenerate with
    ``repro-bench fig1 fig2 fig3 --scale 0.02 >
    tests/golden/figures_scale0.02.txt``.
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "repro.bench.cli", "fig1", "fig2", "fig3",
         "--scale", "0.02"],
        capture_output=True, env=env, timeout=300, check=True)
    assert result.stdout == GOLDEN_FIGURES.read_bytes()
