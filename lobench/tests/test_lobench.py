"""Self-tests of the benchmark's own machinery.

    python -m pytest lobench/tests -q

They run the workloads against an in-process server on tiny data sets;
the benchmark itself always drives a ``repro-server`` child process.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from repro.db import Database  # noqa: E402
from repro.server import ReproServer, ServerClient  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, FramesCold, LibraryHot, Phase, VerificationError, WritersTwo)


# -- percentile rule ------------------------------------------------------------


def test_percentile_refuses_tail_without_ten_samples_beyond():
    with pytest.raises(harness.InsufficientSamples):
        harness.percentile([float(i) for i in range(999)], 99.0)
    assert harness.percentile([float(i) for i in range(1000)], 99.0) == 989.0
    assert harness.percentile([float(i) for i in range(21)], 50.0) == 10.0
    with pytest.raises(harness.InsufficientSamples):
        harness.percentile([1.0] * 19, 50.0)


# -- spans and self time -------------------------------------------------------


def span(sid, parent, t0, t1, name=0):
    return (sid, name, parent, 1, 0, 0, t0, t1)


def test_self_time_nested_and_siblings():
    spans = [
        span(1, 0, 0.0, 10.0),   # root
        span(2, 1, 1.0, 4.0),    # first child
        span(3, 1, 5.0, 7.0),    # sibling
        span(4, 2, 2.0, 3.0),    # grandchild
        span(5, 0, 20.0, 21.0),  # a second root
    ]
    assert tracing.self_times(spans) == pytest.approx(
        {1: 5.0, 2: 2.0, 3: 2.0, 4: 1.0, 5: 1.0})


def test_tracer_records_parents_per_thread():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    spans = tracer.buffer().spans
    ids = tracer.names
    outer_span = next(s for s in spans if s[tracing.NAME] == ids["outer"])
    inners = [s for s in spans if s[tracing.NAME] == ids["inner"]]
    assert len(inners) == 2
    assert all(s[tracing.PARENT] == outer_span[tracing.SID] for s in inners)
    assert outer_span[tracing.PARENT] == 0


# -- workloads against an in-process server ---------------------------------------


@pytest.fixture
def served(tmp_path):
    db = Database(path=str(tmp_path / "db"), charge_cpu=False)
    server = ReproServer(db)
    server.start()
    yield db, server, tmp_path / "db"
    server.stop()
    db.close()


def small(name: str):
    return {
        "frames-cold": lambda: FramesCold(7, frames=64, ops_per_commit=4),
        "library-hot": lambda: LibraryHot(7, clips=4),
        "writers-2": lambda: WritersTwo(7, frames=96),
    }[name]()


class FaultyClient(ServerClient):
    """Every third commit is preceded by a request the server refuses."""

    commits = 0

    def commit(self) -> None:
        FaultyClient.commits += 1
        if FaultyClient.commits % 3 == 0:
            self.lo_open("lo:999999999")  # LargeObjectNotFound
        super().commit()


def drive(wl, server, client_cls=ServerClient, seconds=0.4):
    clients = [client_cls(*server.address) for _ in range(wl.clients)]
    wl.setup(clients[0])
    phase = Phase(0.0, seconds)
    recs = [phase.recorder() for _ in clients]
    try:
        for i, client in enumerate(clients):
            wl.run_client(i, client, recs[i])
    finally:
        for client in clients:
            client.close()
    return recs


def reopen_and_check(wl, db, server, path):
    server.stop()
    db.close()
    again = Database(path=str(path), charge_cpu=False)
    try:
        wl.restart_check(again)
        assert again.check_integrity() == []
    finally:
        again.close()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_verifies_reads_and_restart(served, name):
    db, server, path = served
    wl = small(name)
    recs = drive(wl, server)
    assert sum(r.checked for r in recs) > 0
    assert sum(sum(r.failed.values()) for r in recs) == 0
    for kind in wl.timed_kinds:
        assert any(k == kind for r in recs for (_t, k, _e, _n) in r.timed), kind
    reopen_and_check(wl, db, server, path)


def test_injected_server_error_raises_fail_frac(served):
    db, server, path = served
    wl = small("frames-cold")
    FaultyClient.commits = 0
    recs = drive(wl, server, FaultyClient)
    rec = recs[0]
    assert rec.errors["LargeObjectNotFound"] > 0
    assert rec.failed["commit"] == rec.errors["LargeObjectNotFound"]
    assert sum(rec.failed.values()) / sum(rec.attempted.values()) > 0
    # The abandoned transactions left the model, and the database, intact.
    reopen_and_check(wl, db, server, path)


def test_corrupted_expectation_fails_verification(served):
    db, server, path = served
    wl = small("frames-cold")
    client = ServerClient(*server.address)
    wl.setup(client)
    wl.committed = [g + 1 for g in wl.committed]
    rec = Phase(0.0, 5.0).recorder()
    with pytest.raises(VerificationError):
        wl.run_client(0, client, rec)
    client.close()
    with pytest.raises(VerificationError):
        reopen_and_check(wl, db, server, path)


# -- BENCHMARK.json agrees with the driver ---------------------------------------


def test_benchmark_json_matches_driver():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = dict(tracing.LAYER_UNITS, fail_frac="ratio")
    for kind in FramesCold.timed_kinds:
        expected[f"trace.{kind}_p50_overhead_us"] = "us"
    assert layer == expected
