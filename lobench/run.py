"""Closed-loop large-object traffic through ``repro-server``, end to end.

    python3 lobench/run.py --workload frames-cold --seed 1 --seconds 25
    python3 lobench/run.py --workload writers-2 --trace 1   # per-layer
    python3 lobench/run.py                                   # every workload

Each run starts ``repro-server --path <fresh dir>`` as a child process
(durable on disk, force-at-commit, 256-page pool), loads the workload's
data set, drives it through public ``ServerClient`` calls only, checks
every read against the driver's model, then SIGKILLs the server and
checks that the reopened database holds exactly the acknowledged
commits.  The last line of output is one JSON object; ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ledger of a
traced server plus the tracing overhead.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import shutil
import statistics
import sys
import threading
import time
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

#: Setups per untraced run; ``setup_s`` is their median.
SETUPS = 5
WARMUP_S = 1.0
#: GIL hand-off interval while clients run: two client threads waiting
#: on their sockets must not add the default 5 ms to each other's replies.
SWITCH_S = 1e-4
#: Steal share above which a one-second block is left out of the metrics.
MAX_STEAL = 0.05
#: Tail percentiles, printed as diagnostics: on a shared two-core host
#: their run-to-run spread is wider than any usable regression bound, so
#: only the medians are gated metrics.
TAILS = (95.0, 99.0)

END_TO_END_UNITS = {
    **{f"{kind}_p50_us": "us"
       for kind in ("read", "write", "lookup", "commit")},
    "mb_per_s": "MB/s",
    "txn_per_s": "1/s",
    "space_amp": "ratio",
    "setup_s": "s",
    "server_rss_mb": "MiB",
}


class Run:
    """One server child with its data set loaded, ready for traffic."""

    def __init__(self, name: str, seed: int, db_dir: Path, cpus: set[int],
                 spans: Path | None = None):
        from repro.server.client import ServerClient
        from workloads import WORKLOADS
        start = time.perf_counter()
        self.db_dir = db_dir
        self.child = harness.ServerChild(db_dir, db_dir.parent / "server.log",
                                         spans, cpus)
        self.clients = []
        try:
            self.workload = WORKLOADS[name](seed)
            self.clients = [ServerClient(*self.child.address)
                            for _ in range(self.workload.clients)]
            self.workload.setup(self.clients[0])
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def drive(self, seconds: float) -> dict:
        """One closed-loop phase; returns its recorders and stats diff."""
        from workloads import Phase
        wl = self.workload
        before = self.clients[0].stats()
        written0 = wl.user_bytes_written
        gc.collect()
        gc.freeze()
        gc.disable()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_S)
        cpu0 = harness.cpu_times()
        phase = Phase(WARMUP_S, seconds, sampler=harness.cpu_times)
        recs = [phase.recorder() for _ in self.clients]
        failures: list[BaseException] = []

        def client_loop(i: int) -> None:
            try:
                wl.run_client(i, self.clients[i], recs[i])
            except BaseException as exc:  # re-raised on the main thread
                failures.append(exc)
                phase.failure = exc

        threads = [threading.Thread(target=client_loop, args=(i,))
                   for i in range(1, len(self.clients))]
        try:
            for thread in threads:
                thread.start()
            client_loop(0)
            for thread in threads:
                thread.join()
            phase.stop()
        finally:
            sys.setswitchinterval(switch)
            gc.enable()
            gc.unfreeze()
        if failures:
            raise failures[0]
        after = self.clients[0].stats()
        return {
            "phase": phase, "recs": recs, "before": before, "after": after,
            "host": harness.host_diagnostics(cpu0, harness.cpu_times()),
            "user_bytes": wl.user_bytes_written - written0,
        }

    def close_clients(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []

    def stop(self) -> None:
        self.close_clients()
        self.child.kill()

    def restart_check(self) -> str:
        """SIGKILL the server, reopen the directory, verify every commit."""
        from repro.db import Database
        from workloads import VerificationError
        self.stop()
        db = Database(path=str(self.db_dir), charge_cpu=False)
        try:
            detail = self.workload.restart_check(db)
            problems = db.check_integrity()
        finally:
            db.close()
        if problems:
            raise VerificationError(
                f"after restart, check_integrity() found {problems[:3]}")
        return f"{detail}; check_integrity() == []"


def merged(recs, attr: str) -> Counter:
    total = Counter()
    for rec in recs:
        total.update(getattr(rec, attr))
    return total


def latencies(recs, kind: str, keep=None) -> list[float]:
    return [el for rec in recs for (t, k, el, _n) in rec.timed
            if k == kind and (keep is None or keep(t))]


def steal_blocks(phase) -> list[tuple[float, float, float]]:
    """``(start, end, steal share)`` of each block of the timed part."""
    out = []
    for (t0, c0), (t1, c1) in zip(phase.marks, phase.marks[1:]):
        delta = [b - a for a, b in zip(c0, c1)]
        out.append((t0, t1, delta[7] / max(1, sum(delta))))
    return out


def calm_blocks(phase):
    """Predicate: does a time fall in a block the hypervisor left alone?
    Plus the seconds those blocks cover.

    Blocks with more than ``MAX_STEAL`` of the host's CPU time stolen
    are dropped, but never more than half of them: the calmest half is
    kept whatever the steal.
    """
    blocks = steal_blocks(phase)
    ranked = sorted(range(len(blocks)), key=lambda i: (blocks[i][2], i))
    floor = max(1, (len(blocks) + 1) // 2)
    chosen = [i for n, i in enumerate(ranked)
              if n < floor or blocks[i][2] <= MAX_STEAL]
    kept = sorted(blocks[i] for i in chosen)
    starts = [b[0] for b in kept]

    def keep(t: float) -> bool:
        i = bisect.bisect_right(starts, t) - 1
        return i >= 0 and t < kept[i][1]
    return keep, sum(b[1] - b[0] for b in kept)


def end_to_end(run: Run, result: dict, setups: list[float]) -> dict:
    phase, recs = result["phase"], result["recs"]
    keep, calm_s = calm_blocks(phase)
    metrics, basis = {}, {}
    for kind in run.workload.timed_kinds:
        values = latencies(recs, kind, keep)
        metrics[f"{kind}_p50_us"] = harness.percentile(values, 50.0) * 1e6
        basis[f"{kind}_p50_us"] = f"{len(values)} samples"
        tails = []
        for q in TAILS:
            try:
                tails.append(
                    f"p{q:g} {harness.percentile(values, q) * 1e6:.1f} us")
            except harness.InsufficientSamples:
                tails.append(f"p{q:g} refused")
        print(f"  {kind} tail (diagnostic, {len(values)} samples): "
              f"{', '.join(tails)}")
    calm = [x for rec in recs for x in rec.timed if keep(x[0])]
    metrics["mb_per_s"] = sum(x[3] for x in calm) / calm_s / 1e6
    metrics["txn_per_s"] = sum(1 for x in calm if x[1] == "commit") / calm_s
    basis["mb_per_s"] = basis["txn_per_s"] = (
        f"{calm_s:.1f} of {phase.timed_seconds:.1f} s")
    metrics["space_amp"] = (harness.dir_bytes(run.db_dir)
                            / run.workload.user_bytes_written)
    basis["space_amp"] = f"{run.workload.user_bytes_written} user bytes"
    metrics["setup_s"] = statistics.median(setups)
    basis["setup_s"] = f"median of {len(setups)} setups"
    metrics["server_rss_mb"] = run.child.peak_rss_mb()
    basis["server_rss_mb"] = "VmHWM"
    return {name: (metrics[name], unit, basis[name])
            for name, unit in END_TO_END_UNITS.items()}


def traced_ledger(run: Run, result: dict, untraced: dict) -> dict:
    import tracing
    recs, phase = result["recs"], result["phase"]
    attempted, failed = merged(recs, "attempted"), merged(recs, "failed")
    run.close_clients()
    run.child.dump_spans()
    names, spans, events = tracing.load(str(run.child.spans))
    work = {
        "reads": attempted["read"], "writes": attempted["write"],
        "lookups": attempted["lookup"],
        "ops": attempted["read"] + attempted["write"] + attempted["lookup"],
        "txns": attempted["commit"] - failed["commit"],
        "user_bytes": result["user_bytes"],
        "client_s": sum(r.busy for r in recs),
    }
    ledger = tracing.ledger(names, spans, events,
                            (phase.start, phase.stopped_at),
                            result["before"], result["after"], work)
    out = {name: (value, tracing.LAYER_UNITS[name], "")
           for name, value in ledger.items()}
    for kind in run.workload.timed_kinds:
        traced = harness.percentile(latencies(recs, kind), 50.0)
        plain = harness.percentile(latencies(untraced["recs"], kind), 50.0)
        out[f"trace.{kind}_p50_overhead_us"] = (
            (traced - plain) * 1e6, "us", "traced minus untraced p50")
    total = sum(attempted.values())
    out["fail_frac"] = (sum(failed.values()) / total, "ratio",
                        f"{total} ops")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path, cpus: set[int]) -> tuple[dict, bool]:
    """One benchmark run; returns (result JSON, passed)."""
    from workloads import VerificationError
    print(f"== {name}  seed {seed}  seconds {seconds:g}  trace "
          f"{int(trace)}", flush=True)
    base = work / f"{name}-{seed}-{int(trace)}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    runs: list[Run] = []
    result: dict = {"recs": []}
    try:
        if trace:
            plain = Run(name, seed, base / "untraced", cpus)
            runs.append(plain)
            untraced = plain.drive(seconds / 2)
            plain.stop()
            run = Run(name, seed, base / "traced", cpus, base / "spans.bin")
            runs.append(run)
            result = run.drive(seconds / 2)
            metrics = traced_ledger(run, result, untraced)
        else:
            setups = []
            for i in range(SETUPS):
                run = Run(name, seed, base / f"db{i}", cpus)
                runs.append(run)
                setups.append(run.setup_s)
                if i < SETUPS - 1:
                    run.stop()
            result = run.drive(seconds)
            metrics = end_to_end(run, result, setups)
        checked = sum(r.checked for r in result["recs"])
        restart = run.restart_check()
        correct, verdict = True, f"ok: {checked} reads and lookups checked"
    except VerificationError as exc:
        correct, verdict, restart, metrics = False, f"FAILED: {exc}", "-", {}
    finally:
        for r in runs:
            r.stop()
        shutil.rmtree(base, ignore_errors=True)

    recs = result["recs"]
    attempted, failed = merged(recs, "attempted"), merged(recs, "failed")
    errors = merged(recs, "errors")
    for metric, (value, unit, basis) in metrics.items():
        print(f"  {metric:34s} {value:14.4f} {unit:7s} ({basis})")
    total, bad = sum(attempted.values()), sum(failed.values())
    print(f"  failures: {bad} of {total} ops "
          f"(fail_frac {bad / max(1, total):.6f}); by op "
          f"{dict(sorted(failed.items()))}; by error "
          f"{dict(sorted(errors.items()))}")
    print(f"  verification: {verdict}")
    print(f"  restart check (SIGKILL of the server process only; the OS "
          f"page cache survives): {restart}")
    if recs:
        host = result["host"]
        print(f"  host: steal {host['steal_share']:.2%}  loadavg "
              f"{host['loadavg']}  nproc {host['nproc']}  python "
              f"{host['python']}")
    return {
        "correct": correct,
        "attempted": max(1, total),
        "failed": bad,
        "metrics": {m: {"value": v, "unit": u}
                    for m, (v, u, _b) in metrics.items()},
    }, correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not harness.engine_present():
        print(f"lobench: no engine under {harness.SRC}; run from the root "
              f"of a repro checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    cpus = harness.pin_driver()
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r} "
                     f"(have: {', '.join(WORKLOADS)})")
    ok = True
    for name in names:
        result, passed = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), harness.HERE / ".work",
                                      cpus)
        ok = ok and passed
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
