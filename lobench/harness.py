"""Process, statistics and host plumbing shared by the benchmark driver.

Nothing here knows a workload: the server child, the percentile rule,
the directory-size and memory probes, and the host diagnostics.
"""

from __future__ import annotations

import math
import os
import platform
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

#: Root of the checkout: the parent of this benchmark's directory.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Environment variables that arm engine debug machinery; the benchmark
#: measures the engine as shipped, so the server child never sees them.
DEBUG_VARS = ("REPRO_DEBUG_LATCH", "REPRO_LOCKDEP")

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked for with too few samples beyond it."""


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank *q*-th percentile of *samples*.

    Refuses (raises :class:`InsufficientSamples`) unless at least
    ``MIN_BEYOND`` samples lie beyond the rank, so a "p99" is never the
    maximum of a handful of values.
    """
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; have {n} "
            f"samples, {max(0, n - rank)} beyond")
    return sorted(samples)[rank - 1]


def engine_present() -> bool:
    """True when the checkout holds the engine this benchmark drives."""
    return (SRC / "repro" / "server" / "cli.py").is_file()


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in DEBUG_VARS}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def pin_driver() -> set[int]:
    """Pin this driver to one CPU and return it, for the server child too.

    Driver and server share one core on purpose.  On a shared VM every
    round trip between two vCPUs waits for the hypervisor to run the
    other one; in paired runs that doubled the run-to-run spread of
    ``library-hot`` whenever the host was stealing time.
    """
    cpu = {min(os.sched_getaffinity(0))}
    os.sched_setaffinity(0, cpu)
    return cpu


class ServerChild:
    """One ``repro-server --path <dir>`` child process.

    ``spans`` selects the traced launcher (``traced_server.py``), which
    wraps the engine's layer entry points before it calls the same CLI
    and writes its spans to that file on SIGUSR1.  ``cpus`` pins the
    child (see :func:`pin_driver`).
    """

    def __init__(self, db_dir: Path, log_path: Path,
                 spans: Path | None = None, cpus: set[int] = frozenset()):
        cli = ["--path", str(db_dir)]
        if spans is None:
            argv = [sys.executable, "-m", "repro.server.cli", *cli]
        else:
            argv = [sys.executable, str(HERE / "traced_server.py"),
                    "--spans", str(spans), *cli]
        self.spans = spans
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log,
            env=child_env(), cwd=str(ROOT))
        if cpus:
            os.sched_setaffinity(self.proc.pid, cpus)
        self.address = self._await_listening(timeout=60.0)

    def _await_listening(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, left))
            if not ready:
                self.kill()
                raise RuntimeError("server child did not start in time")
            chunk = os.read(self.proc.stdout.fileno(), 256)
            if not chunk:
                self.kill()
                raise RuntimeError(
                    f"server child exited (code {self.proc.poll()}) "
                    f"before listening")
            line += chunk
        host, port = line.decode().split()[-1].rsplit(":", 1)
        return host, int(port)

    def peak_rss_mb(self) -> float:
        """The child's ``VmHWM`` (peak resident set) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for row in status:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def dump_spans(self, timeout: float = 60.0) -> None:
        """Ask the traced launcher to write its spans; wait for the file."""
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not self.spans.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("traced server wrote no span file")
            time.sleep(0.05)

    def kill(self) -> None:
        """SIGKILL the child and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()


def dir_bytes(path: Path) -> int:
    """Bytes held by the regular files under *path*."""
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` row of ``/proc/stat``, in ticks."""
    with open("/proc/stat") as stat:
        return [int(x) for x in stat.readline().split()[1:]]


def host_diagnostics(before: list[int], after: list[int]) -> dict:
    """Steal share over an interval, load average, CPUs, Python."""
    delta = [b - a for a, b in zip(before, after)]
    steal = delta[7] if len(delta) > 7 else 0
    with open("/proc/loadavg") as loadavg:
        load = loadavg.read().split()[:3]
    return {
        "steal_share": steal / max(1, sum(delta)),
        "loadavg": " ".join(load),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
