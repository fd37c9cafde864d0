"""The three closed-loop traffic mixes and the model each one verifies.

Every workload talks to the server only through public
``ServerClient`` calls.  It keeps a model of what it has committed, so
every frame read and every lookup is checked against the bytes the
driver expects, and after the server is killed the reopened database
must hold exactly the acknowledged commits.

Frame payloads are ``repro.bench.datasets.frame_bytes(frame, fraction,
generation=g, seed=...)``; a replace writes a fresh generation, so the
expected bytes of any frame are known from its generation alone.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter

from repro.bench.datasets import frame_bytes
from repro.errors import ReproError

FRAME = 4096


class VerificationError(AssertionError):
    """The server returned bytes or rows the model says it cannot hold."""


class OpFailed(Exception):
    """A client call raised a server error; the transaction is abandoned."""


class Phase:
    """Shared clock of one measured phase.

    Operations that start before ``timed_from`` are warm-up: they count
    as attempted (and failed) but leave no latency sample.  Clients stop
    starting transactions after ``seconds`` of timed traffic.  Every
    ``block_s`` of timed traffic the phase records ``sampler()`` (the
    host's CPU counters), so each block's steal share is known.
    """

    def __init__(self, warmup: float, seconds: float, sampler=None,
                 block_s: float = 1.0):
        self.start = time.perf_counter()
        self.timed_from = self.start + warmup
        self.end = self.timed_from + seconds
        self.stopped_at: float | None = None
        #: Set when any client raised; every client then stops.
        self.failure: BaseException | None = None
        self.sampler = sampler
        self.block_s = block_s
        #: ``(time, sampler())`` at each block boundary of the timed part.
        self.marks: list[tuple[float, object]] = []
        self._next_mark = self.timed_from
        self._lock = threading.Lock()

    def recorder(self) -> "Recorder":
        return Recorder(self)

    def mark(self, now: float) -> None:
        with self._lock:
            if self.sampler is not None and now >= self._next_mark:
                self.marks.append((now, self.sampler()))
                self._next_mark = now + self.block_s

    def running(self) -> bool:
        if self.failure is not None:
            return False
        now = time.perf_counter()
        if now >= self._next_mark:
            self.mark(now)
        return now < self.end

    def stop(self) -> None:
        self.stopped_at = time.perf_counter()
        self._next_mark = self.stopped_at
        self.mark(self.stopped_at)

    @property
    def timed_seconds(self) -> float:
        return self.stopped_at - self.timed_from


class Recorder:
    """One client's timed samples, failures and call time."""

    def __init__(self, phase: Phase):
        self.phase = phase
        #: ``(start, kind, seconds, user bytes)`` of every timed call.
        self.timed: list[tuple[float, str, float, int]] = []
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.errors: Counter = Counter()
        self.checked = 0
        #: Seconds spent inside client calls over the whole phase.
        self.busy = 0.0

    def call(self, kind: str, fn, *args, nbytes: int = 0):
        """Run one client operation, timing it and accounting failures."""
        start = time.perf_counter()
        try:
            result = fn(*args)
        except ReproError as exc:
            self.busy += time.perf_counter() - start
            self.attempted[kind] += 1
            self.failed[kind] += 1
            self.errors[type(exc).__name__] += 1
            raise OpFailed(kind) from exc
        elapsed = time.perf_counter() - start
        self.busy += elapsed
        self.attempted[kind] += 1
        if start >= self.phase.timed_from:
            self.timed.append((start, kind, elapsed, nbytes))
        return result

    def check(self, got, expected, what: str) -> None:
        self.checked += 1
        if got != expected:
            raise VerificationError(
                f"{what}: server returned {_brief(got)}, model expects "
                f"{_brief(expected)}")


def _brief(value) -> str:
    if isinstance(value, (bytes, bytearray)):
        return f"{len(value)} bytes starting {bytes(value[:16])!r}"
    return repr(value)


def abandon(client, rec: Recorder) -> None:
    """Roll back after a failed call; the server may already have."""
    try:
        rec.call("rollback", client.rollback)
    except OpFailed:
        pass


def read_object(db, designator: str) -> bytes:
    with db.lo.open(designator) as handle:
        return handle.read()


class Workload:
    """Base: one traffic mix, its data set and its model."""

    name = ""
    clients = 1
    #: QL declaring the workload's large type.
    TYPE = ""
    #: Latency kinds every run reports.
    timed_kinds = ("read", "write", "lookup", "commit")

    def __init__(self, seed: int):
        self.payload_seed = seed & 0xFFFF
        self.user_bytes_written = 0

    def frame(self, frame_no: int, generation: int,
              fraction: float = 0.0) -> bytes:
        return frame_bytes(frame_no, fraction, generation=generation,
                           seed=self.payload_seed)

    def reopen_types(self, db) -> None:
        """Large ADTs live in the process's type registry, not in the
        catalog, so a reopened database needs them declared again."""
        db.execute(self.TYPE)

    def lookup(self, client, rec: Recorder, cls: str, column: str,
               key: int, expected: str) -> str:
        result = rec.call(
            "lookup", client.execute,
            f"retrieve ({cls}.{column}) where {cls}.id = {key}")
        rec.check(result["rows"], [(expected,)], f"{cls} id {key}")
        return expected


class FramesCold(Workload):
    """One f-chunk object 16x the buffer pool, paper 80/20 frame traffic."""

    name = "frames-cold"
    TYPE = "create large type film (storage = f-chunk)"

    def __init__(self, seed: int, frames: int = 8192,
                 ops_per_commit: int = 32):
        super().__init__(seed)
        self.frames = frames
        self.ops_per_commit = ops_per_commit
        self.rng = random.Random(seed)
        self.committed = [0] * frames
        self.generation = 0
        self.pos = 0
        self.designator = ""

    def setup(self, client) -> None:
        client.begin()
        client.execute(self.TYPE)
        client.execute("create MOVIES (id = int4, reel = film)")
        client.execute("define index movies_id on MOVIES (id)")
        self.designator = client.lo_create("fchunk")
        client.execute(
            f'append MOVIES (id = 1, reel = "{self.designator}")')
        fd = client.lo_open(self.designator, "rw")
        batch = 64
        for first in range(0, self.frames, batch):
            last = min(self.frames, first + batch)
            client.lo_write(fd, b"".join(
                self.frame(f, 0) for f in range(first, last)))
            if last % (batch * 16) == 0 and last < self.frames:
                client.commit()
                client.begin()
                fd = client.lo_open(self.designator, "rw")
                client.lo_seek(fd, last * FRAME)
        client.commit()
        self.user_bytes_written = self.frames * FRAME

    def next_frame(self) -> int:
        if self.rng.random() < 0.8:
            self.pos = (self.pos + 1) % self.frames
        else:
            self.pos = self.rng.randrange(self.frames)
        return self.pos

    def run_client(self, index: int, client, rec: Recorder) -> None:
        while rec.phase.running():
            pending: dict[int, int] = {}
            try:
                rec.call("begin", client.begin)
                self.lookup(client, rec, "MOVIES", "reel", 1,
                            self.designator)
                fd = rec.call("open", client.lo_open, self.designator, "rw")
                writes = sum(self.frame_op(client, rec, fd, pending)
                             for _ in range(self.ops_per_commit))
                rec.call("commit", client.commit)
            except OpFailed:
                abandon(client, rec)
                continue
            for f, gen in pending.items():
                self.committed[f] = gen
            self.user_bytes_written += FRAME * writes

    def frame_op(self, client, rec: Recorder, fd: int,
                 pending: dict[int, int]) -> bool:
        """One 70/30 frame read or replace; True when it wrote."""
        f = self.next_frame()
        if self.rng.random() < 0.7:
            data = rec.call("read", _seek_read, client, fd, f * FRAME,
                            FRAME, nbytes=FRAME)
            rec.check(data, self.frame(f, pending.get(f, self.committed[f])),
                      f"frame {f}")
            return False
        self.generation += 1
        rec.call("write", _seek_write, client, fd, f * FRAME,
                 self.frame(f, self.generation), nbytes=FRAME)
        pending[f] = self.generation
        return True

    def live_bytes(self) -> int:
        return self.frames * FRAME

    def restart_check(self, db) -> str:
        self.reopen_types(db)
        _check_rows(db, "MOVIES", "reel", {1: self.designator})
        data = read_object(db, self.designator)
        _check_frames(data, [self.frame(f, g)
                             for f, g in enumerate(self.committed)],
                      self.designator)
        return f"{self.frames} frames byte-exact"


class LibraryHot(Workload):
    """The paper's keyed retrieve-then-open pattern on a pool-resident set.

    Sixteen clips, not the paper-flavoured 64: each v-segment object
    holds several pool pages of its own (segment map, byte store, index)
    and every replace appends a segment version, so 32 clips already
    miss the 256-page pool (smgr reads ~0.2 per op) within 20 seconds.
    """

    name = "library-hot"
    TYPE = ('create large type video '
            '(storage = v-segment, compression = "zero-rle")')
    FRAMES_PER_CLIP = 4
    FRACTION = 0.3

    def __init__(self, seed: int, clips: int = 16):
        super().__init__(seed)
        self.clips = clips
        self.rng = random.Random(seed)
        self.designators: dict[int, str] = {}
        self.committed = [[0] * self.FRAMES_PER_CLIP for _ in range(clips)]
        self.generation = 0

    def clip_frame(self, clip: int, k: int, generation: int) -> bytes:
        return self.frame(clip * self.FRAMES_PER_CLIP + k, generation,
                          self.FRACTION)

    def clip_bytes(self, clip: int, gens: list[int]) -> bytes:
        return b"".join(self.clip_frame(clip, k, g)
                        for k, g in enumerate(gens))

    def setup(self, client) -> None:
        client.begin()
        client.execute(self.TYPE)
        client.execute("create CLIPS (id = int4, title = text, "
                       "footage = video)")
        client.execute("define index clips_id on CLIPS (id)")
        for clip in range(self.clips):
            designator = client.lo_create("vsegment",
                                          compression="zero-rle")
            fd = client.lo_open(designator, "rw")
            client.lo_write(fd, self.clip_bytes(clip, self.committed[clip]))
            client.lo_close(fd)
            client.execute(f'append CLIPS (id = {clip}, title = '
                           f'"clip {clip}", footage = "{designator}")')
            self.designators[clip] = designator
        client.commit()
        self.user_bytes_written = self.live_bytes()

    def run_client(self, index: int, client, rec: Recorder) -> None:
        clip_len = self.FRAMES_PER_CLIP * FRAME
        while rec.phase.running():
            clip = self.rng.randrange(self.clips)
            replace = self.rng.random() < 0.1
            k = self.rng.randrange(self.FRAMES_PER_CLIP)
            try:
                rec.call("begin", client.begin)
                designator = self.lookup(client, rec, "CLIPS", "footage",
                                         clip, self.designators[clip])
                if replace:
                    fd = rec.call("open", client.lo_open, designator, "rw")
                    self.generation += 1
                    rec.call("write", _seek_write, client, fd, k * FRAME,
                             self.clip_frame(clip, k, self.generation),
                             nbytes=FRAME)
                else:
                    fd = rec.call("open", client.lo_open, designator, "r")
                    data = rec.call("read", client.lo_read, fd, clip_len,
                                    nbytes=clip_len)
                    rec.check(data, self.clip_bytes(clip,
                                                    self.committed[clip]),
                              f"clip {clip}")
                rec.call("close", client.lo_close, fd)
                rec.call("commit", client.commit)
            except OpFailed:
                abandon(client, rec)
                continue
            if replace:
                self.committed[clip][k] = self.generation
                self.user_bytes_written += FRAME

    def live_bytes(self) -> int:
        return self.clips * self.FRAMES_PER_CLIP * FRAME

    def restart_check(self, db) -> str:
        self.reopen_types(db)
        _check_rows(db, "CLIPS", "footage", self.designators)
        for clip, designator in self.designators.items():
            got = read_object(db, designator)
            if got != self.clip_bytes(clip, self.committed[clip]):
                raise VerificationError(
                    f"after restart, clip {clip} ({designator}) differs "
                    f"from its last acknowledged commit")
        return f"{self.clips} clips byte-exact"


class WritersTwo(Workload):
    """Two writers: private halves, a shared hot range, a shared log."""

    name = "writers-2"
    TYPE = "create large type reel (storage = f-chunk)"
    clients = 2
    HOT = 64
    RUN = 8
    RECORD = 256

    def __init__(self, seed: int, frames: int = 2048):
        super().__init__(seed)
        self.frames = frames
        half = (frames - self.HOT) // 2
        #: Client i owns frames [lo, hi); frames [0, HOT) are shared.
        self.owned = [(self.HOT + i * half, self.HOT + (i + 1) * half)
                      for i in range(2)]
        self.rngs = [random.Random(seed * 2 + i) for i in range(2)]
        self.committed = [0] * frames
        #: Hot frame -> generations whose commit was sent and not refused.
        self.hot_allowed = [{0} for _ in range(self.HOT)]
        self.log_records: list[bytes] = []
        self.generation = [0, 0]
        self.seq = [0, 0]
        self._lock = threading.Lock()
        self.data = self.log = ""

    def gen_for(self, index: int) -> int:
        self.generation[index] += 1
        return self.generation[index] * 2 + index

    def record(self, index: int) -> bytes:
        self.seq[index] += 1
        head = f"client {index} txn {self.seq[index]};".encode()
        return head + b"." * (self.RECORD - len(head))

    def setup(self, client) -> None:
        client.begin()
        client.execute(self.TYPE)
        client.execute("create REELS (id = int4, reel = reel)")
        client.execute("define index reels_id on REELS (id)")
        self.data = client.lo_create("fchunk")
        self.log = client.lo_create("fchunk")
        client.execute(f'append REELS (id = 1, reel = "{self.data}")')
        client.execute(f'append REELS (id = 2, reel = "{self.log}")')
        fd = client.lo_open(self.data, "rw")
        for first in range(0, self.frames, 64):
            client.lo_write(fd, b"".join(
                self.frame(f, 0)
                for f in range(first, min(self.frames, first + 64))))
        client.commit()
        self.user_bytes_written = self.frames * FRAME

    def expected(self, f: int, pending: dict[int, int]) -> set[int]:
        if f in pending:
            return {pending[f]}
        if f < self.HOT:
            with self._lock:
                return set(self.hot_allowed[f])
        return {self.committed[f]}

    def run_client(self, index: int, client, rec: Recorder) -> None:
        rng = self.rngs[index]
        lo, hi = self.owned[index]
        while rec.phase.running():
            if rng.random() < 1 / 8:
                start = rng.randrange(0, self.HOT - self.RUN + 1)
            else:
                start = rng.randrange(lo, hi - self.RUN + 1)
            pending: dict[int, int] = {}
            record = self.record(index)
            try:
                rec.call("begin", client.begin)
                self.lookup(client, rec, "REELS", "reel", 1, self.data)
                fd = rec.call("open", client.lo_open, self.data, "rw")
                data = rec.call("read", _seek_read, client, fd,
                                start * FRAME, FRAME, nbytes=FRAME)
                rec.checked += 1
                if not any(data == self.frame(start, g)
                           for g in self.expected(start, pending)):
                    raise VerificationError(
                        f"frame {start}: server returned {_brief(data)}, "
                        f"not any generation the model allows")
                for f in range(start, start + self.RUN):
                    gen = self.gen_for(index)
                    rec.call("write", _seek_write, client, fd, f * FRAME,
                             self.frame(f, gen), nbytes=FRAME)
                    pending[f] = gen
                log_fd = rec.call("open", client.lo_open, self.log, "rw")
                rec.call("append", client.lo_append, log_fd, record,
                         nbytes=self.RECORD)
                self._offer_hot(pending, add=True)
                try:
                    rec.call("commit", client.commit)
                except OpFailed:
                    self._offer_hot(pending, add=False)
                    raise
            except OpFailed:
                abandon(client, rec)
                continue
            with self._lock:
                for f, gen in pending.items():
                    self.committed[f] = gen
                self.log_records.append(record)
                self.user_bytes_written += (FRAME * len(pending)
                                            + self.RECORD)

    def _offer_hot(self, pending: dict[int, int], add: bool) -> None:
        with self._lock:
            for f, gen in pending.items():
                if f < self.HOT:
                    if add:
                        self.hot_allowed[f].add(gen)
                    else:
                        self.hot_allowed[f].discard(gen)

    def live_bytes(self) -> int:
        return self.frames * FRAME + len(self.log_records) * self.RECORD

    def restart_check(self, db) -> str:
        self.reopen_types(db)
        _check_rows(db, "REELS", "reel", {1: self.data, 2: self.log})
        data = read_object(db, self.data)
        if len(data) != self.frames * FRAME:
            raise VerificationError(
                f"after restart, {self.data} holds {len(data)} bytes")
        for f in range(self.frames):
            got = data[f * FRAME:(f + 1) * FRAME]
            allowed = (self.hot_allowed[f] if f < self.HOT
                       else {self.committed[f]})
            if not any(got == self.frame(f, g) for g in allowed):
                raise VerificationError(
                    f"after restart, frame {f} is not an acknowledged "
                    f"generation")
        log = read_object(db, self.log)
        records = [log[i:i + self.RECORD]
                   for i in range(0, len(log), self.RECORD)]
        if sorted(records) != sorted(self.log_records):
            raise VerificationError(
                f"after restart, the log holds {len(records)} records; "
                f"{len(self.log_records)} appends were acknowledged")
        return (f"{self.frames} frames and {len(records)} log records "
                f"byte-exact")


def _seek_read(client, fd: int, offset: int, nbytes: int) -> bytes:
    client.lo_seek(fd, offset)
    return client.lo_read(fd, nbytes)


def _seek_write(client, fd: int, offset: int, data: bytes) -> int:
    client.lo_seek(fd, offset)
    return client.lo_write(fd, data)


def _check_rows(db, cls: str, column: str, expected: dict[int, str]) -> None:
    rows = db.execute(f"retrieve ({cls}.id, {cls}.{column})").rows
    if dict(rows) != expected or len(rows) != len(expected):
        raise VerificationError(
            f"after restart, {cls} holds {sorted(rows)}; model expects "
            f"{sorted(expected.items())}")


def _check_frames(data: bytes, frames: list[bytes], designator: str) -> None:
    if data != b"".join(frames):
        bad = next((i for i, f in enumerate(frames)
                    if data[i * FRAME:(i + 1) * FRAME] != f), len(frames))
        raise VerificationError(
            f"after restart, {designator} differs from the acknowledged "
            f"commits at frame {bad} (size {len(data)})")


WORKLOADS = {w.name: w for w in (FramesCold, LibraryHot, WritersTwo)}
