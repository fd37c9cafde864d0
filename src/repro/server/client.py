"""``ServerClient``: the blocking client half of the repro protocol.

One :class:`ServerClient` is one connection is one server-side
:class:`~repro.session.Session`.  Calls block until the server
replies; an ``ok: false`` reply re-raises the server-side exception
class (looked up by name in :mod:`repro.errors`) with the original
message, so ``except DeadlockError: rollback-and-retry`` loops work
unchanged against a remote server.

>>> from repro.db import Database
>>> from repro.server import ReproServer, ServerClient
>>> db = Database()
>>> with ReproServer(db) as server:
...     with ServerClient(*server.address) as c:
...         c.begin()
...         lo = c.lo_create("fchunk")
...         fd = c.lo_open(lo, "rw")
...         _ = c.lo_write(fd, b"hello, inversion")
...         c.lo_close(fd)
...         c.commit()
...         c.begin()
...         fd = c.lo_open(lo)
...         data = c.lo_read(fd, 5)
...         c.rollback()
>>> data
b'hello'
>>> db.close()
"""

from __future__ import annotations

import socket

from repro import errors
from repro.errors import ReproError
from repro.server import protocol


class ServerClient:
    """A blocking connection to a :class:`~repro.server.ReproServer`."""

    def __init__(self, host: str, port: int, timeout: float | None = 60.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        #: Descriptors opened on this connection and not yet closed, each
        #: mapped to its deferred absolute seek (``None``: none pending).
        #: Mirrors the server's per-connection descriptor table.
        self._fds: dict[int, int | None] = {}

    # -- plumbing ----------------------------------------------------------------

    def _call(self, cmd: str, body: bytes = b"",
              **fields) -> tuple[dict, bytes]:
        """One request/reply round trip; raises the mapped engine error.

        A socket error or timeout after the request went out leaves its
        reply in flight, and a malformed reply leaves the stream out of
        sync; either way the connection is dropped, so every later call
        raises :class:`ConnectionError` instead of reading a stale reply.
        """
        sock = self._sock
        if sock is None:
            raise ConnectionError("connection to the repro server is closed")
        try:
            protocol.send_message(sock, {"cmd": cmd, **fields}, body)
        except OSError:
            self._drop()
            raise
        try:
            header, reply_body = protocol.recv_message(sock)
        except (OSError, protocol.ProtocolError):
            self._drop()
            raise
        if header.get("ok"):
            return header, reply_body
        raise self._map_error(header)

    def _fd_call(self, cmd: str, fd: int, body: bytes = b"",
                 **fields) -> tuple[dict, bytes]:
        """A descriptor request, carrying *fd*'s deferred seek if any.

        The server applies ``seek`` before the command itself, so the
        seek lands even when the command then fails.
        """
        seek = self._fds.get(fd)
        if seek is not None:
            fields["seek"] = seek
            self._fds[fd] = None
        return self._call(cmd, body, fd=fd, **fields)

    def _drop(self) -> None:
        """Close the socket without the ``close`` handshake."""
        sock, self._sock = self._sock, None
        self._fds.clear()
        try:
            sock.close()
        except OSError:
            pass

    @staticmethod
    def _map_error(header: dict) -> ReproError:
        name = header.get("error", "ReproError")
        message = header.get("message", "server error")
        if name == "ProtocolError":
            return protocol.ProtocolError(message)
        cls = getattr(errors, name, None)
        if not (isinstance(cls, type) and issubclass(cls, ReproError)):
            cls = ReproError
        return cls(message)

    # -- connection --------------------------------------------------------------

    def ping(self) -> bool:
        header, _ = self._call("ping")
        return bool(header.get("pong"))

    def stats(self) -> dict:
        """The server database's ``statistics()`` snapshot."""
        header, _ = self._call("stats")
        return header["stats"]

    def close(self) -> None:
        """End the connection (rolls back any open transaction)."""
        if self._sock is None:
            return
        try:
            self._call("close")
        except (ReproError, OSError):
            pass  # best effort: the server rolls back on EOF anyway
        if self._sock is not None:
            self._drop()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- transactions ------------------------------------------------------------

    def begin(self) -> int:
        """Start this connection's transaction; returns its xid."""
        header, _ = self._call("begin")
        return header["xid"]

    def commit(self) -> None:
        self._fds.clear()  # commit closes every descriptor
        self._call("commit")

    def rollback(self) -> None:
        self._fds.clear()
        self._call("rollback")

    # -- queries -----------------------------------------------------------------

    def execute(self, query: str) -> dict:
        """Run a mini-POSTQUEL statement; returns a plain-dict result.

        Keys mirror :class:`~repro.ql.executor.QueryResult`:
        ``columns``, ``rows`` (tuples, ``bytes`` values restored),
        ``count``, ``temporaries``.
        """
        header, _ = self._call("execute", query=query)
        return {
            "columns": header["columns"],
            "rows": protocol.decode_rows(header["rows"]),
            "count": header["count"],
            "temporaries": set(header["temporaries"]),
        }

    # -- large objects -----------------------------------------------------------

    def lo_create(self, impl: str = "fchunk",
                  compression: str = "none",
                  smgr: str | None = None) -> str:
        header, _ = self._call("lo_create", impl=impl,
                               compression=compression, smgr=smgr)
        return header["designator"]

    def lo_unlink(self, designator: str) -> None:
        self._call("lo_unlink", designator=designator)

    def lo_open(self, designator: str, mode: str = "r") -> int:
        header, _ = self._call("lo_open", designator=designator, mode=mode)
        self._fds[header["fd"]] = None
        return header["fd"]

    def lo_close(self, fd: int) -> None:
        self._fds.pop(fd, None)  # a pending seek dies with the descriptor
        self._call("lo_close", fd=fd)

    def lo_read(self, fd: int, nbytes: int = -1) -> bytes:
        _, body = self._fd_call("lo_read", fd, nbytes=nbytes)
        return body

    def lo_write(self, fd: int, data: bytes) -> int:
        header, _ = self._fd_call("lo_write", fd, bytes(data))
        return header["nbytes"]

    def lo_append(self, fd: int, data: bytes) -> int:
        """EOF-stable append (lands exactly once under concurrency)."""
        header, _ = self._fd_call("lo_append", fd, bytes(data))
        return header["nbytes"]

    def lo_seek(self, fd: int, offset: int, whence: int = 0) -> int:
        """Move *fd*'s position; returns the new absolute position.

        An absolute seek to ``offset >= 0`` on a descriptor this
        connection has open cannot fail, so it costs no round trip: it
        rides along as the ``seek`` field of *fd*'s next request.  Every
        other seek goes to the server now and raises its error here.
        """
        if whence == 0 and offset >= 0 and fd in self._fds:
            self._fds[fd] = offset
            return offset
        header, _ = self._fd_call("lo_seek", fd, offset=offset,
                                  whence=whence)
        return header["pos"]

    def lo_tell(self, fd: int) -> int:
        header, _ = self._fd_call("lo_tell", fd)
        return header["pos"]

    def lo_size(self, fd: int) -> int:
        header, _ = self._fd_call("lo_size", fd)
        return header["size"]

    def lo_truncate(self, fd: int, size: int | None = None) -> int:
        header, _ = self._fd_call("lo_truncate", fd, size=size)
        return header["size"]
