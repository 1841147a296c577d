"""Wire protocol shared by the experiment daemon and its clients.

One connection carries a client's requests, one at a time: each a single
line of JSON (the ``op`` field selects the verb), answered either by a
single JSON response line (``{"ok": true, ...}`` / ``{"ok": false,
"error": "..."}``) or — for ``stream`` — by an ack line and then JSONL
event lines ending with the job's terminal event, after which the next
request may follow.  The client closes; the server does only when it
stops, or after a request line longer than :data:`MAX_REQUEST` (framing
is lost) — any other bad line is answered ``ok: false`` and the
connection serves the next.  Newline-delimited JSON keeps the protocol
debuggable with ``socat`` (a raw reader sees a stream end at the terminal
event line, not at EOF) and lets a dashboard tail a 10k-point sweep.

Addresses are either a filesystem path (AF_UNIX socket — the default:
``$REPRO_SERVICE_ADDR``, else a per-user socket under
``$XDG_RUNTIME_DIR`` or ``/tmp``) or ``host:port`` for TCP loopback
use where unix sockets are unavailable.
"""

from __future__ import annotations

import getpass
import json
import os
import socket
from typing import Any

__all__ = [
    "ProtocolError",
    "LineTooLong",
    "Connection",
    "default_address",
    "parse_address",
    "make_listener",
    "connect",
]

#: protocol verbs the daemon understands
OPS = (
    "ping", "submit", "status", "poll", "stream", "result",
    "cancel", "list-jobs", "stats", "shutdown",
)

_MAX_LINE = 512 * 1024 * 1024  # hard backstop against a runaway peer
#: the longest request line the daemon reads (a 10k-point submit is ~2 MB)
MAX_REQUEST = 16 * 1024 * 1024
_encode = json.JSONEncoder(separators=(",", ":")).encode


class ProtocolError(RuntimeError):
    """A malformed or failed exchange with the daemon."""


class LineTooLong(ProtocolError):
    """The rest of the peer's line is unread: no next message can be found."""


def default_address() -> str:
    env = os.environ.get("REPRO_SERVICE_ADDR")
    if env:
        return env
    runtime = os.environ.get("XDG_RUNTIME_DIR")
    base = runtime if runtime else "/tmp"
    try:
        user = getpass.getuser()
    except Exception:
        user = str(os.getuid()) if hasattr(os, "getuid") else "user"
    return os.path.join(base, f"repro-experiments-{user}.sock")


def parse_address(address: str) -> tuple[str, Any]:
    """``("tcp", (host, port))`` for ``host:port``, else
    ``("unix", path)``."""
    host, sep, port = address.rpartition(":")
    if sep and "/" not in address and port.isdigit():
        return "tcp", (host or "127.0.0.1", int(port))
    return "unix", address


def make_listener(address: str, backlog: int = 32) -> socket.socket:
    """Bind a listening socket (unlinking a stale unix-socket path)."""
    family, target = parse_address(address)
    if family == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            if os.path.exists(target):
                # refuse to steal a live daemon's socket
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                probe.settimeout(0.25)
                try:
                    probe.connect(target)
                except OSError:
                    os.unlink(target)  # stale: no one is listening
                else:
                    probe.close()
                    raise ProtocolError(
                        f"another daemon is already serving {target}"
                    )
                finally:
                    probe.close()
            sock.bind(target)
        except OSError as exc:
            sock.close()
            raise ProtocolError(f"cannot bind {address}: {exc}") from None
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind(target)
        except OSError as exc:
            sock.close()
            raise ProtocolError(f"cannot bind {address}: {exc}") from None
    sock.listen(backlog)
    return sock


def connect(address: str, timeout: float | None = None) -> "Connection":
    family, target = parse_address(address)
    sock = socket.socket(
        socket.AF_UNIX if family == "unix" else socket.AF_INET,
        socket.SOCK_STREAM,
    )
    if timeout is not None:
        sock.settimeout(timeout)
    try:
        sock.connect(target)
    except OSError as exc:
        sock.close()
        raise ProtocolError(
            f"cannot reach an experiment daemon at {address}: {exc} "
            f"(start one with `repro-experiments serve`)"
        ) from None
    return Connection(sock)


class Connection:
    """One end of the wire: a connected socket and the one buffered reader
    it keeps for life (a reader per request would lose its read-ahead)."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._reader = sock.makefile("rb")
        if sock.family != socket.AF_UNIX:  # small lines: never wait for an ack
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send(self, *messages: Any) -> None:
        """Write ``messages`` as JSONL with one ``sendall``."""
        self._sock.sendall(("\n".join(map(_encode, messages)) + "\n").encode())

    def recv(self, limit: int = _MAX_LINE) -> Any | None:
        """The next decoded message, None at EOF."""
        line = self._reader.readline(limit + 1)
        if not line:
            return None
        if len(line) > limit:
            raise LineTooLong(f"protocol line longer than {limit} bytes")
        try:
            return json.loads(line)
        except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, [[[[…
            raise ProtocolError(f"malformed protocol line: {exc}") from None

    def shutdown_read(self) -> None:
        """Make the reader see EOF; what is being written still goes out."""
        try:
            self._sock.shutdown(socket.SHUT_RD)
        except OSError:
            pass  # the peer already closed

    def close(self) -> None:
        try:
            self._reader.close()
            self._sock.close()
        except OSError:
            pass
