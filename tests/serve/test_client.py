"""ServeClient when no response arrives: every failure is a ServeError
with ``status=None`` — never a raw socket, ``urllib`` or ``http.client``
exception.

Each peer is a plain socket on the loopback interface: one that refuses
the connection, one that accepts it and stays silent, and two that close
it before a whole response was sent.
"""

import socket
import threading

import pytest

from repro.errors import ServeError
from repro.serve import ServeClient


def _listener() -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    return sock


def _url(sock: socket.socket) -> str:
    return "http://127.0.0.1:%d" % sock.getsockname()[1]


def _serve_once(sock: socket.socket, reply: bytes) -> threading.Thread:
    """Accept one connection, read the request head, send ``reply``, close."""

    def run() -> None:
        conn, _ = sock.accept()
        with conn:
            head = b""
            while b"\r\n\r\n" not in head:
                chunk = conn.recv(4096)
                if not chunk:
                    break
                head += chunk
            conn.sendall(reply)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def test_refused_port_is_unreachable():
    with _listener() as sock:  # bound but not listening: connects are refused
        with pytest.raises(ServeError) as info:
            ServeClient(_url(sock), timeout=2).healthz()
    assert (info.value.status, info.value.error) == (None, "unreachable")


def test_silent_server_is_a_timeout():
    with _listener() as sock:
        sock.listen(1)  # the kernel completes the handshake; nobody answers
        with pytest.raises(ServeError) as info:
            ServeClient(_url(sock), timeout=0.3).healthz()
    assert (info.value.status, info.value.error) == (None, "timeout")


@pytest.mark.parametrize("reply", [
    b"",  # closed after reading the request: http.client.RemoteDisconnected
    # closed ten bytes into a hundred-byte body: http.client.IncompleteRead
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 100\r\n\r\n{\"status\":",
], ids=["before-status-line", "mid-body"])
def test_closed_connection_is_unreachable(reply):
    with _listener() as sock:
        sock.listen(1)
        thread = _serve_once(sock, reply)
        with pytest.raises(ServeError) as info:
            ServeClient(_url(sock), timeout=5).healthz()
        thread.join(timeout=5)
    assert (info.value.status, info.value.error) == (None, "unreachable")
