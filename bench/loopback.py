"""In-process OpenAI-compatible stub for the `http-loopback` workload.

A stdlib ThreadingHTTPServer on 127.0.0.1 speaking HTTP/1.1 with keep-alive.
It maps each rendered prompt back to its scripted response, waits a small fixed
delay per request, and counts accepted connections and chat requests served.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class _Server(ThreadingHTTPServer):
    daemon_threads = False  # server_close() joins every handler thread
    block_on_close = True

    def __init__(self, stub: "LoopbackStub"):
        self.stub = stub
        super().__init__(("127.0.0.1", 0), _Handler)

    def process_request(self, request, client_address):
        self.stub._accepted(request)
        super().process_request(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # headers and body go out as separate writes
    timeout = 60  # an idle keep-alive connection never pins a thread forever

    def do_GET(self):  # preflight: any answer counts as reachable
        self._send(200, b"")

    def do_POST(self):
        stub = self.server.stub
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        text = stub.responses.get(body["messages"][0]["content"])
        time.sleep(stub.delay_s)
        stub._served()
        if text is None:
            self._send(404, b'{"error": "unknown prompt"}')
            return
        reply = {"choices": [{"message": {"role": "assistant", "content": text}}]}
        self._send(200, json.dumps(reply).encode("utf-8"))

    def _send(self, status: int, payload: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args):  # keep stdout/stderr clean
        pass


class LoopbackStub:
    """Serve `responses` (rendered prompt -> assistant text) until close()."""

    def __init__(self, responses: dict[str, str], delay_s: float):
        self.responses = responses
        self.delay_s = delay_s
        self.connections = 0
        self.requests = 0
        self._sockets: list[socket.socket] = []
        self._lock = threading.Lock()
        self._server = _Server(self)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05}, name="loopback-stub")
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1"

    def _accepted(self, sock: socket.socket) -> None:
        with self._lock:
            self.connections += 1
            self._sockets.append(sock)

    def _served(self) -> None:
        with self._lock:
            self.requests += 1

    def close(self) -> None:
        """Stop serving, end idle keep-alive connections, and join every thread."""
        self._server.shutdown()
        with self._lock:
            for sock in self._sockets:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # already closed by the client
        self._server.server_close()
        self._thread.join()
