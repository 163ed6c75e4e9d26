"""Chat-completion backends: an OpenAI-compatible HTTP client and a scripted backend.

The scripted backend replays canned responses keyed by (case_id, agent_role) and
can inject faults, which makes every workflow scenario reproducible offline.
"""

from __future__ import annotations

import enum
import http.client
import json
import logging
import re
import select
import ssl
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Callable, Optional
from urllib.parse import urlsplit

from .encoding import BadRecord, parse_json, read_case_id, read_jsonl

logger = logging.getLogger(__name__)

ROLE_ORCHESTRATOR = "orchestrator"
ROLE_BASELINE = "baseline"

# Deterministic sampling: every request is sent at temperature 0 and top_p 1.
MAX_TOKENS = 1024
TIMEOUT_SECONDS = 60.0  # per socket operation of one HTTP request
MAX_RETRIES = 2  # retries of a TransientError, after 1 s and 2 s

# What http.client cannot send: a request target holding a space, a control character or a
# non-ASCII character, and a header value holding a control character or one outside Latin-1.
_UNSENDABLE_TARGET = re.compile(r"[^\x21-\x7e]")
_UNSENDABLE_KEY = re.compile(r"[^\x20-\x7e\xa0-\xff]")


class BackendUnavailable(RuntimeError):
    """Retries exhausted or a scripted hard fault."""


class BadResponse(RuntimeError):
    """The HTTP response carried no assistant message content."""


class TransientError(RuntimeError):
    """A retryable failure (connection problem, timeout, HTTP 429/5xx)."""


class ScriptMiss(KeyError):
    """A lookup hit no script entry. Hard error: silent defaults would mask test gaps."""


class DuplicateKey(ValueError):
    pass


class DroppedToolCall(RuntimeError):
    """Scripted one-shot fault: the invocation vanishes as if the tool call was never made."""


@dataclass(frozen=True)
class BackendConfig:
    endpoint_url: str
    model: str  # sent as the request body's "model"
    api_key: Optional[str] = None


def with_retries(fn: Callable[[], str], sleep: Callable[[float], None] = time.sleep) -> str:
    """Call fn, retrying TransientError MAX_RETRIES times, after 1 s, 2 s, 4 s, ..."""
    attempt = 0
    while True:
        try:
            return fn()
        except TransientError as exc:
            if attempt >= MAX_RETRIES:
                raise BackendUnavailable(f"retries exhausted after {attempt + 1} attempts: {exc}") from exc
            logger.warning("attempt %d of %d failed, retrying in %d s: %s",
                           attempt + 1, MAX_RETRIES + 1, 2 ** attempt, exc)
            sleep(2 ** attempt)
            attempt += 1


def _readable(sock) -> bool:
    """True if a read would not block: on an idle keep-alive socket, the server closed it."""
    if hasattr(select, "poll"):  # select.select cannot take descriptors past FD_SETSIZE
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _close_all(connections) -> None:
    for conn in connections:
        conn.close()


class HttpBackend:
    """OpenAI-compatible chat-completions client on `http.client`. Safe for concurrent use.

    Each prompt goes as one user message to `config.model`. Calls reuse keep-alive
    connections: every connection a finished call returns is kept idle, so there are
    never more than the calls that were in flight at once, which the run bounds. The client
    talks to the endpoint directly: it reads no proxy, netrc or CA-bundle variables
    (HTTP_PROXY, NO_PROXY, ~/.netrc, REQUESTS_CA_BUNDLE), and it verifies HTTPS
    certificates and host names against the system trust store.
    """

    def __init__(self, config: BackendConfig, sleep: Callable[[float], None] = time.sleep):
        self.config = config
        self._sleep = sleep
        url = urlsplit(config.endpoint_url)
        # no error echoes the URL: "user:secret@host" has a password but no user to urlsplit
        if url.username is not None:
            raise ValueError("a user or password in the URL is not supported; remove it")
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError("not an http:// or https:// URL")
        if _UNSENDABLE_TARGET.search(url.path + url.query):
            raise ValueError("the URL's path or query holds a space, a control character or a "
                             "non-ASCII character; percent-encode it")
        if config.api_key and _UNSENDABLE_KEY.search(config.api_key):  # no error echoes the key
            raise ValueError("the API key holds a control character or a character outside "
                             "Latin-1, which an HTTP header cannot carry")
        self._address = (url.hostname, url.port or (443 if url.scheme == "https" else 80))
        self._tls = ssl.create_default_context() if url.scheme == "https" else None
        query = f"?{url.query}" if url.query else ""
        self._root = (url.path or "/") + query
        self._chat = url.path.rstrip("/") + "/chat/completions" + query
        self._idle: list[http.client.HTTPConnection] = []
        weakref.finalize(self, _close_all, self._idle)  # idle sockets close with the backend
        self._lock = threading.Lock()

    def _connection(self) -> http.client.HTTPConnection:
        """An idle connection the server has not closed, else a new one."""
        with self._lock:
            while self._idle:
                conn = self._idle.pop()
                if not _readable(conn.sock):
                    return conn
                conn.close()
        if self._tls is None:
            return http.client.HTTPConnection(*self._address, timeout=TIMEOUT_SECONDS)
        return http.client.HTTPSConnection(*self._address, timeout=TIMEOUT_SECONDS, context=self._tls)

    def _request(self, method: str, path: str, body: Optional[bytes] = None,
                 headers: Optional[dict] = None) -> tuple[int, bytes]:
        conn = self._connection()
        try:
            conn.request(method, path, body, headers or {})
            resp = conn.getresponse()
            data = resp.read()
        except BaseException as exc:
            conn.close()
            if isinstance(exc, (OSError, http.client.HTTPException)):
                raise TransientError(f"{type(exc).__name__}: {exc}") from exc
            raise
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        return resp.status, data

    def preflight(self) -> None:
        """Cheap reachability check; any HTTP answer counts as reachable."""
        try:
            self._request("GET", self._root)
        except TransientError as exc:
            raise BackendUnavailable(f"endpoint unreachable: {exc}") from exc

    def complete(self, prompt: str, case_id: str = "", agent_role: str = "") -> str:
        return with_retries(lambda: self._post_once(prompt), sleep=self._sleep)

    def _post_once(self, prompt: str) -> str:
        body = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0.0,
            "top_p": 1.0,
            "max_tokens": MAX_TOKENS,
        }
        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        status, data = self._request("POST", self._chat, json.dumps(body).encode("utf-8"), headers)
        if status == 429 or status >= 500:
            raise TransientError(f"HTTP {status}")
        if status >= 400:
            raise BadResponse(f"HTTP {status}: {data.decode('utf-8', 'replace')[:200]}")
        try:
            content = parse_json(data)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BadResponse(f"response lacks an assistant message: {exc}") from exc
        if not isinstance(content, str):
            raise BadResponse("assistant message content is not text")
        return content


class Fault(enum.Enum):
    TIMEOUT = "TIMEOUT"
    HTTP_500 = "HTTP_500"
    EMPTY = "EMPTY"
    DROPPED = "DROPPED"  # one-shot: first call vanishes, later calls succeed


@dataclass(frozen=True)
class ScriptEntry:
    case_id: str
    agent_role: str
    response: str = ""
    fault: Optional[Fault] = None

    @property
    def key(self) -> tuple[str, str]:
        return (self.case_id, self.agent_role)


class ScriptedBackend:
    """Deterministic backend replaying scripted responses and injecting faults."""

    def __init__(self, entries):
        self._entries: dict[tuple[str, str], ScriptEntry] = {}
        for entry in entries:
            if entry.key in self._entries:
                raise DuplicateKey(f"duplicate script key {entry.key}")
            self._entries[entry.key] = entry
        self._dropped_once: set[tuple[str, str]] = set()
        self._lock = threading.Lock()

    def preflight(self) -> None:
        pass

    def complete(self, prompt: str, case_id: str = "", agent_role: str = "") -> str:
        key = (case_id, agent_role)
        entry = self._entries.get(key)
        if entry is None:
            raise ScriptMiss(f"no script entry for {key}")
        if entry.fault in (Fault.TIMEOUT, Fault.HTTP_500):
            raise BackendUnavailable(  # as after HttpBackend's default retries
                f"scripted {entry.fault.value} persisted through "
                f"{MAX_RETRIES} retries for {key}"
            )
        if entry.fault is Fault.EMPTY:
            return ""
        if entry.fault is Fault.DROPPED:
            with self._lock:
                if key not in self._dropped_once:
                    self._dropped_once.add(key)
                    raise DroppedToolCall(f"scripted drop of first call for {key}")
            return entry.response
        return entry.response  # verbatim bytes


def load_script(path) -> list[ScriptEntry]:
    """Load a JSONL script file (one entry per line) through the encoding fallback chain."""
    entries: list[ScriptEntry] = []
    seen: dict[tuple[str, str], int] = {}  # key -> line it was first on
    for lineno, record in read_jsonl(path, required=("case_id", "agent_role")):
        # MALFORMED_AS_GIVEN is the old name for no fault: the response is returned verbatim
        fault = record.get("fault")
        try:
            fault = Fault(fault) if fault and fault != "MALFORMED_AS_GIVEN" else None
        except ValueError:
            raise BadRecord(lineno, f"unknown fault {fault!r}") from None
        entry = ScriptEntry(read_case_id(lineno, record["case_id"], "case_id"),
                            record["agent_role"], record.get("response", ""), fault)
        for key in ("agent_role", "response"):
            if not isinstance(getattr(entry, key), str):
                raise BadRecord(lineno, f"{key} is not a string")
        first = seen.setdefault(entry.key, lineno)
        if first != lineno:
            raise BadRecord(lineno, f"duplicate script key {entry.key} (first on line {first})")
        entries.append(entry)
    return entries
