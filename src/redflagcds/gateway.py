"""Chat-completion backends: an OpenAI-compatible HTTP client and a scripted backend.

The scripted backend replays canned responses keyed by (case_id, agent_role) and
can inject faults, which makes every workflow scenario reproducible offline.
"""

from __future__ import annotations

import enum
import json
import logging
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

import requests
from requests.adapters import DEFAULT_POOLSIZE, HTTPAdapter

from .encoding import read_text_fallback

logger = logging.getLogger(__name__)

ROLE_ORCHESTRATOR = "orchestrator"
ROLE_BASELINE = "baseline"

# Deterministic sampling: every request is sent at temperature 0 and top_p 1.
MAX_TOKENS = 1024


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
class ChatRequest:
    """One chat-completion request."""

    model: str
    messages: tuple[dict, ...]


def user_request(model: str, prompt: str) -> ChatRequest:
    """Build a single-user-message request."""
    return ChatRequest(model=model, messages=({"role": "user", "content": prompt},))


@dataclass(frozen=True)
class BackendConfig:
    endpoint_url: str
    model: str
    api_key: Optional[str] = None
    timeout_seconds: float = 60.0
    max_retries: int = 2

    def __post_init__(self):
        if self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")


def with_retries(
    fn: Callable[[], str],
    max_retries: int,
    sleep: Callable[[float], None] = time.sleep,
) -> str:
    """Call fn, retrying TransientError up to max_retries times after 1 s, 2 s, 4 s, ..."""
    attempt = 0
    while True:
        try:
            return fn()
        except TransientError as exc:
            if attempt >= max_retries:
                raise BackendUnavailable(f"retries exhausted after {attempt + 1} attempts: {exc}") from exc
            sleep(2 ** attempt)
            attempt += 1


class HttpBackend:
    """OpenAI-compatible chat-completions client. Safe for concurrent use.

    The session keeps up to `connections` idle connections per host for reuse.
    Give it the run's call bound: with fewer, the connections beyond the pool
    are closed when their calls end, and later calls open new ones.
    """

    def __init__(self, config: BackendConfig, sleep: Callable[[float], None] = time.sleep,
                 connections: int = DEFAULT_POOLSIZE):
        self.config = config
        self._sleep = sleep
        self._session = requests.Session()
        adapter = HTTPAdapter(pool_maxsize=connections)
        self._session.mount("http://", adapter)
        self._session.mount("https://", adapter)

    @property
    def url(self) -> str:
        return self.config.endpoint_url.rstrip("/") + "/chat/completions"

    def preflight(self) -> None:
        """Cheap reachability check; any HTTP answer counts as reachable."""
        try:
            self._session.get(self.config.endpoint_url, timeout=self.config.timeout_seconds)
        except requests.RequestException as exc:
            raise BackendUnavailable(f"endpoint unreachable: {exc}") from exc

    def complete(self, request: ChatRequest, case_id: str = "", agent_role: str = "") -> str:
        return with_retries(
            lambda: self._post_once(request),
            self.config.max_retries,
            sleep=self._sleep,
        )

    def _post_once(self, request: ChatRequest) -> str:
        body = {
            "model": request.model,
            "messages": list(request.messages),
            "temperature": 0.0,
            "top_p": 1.0,
            "max_tokens": MAX_TOKENS,
        }
        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        try:
            resp = self._session.post(
                self.url, json=body, headers=headers, timeout=self.config.timeout_seconds
            )
        except requests.RequestException as exc:
            raise TransientError(str(exc)) from exc
        if resp.status_code == 429 or resp.status_code >= 500:
            raise TransientError(f"HTTP {resp.status_code}")
        if resp.status_code >= 400:
            raise BadResponse(f"HTTP {resp.status_code}: {resp.text[:200]}")
        try:
            content = resp.json()["choices"][0]["message"]["content"]
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

    def __len__(self) -> int:
        return len(self._entries)

    def preflight(self) -> None:
        pass

    def complete(self, request: ChatRequest, case_id: str = "", agent_role: str = "") -> str:
        key = (case_id, agent_role)
        entry = self._entries.get(key)
        if entry is None:
            raise ScriptMiss(f"no script entry for {key}")
        if entry.fault in (Fault.TIMEOUT, Fault.HTTP_500):
            raise BackendUnavailable(  # as after HttpBackend's default retries
                f"scripted {entry.fault.value} persisted through "
                f"{BackendConfig.max_retries} retries for {key}"
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
    text = read_text_fallback(path)
    entries: list[ScriptEntry] = []
    seen: set[tuple[str, str]] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        # MALFORMED_AS_GIVEN is the old name for no fault: the response is returned verbatim
        fault = record.get("fault")
        fault = Fault(fault) if fault and fault != "MALFORMED_AS_GIVEN" else None
        entry = ScriptEntry(
            case_id=str(record["case_id"]),
            agent_role=str(record["agent_role"]),
            response=record.get("response", ""),
            fault=fault,
        )
        if entry.key in seen:
            raise DuplicateKey(f"{path}:{lineno}: duplicate script key {entry.key}")
        seen.add(entry.key)
        entries.append(entry)
    return entries
