"""The simulation service's wire protocol.

One request or response is one JSON object on one ``\\n``-terminated
line (line-delimited JSON), exchanged over a unix-domain or TCP stream
socket. A connection is a session: the client may send any number of
requests and reads exactly one response line per request, in order.

Every message carries ``schema_version`` (:data:`PROTOCOL_VERSION`).
Like ``SimResult`` v2, readers are *unknown-key tolerant*: a peer may
add fields and an older peer simply ignores them; only a version newer
than the reader's own is worth a warning, never a hard failure. The
one hard error is a line that is not a JSON object at all
(:class:`ProtocolError`).

Requests name an operation in ``op``::

    {"schema_version": 1, "op": "submit",
     "pairs": [["server_000", "conv32"], ["server_000", "ubs"]],
     "scale": 0.05,
     "carrier": {"trace_id": "...", "span_id": "...",
                 "spans_path": "/tmp/run/spans.jsonl"}}

Responses always carry ``ok``; failures carry ``error``::

    {"schema_version": 1, "ok": true, "job_id": "9f0c2a18d0b1c2d3"}
    {"schema_version": 1, "ok": false, "error": "scale mismatch: ..."}

The operations (full reference with example exchanges in
``docs/service.md``): ``ping``, ``peek``, ``submit``, ``status``,
``wait``, ``results``, ``cancel``, ``stats``, ``shutdown``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple, Union

#: Bump on any incompatible change to the message layout.
PROTOCOL_VERSION = 1

#: Default TCP port when an address gives a bare ``:port``-less host.
DEFAULT_PORT = 7621

Pair = Tuple[str, str]


class ProtocolError(Exception):
    """A wire message that is not this protocol (bad JSON, not an
    object, or a structurally invalid field)."""


class ServiceError(Exception):
    """A request the service answered with ``ok: false`` (the message
    is the server's ``error`` string), or a client-side failure to
    reach/keep a connection after retries."""


def encode(message: Dict[str, Any]) -> bytes:
    """One protocol line: the message as compact JSON + ``\\n``.

    ``schema_version`` is stamped in if absent, so every emitted line
    is self-describing.
    """
    if "schema_version" not in message:
        message = {"schema_version": PROTOCOL_VERSION, **message}
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode(line: Union[str, bytes]) -> Dict[str, Any]:
    """Parse one protocol line into a message dict.

    Raises :class:`ProtocolError` if the line is not a JSON object.
    Unknown keys and unknown (newer) ``schema_version`` values pass
    through untouched — tolerance is the reader's job.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"not a JSON line: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("message is not a JSON object")
    return message


def ok_response(**fields: Any) -> Dict[str, Any]:
    return {"schema_version": PROTOCOL_VERSION, "ok": True, **fields}


def error_response(message: str, **fields: Any) -> Dict[str, Any]:
    return {"schema_version": PROTOCOL_VERSION, "ok": False,
            "error": message, **fields}


def check_pairs(raw: Any) -> List[Pair]:
    """Validate a request's ``pairs`` field into ``[(workload, config)]``.

    Accepts a non-empty list of two-element ``[workload, config]``
    string lists (what JSON round-trips tuples into); anything else
    raises :class:`ProtocolError` naming the offending element.
    """
    if not isinstance(raw, list) or not raw:
        raise ProtocolError("'pairs' must be a non-empty list")
    pairs: List[Pair] = []
    for i, item in enumerate(raw):
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not all(isinstance(part, str) and part
                           for part in item)):
            raise ProtocolError(
                f"pairs[{i}] must be a [workload, config] pair of "
                f"non-empty strings, got {item!r}")
        pairs.append((item[0], item[1]))
    return pairs


# -- addresses ---------------------------------------------------------------

def parse_address(address: str) -> Tuple[str, Any]:
    """Parse a service address into ``("unix", path)`` or
    ``("tcp", (host, port))``.

    * ``unix:/path`` or anything containing a ``/`` → unix socket path;
    * ``tcp:host:port``, ``host:port`` or ``:port`` → TCP;
    * a bare integer → TCP on localhost.
    """
    address = address.strip()
    if not address:
        raise ProtocolError("empty service address")
    if address.startswith("unix:"):
        return "unix", address[len("unix:"):]
    if address.startswith("tcp:"):
        address = address[len("tcp:"):]
    elif "/" in address:
        return "unix", address
    if address.isdigit():
        return "tcp", ("127.0.0.1", int(address))
    host, sep, port = address.rpartition(":")
    if sep and port.isdigit():
        return "tcp", (host or "127.0.0.1", int(port))
    if not sep:
        return "tcp", (address, DEFAULT_PORT)
    raise ProtocolError(f"unparseable service address {address!r}")


def format_address(address: str) -> str:
    """Canonical display form of an address (used in log lines)."""
    kind, where = parse_address(address)
    if kind == "unix":
        return f"unix:{where}"
    host, port = where
    return f"tcp:{host}:{port}"
