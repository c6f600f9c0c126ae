"""Length-prefixed, JSON-only socket framing for the campaign service.

Every connection of the service (:mod:`repro.netdebug.service`) — its
workers (:mod:`repro.netdebug.cluster`), its clients
(:mod:`repro.netdebug.client`) and the one-shot cluster launcher, which
is an ephemeral service — speaks one frame format:

* every frame is ``>IB`` (4-byte big-endian body length + 1 kind byte)
  followed by a JSON body. :data:`KIND_JSON` is the only kind; any
  other kind byte is refused as soon as the header is read, before the
  body is read, so no peer can get bytes into a deserializer that runs
  code;
* shard jobs travel as data through the :func:`encode_job` /
  :func:`decode_job` codec, and results as
  :meth:`~repro.netdebug.campaign.ScenarioResult.to_dict` JSON;
* with a secret (an explicit key or ``REPRO_SERVICE_SECRET``) every
  frame in both directions carries a :class:`FrameAuth` tag —
  HMAC-SHA256 over a per-direction sequence number, the kind byte and
  the body — so a stray or malicious peer can neither forge nor replay
  frames.

:func:`recv_message` returns ``None`` on a clean EOF at a frame
boundary and raises :class:`ClusterError` on a truncated frame, a
foreign kind byte, a failed tag, or a body over
:data:`MAX_FRAME_BYTES` — a corrupted length prefix must fail loudly,
not allocate 4 GiB.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
import json
import os
import socket
import struct
import threading

from ..exceptions import ClusterError
from ..target.artifact_cache import CACHE_VERSION
from ..target.device import CAMPAIGN_ENGINE

__all__ = [
    "MAX_FRAME_BYTES",
    "KIND_JSON",
    "SECRET_ENV",
    "TAG_BYTES",
    "FrameAuth",
    "resolve_secret",
    "send_message",
    "recv_message",
    "encode_job",
    "decode_job",
    "stamp_cache_version",
    "require_cache_version",
    "Channel",
]

#: Upper bound on one frame body; a campaign result with full latency
#: samples is a few MiB at most, so anything near this is corruption.
MAX_FRAME_BYTES = 1 << 28

_HEADER = struct.Struct(">IB")

KIND_JSON = 0x4A  # "J"

#: Environment variable the service's frame-authentication key comes
#: from. Any non-empty byte string works; both ends must agree.
SECRET_ENV = "REPRO_SERVICE_SECRET"

#: HMAC-SHA256 digest appended to every authenticated frame body.
TAG_BYTES = 32


def resolve_secret(secret: str | bytes | None = None) -> bytes | None:
    """The frame-authentication key: an explicit value, else the
    :data:`SECRET_ENV` environment variable, else ``None`` (no auth)."""
    if secret is None:
        secret = os.environ.get(SECRET_ENV) or None
    if secret is None:
        return None
    if isinstance(secret, str):
        secret = secret.encode()
    if not secret:
        raise ClusterError("frame-authentication secret must be non-empty")
    return secret


class FrameAuth:
    """HMAC-SHA256 frame authentication for one direction of a channel.

    The tag covers the 8-byte big-endian **sequence number**, the kind
    byte and the body. The sequence number is implicit — each side
    counts the frames it has sent/received on the connection — so a
    captured frame re-sent later (a replay) fails verification even
    though its bytes are exactly what the peer once accepted: the
    receiver's counter has moved on.
    """

    def __init__(self, secret: str | bytes):
        secret = resolve_secret(secret)
        if secret is None:
            raise ClusterError("FrameAuth requires a secret")
        self._secret = secret

    def tag(self, seq: int, kind: int, body: bytes) -> bytes:
        message = seq.to_bytes(8, "big") + bytes([kind]) + body
        return hmac_mod.new(
            self._secret, message, hashlib.sha256
        ).digest()

    def verify(
        self, seq: int, kind: int, body: bytes, tag: bytes
    ) -> bool:
        return hmac_mod.compare_digest(self.tag(seq, kind, body), tag)


def stamp_cache_version(message: dict) -> dict:
    """Stamp a shard job frame with the artifact-cache format version.

    A worker running an older build would decode a job into mismatched
    scenario and artifact shapes and fail obscurely mid-shard. Stamping
    the :data:`~repro.target.artifact_cache.CACHE_VERSION` into the
    frame lets :func:`require_cache_version` reject the skew up front.
    """
    message["cache_version"] = CACHE_VERSION
    return message


def require_cache_version(message: dict) -> None:
    """Reject a job frame whose artifact-cache version does not match.

    Raises :class:`ClusterError` when the stamp is missing (coordinator
    predates the stamp) or differs (stale worker): fail fast with the
    skew named, instead of decoding mismatched artifacts.
    """
    stamped = message.get("cache_version")
    if stamped != CACHE_VERSION:
        raise ClusterError(
            f"shard job frame carries artifact-cache version {stamped!r} "
            f"but this worker speaks version {CACHE_VERSION}; coordinator "
            "and worker builds are skewed — upgrade the stale side before "
            "dispatching shards"
        )


def _recv_exact(sock: socket.socket, size: int) -> bytes | None:
    """Read exactly ``size`` bytes; ``None`` on immediate clean EOF.

    EOF *inside* the span is a truncated frame and raises — the peer
    died mid-send and the stream can never resynchronize.
    """
    chunks: list[bytes] = []
    remaining = size
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if not chunks:
                return None
            raise ClusterError(
                f"connection closed mid-frame ({size - remaining} of "
                f"{size} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_message(
    sock: socket.socket,
    message: dict,
    binary: bool = False,
    auth: FrameAuth | None = None,
    seq: int = 0,
) -> None:
    """Send one JSON frame.

    With ``auth`` set the frame body is followed by the
    :data:`TAG_BYTES`-byte HMAC tag over (``seq``, kind, body); ``seq``
    must be this connection's send counter for the tag to verify.
    ``binary`` survives only so callers and wrappers written against
    the old signature keep working: it must be false, since the wire
    has no binary frame kind.
    """
    if binary:
        raise ClusterError("the wire carries JSON frames only")
    body = json.dumps(message).encode()
    if auth is not None:
        body = body + auth.tag(seq, KIND_JSON, body)
    if len(body) > MAX_FRAME_BYTES:
        raise ClusterError(
            f"refusing to send a {len(body)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )
    sock.sendall(_HEADER.pack(len(body), KIND_JSON) + body)


def recv_message(
    sock: socket.socket,
    auth: FrameAuth | None = None,
    seq: int = 0,
) -> dict | None:
    """Receive one JSON frame; ``None`` on clean EOF.

    A frame whose kind byte is not :data:`KIND_JSON` is refused from
    its header alone: its body is never read, let alone decoded. With
    ``auth`` set the frame must end in a valid HMAC tag for ``seq``
    (this connection's receive counter); verification happens
    **before** the body is parsed, so unauthenticated bytes never reach
    the JSON decoder.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    length, kind = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ClusterError(
            f"frame length {length} exceeds limit {MAX_FRAME_BYTES}; "
            "corrupted length prefix?"
        )
    if kind != KIND_JSON:
        raise ClusterError(
            f"refusing frame kind byte {kind:#x}: only JSON frames are "
            "accepted"
        )
    body = _recv_exact(sock, length) if length else b""
    if body is None:
        raise ClusterError("connection closed between header and body")
    if auth is not None:
        if len(body) < TAG_BYTES:
            raise ClusterError(
                f"frame too short to carry an authentication tag "
                f"({len(body)} bytes < {TAG_BYTES}); unauthenticated "
                "or truncated peer"
            )
        body, tag = body[:-TAG_BYTES], body[-TAG_BYTES:]
        if not auth.verify(seq, kind, body, tag):
            raise ClusterError(
                f"frame authentication failed at sequence {seq}: bad "
                "key, tampered body, or a replayed frame"
            )
    try:
        message = json.loads(body)
    except ValueError as exc:
        raise ClusterError(f"undecodable JSON frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ClusterError(
            f"protocol messages must be dicts, got {type(message).__name__}"
        )
    return message


def encode_job(
    scenario,
    faults,
    engine: str = CAMPAIGN_ENGINE,
    record: bool = False,
    oracle: str | None = None,
) -> dict:
    """One ``run`` shard job as a JSON payload.

    The inverse of :func:`decode_job`. Scenario and fault objects go
    through the declarative campaign codec
    (:func:`repro.netdebug.campaign.scenario_to_dict` /
    ``fault_to_dict``), which refuses predicate-carrying faults — a job
    frame must never need code to deserialize. ``record`` asks the
    worker to return the cell's regression suite with the result.
    ``oracle`` overrides the scenario's named oracle with another
    :data:`~repro.netdebug.oracle.ORACLES` entry, by name: no factory
    object ever crosses the wire.
    """
    from .campaign import fault_to_dict, scenario_to_dict

    payload = {
        "scenario": scenario_to_dict(scenario),
        "faults": [fault_to_dict(fault) for fault in faults],
        "engine": engine,
    }
    if record:
        payload["record"] = True
    if oracle is not None:
        payload["oracle"] = oracle
    return payload


def decode_job(payload: dict) -> tuple:
    """Rebuild a :func:`repro.netdebug.campaign._run_shard` job tuple
    from its :func:`encode_job` payload."""
    from .campaign import fault_from_dict, scenario_from_dict
    from .oracle import ORACLES

    try:
        oracle = payload.get("oracle")
        return (
            scenario_from_dict(payload["scenario"]),
            tuple(fault_from_dict(f) for f in payload["faults"]),
            bool(payload.get("record", False)),
            payload.get("engine", CAMPAIGN_ENGINE),
            ORACLES[oracle] if oracle is not None else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ClusterError(
            f"malformed JSON job payload: {exc!r}"
        ) from exc


class Channel:
    """A message channel over one connected socket.

    Sends are serialized by a lock, so the service's scheduler and
    receiver threads can both write to one worker connection; receives
    are expected from a single thread. ``TCP_NODELAY`` is set on TCP
    sockets: the protocol is request/response with small frames (an
    ack followed by the next job), and Nagle's algorithm would hold the
    second frame until the peer's delayed ACK.

    With ``secret`` set every frame in both directions is HMAC-
    authenticated (:class:`FrameAuth`); the per-direction sequence
    counters live here, one pair per connection, which is what gives
    replayed frames a stale sequence number.
    """

    def __init__(
        self, sock: socket.socket, secret: str | bytes | None = None
    ):
        self._sock = sock
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (e.g. an AF_UNIX socketpair)
        self._send_lock = threading.Lock()
        self._auth = FrameAuth(secret) if secret is not None else None
        self._send_seq = 0
        self._recv_seq = 0

    def send(self, message: dict) -> None:
        with self._send_lock:
            send_message(
                self._sock, message, auth=self._auth, seq=self._send_seq
            )
            self._send_seq += 1

    def recv(self) -> dict | None:
        message = recv_message(
            self._sock, auth=self._auth, seq=self._recv_seq
        )
        if message is not None:
            self._recv_seq += 1
        return message

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
