"""Persistent on-disk cache of compiled program artifacts.

Campaign workers, cluster fleets and ``replay_campaign`` all compile
the same handful of programs over and over — once per (program,
target, setup) per process. The batch kernel's generated, ``exec``'d
functions cannot be pickled, but everything *around* them can:
diagnostics, deviation model, resource estimates, and — crucially —
the program IR with its installed table entries. This module stores
that picklable core and rebuilds the kernel on load, which is much
cheaper than a full ``TargetCompiler.compile`` (no validation, limit
checking or resource fitting).

Layout and keying
-----------------

Artifacts live as ``<key>.pkl`` under a cache directory resolved from
the ``REPRO_COMPILE_CACHE`` environment variable (a path, or one of
``off`` / ``0`` / ``none`` / ``disabled`` to disable caching), falling
back to ``~/.cache/repro-target``. The key is a SHA-256 over:

* a canonical recursive serialization of the *pre-provisioning*
  program IR (dataclass fields in declaration order, dict items
  sorted, enums by value) — so any program edit changes the key;
* the target name and the ``repr`` of its
  :class:`~repro.target.limits.DeviationModel` (``compiler.model``);
* a caller-supplied extra tag (campaigns use the setup label, since
  provisioned table entries are stored inside the artifact);
* :data:`CACHE_VERSION` and the interpreter version.

Corruption tolerance: a load that fails for *any* reason (truncated
pickle, stale format, version or key mismatch) counts as a miss and
deletes the offending file. Stores are atomic (temp file + rename) so
concurrent workers can share one cache directory.

Campaign shards put an in-process tier in front of this one, keyed by
the same :func:`fingerprint` (see
:func:`repro.netdebug.campaign._shard_device`); its reuses count as
``memory_hits``.

Hit/miss counters are module-global; campaign shards snapshot them
around device acquisition and surface the deltas in
``CampaignReport.meta["compile_cache"]`` and ``BENCH_perf.json``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
import sys
import tempfile
from pathlib import Path

from .batch import BatchProgram
from .compiler import CompiledProgram, TargetCompiler

__all__ = [
    "CACHE_VERSION",
    "ArtifactCache",
    "FingerprintError",
    "fingerprint",
    "get_artifact_cache",
    "record_memory_hit",
    "stats_delta",
    "stats_snapshot",
]

#: Bump when the on-disk artifact format changes. Also stamped into
#: cluster job frames so a stale worker fails fast (see transport.py).
CACHE_VERSION = 4

_ENV_VAR = "REPRO_COMPILE_CACHE"
_DISABLED = {"off", "0", "none", "disabled"}

_STATS = {"hits": 0, "misses": 0, "stores": 0, "memory_hits": 0}


class FingerprintError(ValueError):
    """The program IR contains something we cannot canonicalize."""


def stats_snapshot() -> dict[str, int]:
    """Copy of the process-wide cache counters."""
    return dict(_STATS)


def stats_delta(before: dict[str, int]) -> dict[str, int]:
    """Counter movement since ``before`` (a prior snapshot)."""
    return {key: _STATS[key] - before.get(key, 0) for key in _STATS}


def record_memory_hit() -> None:
    """Count an in-process artifact reuse (no disk involved)."""
    _STATS["memory_hits"] += 1


def _canonical(node, out: list) -> None:
    """Append a deterministic token stream for ``node`` to ``out``."""
    if node is None or isinstance(node, (bool, int, str, bytes, float)):
        out.append(repr(node))
    elif isinstance(node, enum.Enum):
        out.append(f"E:{type(node).__name__}:{node.value!r}")
    elif dataclasses.is_dataclass(node) and not isinstance(node, type):
        out.append(f"D:{type(node).__name__}(")
        for f in dataclasses.fields(node):
            out.append(f.name + "=")
            _canonical(getattr(node, f.name), out)
        out.append(")")
    elif isinstance(node, dict):
        out.append("{")
        for key in sorted(node, key=repr):
            _canonical(key, out)
            out.append(":")
            _canonical(node[key], out)
        out.append("}")
    elif isinstance(node, (list, tuple)):
        out.append("[")
        for item in node:
            _canonical(item, out)
        out.append("]")
    elif isinstance(node, (set, frozenset)):
        out.append("s[")
        for item in sorted(node, key=repr):
            _canonical(item, out)
        out.append("]")
    else:
        raise FingerprintError(
            f"cannot canonicalize {type(node).__name__} in program IR"
        )


def fingerprint(program, compiler: TargetCompiler, extra: str = "") -> str:
    """Content fingerprint of ``program`` compiled by ``compiler``.

    The key of both the on-disk tier (``<key>.pkl``) and the campaign's
    in-process artifact tier, so it needs no cache directory. Raises
    :class:`FingerprintError` when the IR cannot be canonicalized;
    callers should treat that program as uncacheable.
    """
    tokens: list = [
        f"v{CACHE_VERSION}",
        f"py{sys.version_info[0]}.{sys.version_info[1]}",
        compiler.limits.name,
        repr(compiler.model),
        extra,
        "|",
    ]
    _canonical(program, tokens)
    return hashlib.sha256("\x1f".join(tokens).encode()).hexdigest()


class ArtifactCache:
    """One cache directory holding versioned compiled artifacts."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------
    def key_for(
        self, program, compiler: TargetCompiler, extra: str = ""
    ) -> str:
        """Cache key for ``program`` compiled by ``compiler`` (see
        :func:`fingerprint`)."""
        return fingerprint(program, compiler, extra)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    # ------------------------------------------------------------------
    # Load / store
    # ------------------------------------------------------------------
    def load(
        self, key: str, compiler: TargetCompiler
    ) -> CompiledProgram | None:
        """Load the artifact for ``key``, rebuilding its kernel.

        Any failure — missing file, truncated pickle, version or key
        mismatch — is a miss; corrupt files are deleted so they cannot
        poison later runs.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            if (
                payload["version"] != CACHE_VERSION
                or payload["key"] != key
            ):
                raise ValueError("stale cache entry")
            compiled: CompiledProgram = payload["artifact"]
            if compiled.target_name != compiler.limits.name:
                raise ValueError("artifact/target mismatch")
            compiled.kernel = BatchProgram(
                compiled.program, compiler.limits, compiled.model
            )
        except FileNotFoundError:
            _STATS["misses"] += 1
            return None
        except Exception:
            _STATS["misses"] += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        _STATS["hits"] += 1
        return compiled

    def store(self, key: str, compiled: CompiledProgram) -> None:
        """Persist ``compiled`` under ``key`` (atomic, best-effort)."""
        payload = {
            "version": CACHE_VERSION,
            "key": key,
            # The kernel cannot pickle; it is rebuilt on load.
            "artifact": dataclasses.replace(
                compiled, kernel=None, spec=None
            ),
        }
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(payload, fh)
                os.replace(tmp, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            # A read-only or full cache directory must never fail the
            # run; the artifact simply is not persisted.
            return
        _STATS["stores"] += 1


def get_artifact_cache() -> ArtifactCache | None:
    """The configured cache, or ``None`` when caching is disabled."""
    raw = os.environ.get(_ENV_VAR)
    if raw is not None:
        if raw.strip().lower() in _DISABLED:
            return None
        return ArtifactCache(Path(raw))
    return ArtifactCache(Path.home() / ".cache" / "repro-target")
