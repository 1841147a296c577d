"""Content-addressed on-disk cache for experiment results.

A result is addressed by the SHA-256 of the canonical JSON of::

    {"version": <repro package version>,
     "spec":    <experiment name>,
     "params":  <validated parameters, tuples normalized to lists>}

so a parameter change or a package-version bump is automatically a
miss — there is nothing to invalidate by hand.  Stored payloads are the
``to_json()`` form of the result (the shared round-trip contract), one
file per key under ``<root>/<spec>/<hash>.json``.

The default root is ``$REPRO_CACHE_DIR``, else
``$XDG_CACHE_HOME/repro-experiments``, else
``~/.cache/repro-experiments``.  A cache is always safe to delete.

Concurrent writers are safe: every ``store`` writes to a **unique**
temp file in the target directory and publishes with an atomic
``os.replace``, so two clients computing the same point never
interleave partial JSON — last writer wins, and every reader sees a
whole envelope.  Each envelope additionally carries the SHA-256 of its
result payload; ``load`` re-hashes on read and treats a mismatch
(bit-rot, a torn copy from outside the atomic path) as a miss,
deleting the bad file.

``gc(max_bytes)`` keeps the cache size-capped: entries are evicted
least-recently-used first (a hit refreshes the file's mtime), oldest
until the total is back under the cap.  The service daemon runs this
after stores; it is also safe to call from anywhere.

The key deliberately does **not** hash source code: within one package
version, editing an experiment module and re-running will hit stale
entries.  ``--refresh`` (recompute and overwrite) and ``--no-cache``
exist for exactly that loop; bump the package version to invalidate
globally.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro._version import __version__
from repro.experiments.registry import ExperimentSpec
from repro.experiments.serde import canonical_json

__all__ = ["ResultCache", "GCReport", "default_cache_root"]


def default_cache_root() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-experiments"


@dataclass
class GCReport:
    """What one :meth:`ResultCache.gc` pass did."""

    scanned: int = 0
    evicted: int = 0
    bytes_before: int = 0
    bytes_after: int = 0
    evicted_paths: list = field(default_factory=list)


class ResultCache:
    """Load/store experiment results keyed by (version, spec, params)."""

    #: per-process counter feeding unique temp names
    _tmp_seq = itertools.count()

    def __init__(self, root: str | Path | None = None, *, version: str | None = None):
        self.root = Path(root) if root is not None else default_cache_root()
        # the source's own version, never installed-distribution metadata:
        # a stale `pip install -e` record once keyed CI's cache by a
        # version the source had already left
        self.version = version if version is not None else __version__
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.integrity_failures = 0

    # -- addressing ------------------------------------------------------
    def key(self, spec: ExperimentSpec, params: dict[str, Any]) -> str:
        payload = {"version": self.version, "spec": spec.name, "params": params}
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    def path(self, spec: ExperimentSpec, params: dict[str, Any]) -> Path:
        return self.root / spec.name / f"{self.key(spec, params)}.json"

    @staticmethod
    def _result_sha(payload: Any) -> str:
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    @classmethod
    def _tmp_path(cls, path: Path) -> Path:
        """A temp name no concurrent writer can share: pid + per-process
        counter.  (The old shared ``<key>.tmp`` let two writers
        interleave partial JSON before the rename.)"""
        return path.with_name(
            f"{path.stem}.{os.getpid()}.{next(cls._tmp_seq)}.tmp"
        )

    # -- load/store ------------------------------------------------------
    def load(self, spec: ExperimentSpec, params: dict[str, Any]) -> Any | None:
        """The cached result, or None on miss (absent, corrupt or failed
        integrity re-hash)."""
        entry = self.load_entry(spec, params)
        return None if entry is None else entry[0]

    def load_entry(
        self, spec: ExperimentSpec, params: dict[str, Any]
    ) -> tuple[Any, Any] | None:
        """``(result, payload)`` — the decoded result and the stored
        ``to_json()`` form it was decoded from — or None on miss, counted
        as :meth:`load` counts it.  A caller that needs both does not
        re-encode what it just read."""
        path = self.path(spec, params)
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
            payload = envelope["result"]
            stored_sha = envelope.get("sha256")
            if stored_sha is not None and stored_sha != self._result_sha(payload):
                self.integrity_failures += 1
                self.misses += 1
                try:
                    path.unlink()
                except OSError:
                    pass
                return None
            result = spec.result_from_json(payload)
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        try:  # refresh mtime: the LRU clock gc() evicts by
            os.utime(path)
        except OSError:
            pass
        return result, payload

    def store(self, spec: ExperimentSpec, params: dict[str, Any], result: Any) -> Path:
        """Write the result; returns the path."""
        return self._store_payload(spec, params, result.to_json())

    def _store_payload(
        self, spec: ExperimentSpec, params: dict[str, Any], payload: Any
    ) -> Path:
        """:meth:`store` for a result already encoded: the job queue
        encodes each executed result once, for the cache and the job."""
        path = self.path(spec, params)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "version": self.version,
            "spec": spec.name,
            "params": json.loads(canonical_json(params)),
            "sha256": self._result_sha(payload),
            "result": payload,
        }
        tmp = self._tmp_path(path)
        tmp.write_text(json.dumps(envelope, indent=None), encoding="utf-8")
        os.replace(tmp, path)  # atomic: concurrent runners never see half a file
        self.stores += 1
        return path

    # -- eviction --------------------------------------------------------
    def size_bytes(self) -> int:
        """Total bytes of every cached envelope under the root."""
        return sum(st.st_size for _, st in self._entries())

    def _entries(self) -> list[tuple[Path, os.stat_result]]:
        out = []
        if not self.root.is_dir():
            return out
        for path in self.root.glob("*/*.json"):
            try:
                out.append((path, path.stat()))
            except OSError:
                continue
        return out

    def gc(self, max_bytes: int) -> GCReport:
        """Evict least-recently-used envelopes until the cache is at or
        under ``max_bytes``.  Stale temp files are always removed."""
        for tmp in self.root.glob("*/*.tmp") if self.root.is_dir() else ():
            try:
                tmp.unlink()
            except OSError:
                pass
        entries = self._entries()
        report = GCReport(
            scanned=len(entries),
            bytes_before=sum(st.st_size for _, st in entries),
        )
        report.bytes_after = report.bytes_before
        # oldest mtime first; path breaks ties so eviction is deterministic
        entries.sort(key=lambda e: (e[1].st_mtime, str(e[0])))
        for path, st in entries:
            if report.bytes_after <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            report.evicted += 1
            report.bytes_after -= st.st_size
            report.evicted_paths.append(path)
        return report
