"""Persistent storage: count cache, walk corpus files, artifacts, config.

The count cache is JSON lines, append-only, one count per line with a
CRC32 checksum; big integers travel as decimal strings so they stay
bit-exact.  Corpus files hold raw walks in a small binary format.
Artifacts are versioned (never overwritten) and deterministic, with
timestamps in a metadata sidecar.
"""

from __future__ import annotations

import csv
import datetime
import fcntl
import json
import os
import struct
import time
import warnings
import zlib
from dataclasses import dataclass, replace
from typing import Iterator

from .errors import BadMagicError, CorruptCacheWarning, TruncatedRecordError
from .lattice import Path, validate

CACHE_ENV_VAR = "SAWLAB_CACHE"


# ---------------------------------------------------------------------------
# advisory file lock


class FileLock:
    """Advisory single-writer lock: ``flock`` on the target file itself.

    The kernel drops the lock when its holder dies, so a killed writer
    leaves nothing behind that blocks the next one.
    """

    def __init__(self, target: str, timeout: float = 10.0):
        self.target = target
        self.timeout = timeout
        self._fd: int | None = None

    def __enter__(self):
        fd = os.open(self.target, os.O_RDWR | os.O_CREAT, 0o644)
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                self._fd = fd
                return self
            except BlockingIOError:
                if time.monotonic() > deadline:
                    os.close(fd)
                    raise TimeoutError(f"could not lock {self.target}")
                time.sleep(0.05)

    def __exit__(self, *exc):
        os.close(self._fd)  # closing the descriptor releases the lock
        self._fd = None
        return False


# ---------------------------------------------------------------------------
# count cache


def _canonical_key(key) -> object:
    """Canonical form of a count-table condition key: None, an int, or a
    tuple of these, so bytes, tuples and lists of equal ints give one key.
    Hashable, and JSON-serializable (tuples dump as lists)."""
    if key is None or isinstance(key, int):
        return key
    if isinstance(key, (bytes, tuple, list)):
        return tuple(_canonical_key(k) for k in key)
    raise TypeError(f"unsupported cache key component: {key!r}")


def _payload_crc(payload: dict) -> int:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(blob.encode())


class CountCache:
    """Read-through/write-through JSON-lines store for exact counts.

    Readers never lock: the file is append-only, so any reader sees a
    consistent prefix and skips a torn or corrupt final line (with a
    ``CorruptCacheWarning``).  Writers serialize on a ``FileLock``.
    """

    def __init__(self, path: str):
        self.path = path
        self._entries: dict[tuple, int] = {}
        if os.path.exists(path):
            self._load()

    @staticmethod
    def _memory_key(d: int, kind: str, n: int, key) -> tuple:
        return (d, kind, n, _canonical_key(key))

    def _load(self) -> None:
        with open(self.path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    if not isinstance(record, dict):
                        raise ValueError("not a JSON object")
                    crc = record.pop("crc")
                    if crc != _payload_crc(record):
                        raise ValueError("checksum mismatch")
                    mk = self._memory_key(record["d"], record["kind"],
                                          record["n"], record["key"])
                    self._entries[mk] = int(record["count"])
                except (ValueError, KeyError, TypeError):
                    warnings.warn(
                        f"{self.path}:{lineno}: skipping corrupt cache line",
                        CorruptCacheWarning,
                    )

    def get(self, d: int, kind: str, n: int, key=None) -> int | None:
        return self._entries.get(self._memory_key(d, kind, n, key))

    def put(self, d: int, kind: str, n: int, key, value: int) -> None:
        self.put_many(d, [(kind, n, key, value)])

    def put_many(self, d: int, entries) -> None:
        """Store (kind, n, key, value) entries of dimension ``d``, appending
        the lines of those not already held in one locked write."""
        lines = []
        for kind, n, key, value in entries:
            mk = self._memory_key(d, kind, n, key)
            if self._entries.get(mk) == value:
                continue
            self._entries[mk] = value
            payload = {
                "d": d,
                "kind": kind,
                "n": n,
                "key": _canonical_key(key),
                "count": str(value),
            }
            payload["crc"] = _payload_crc(payload)
            lines.append(json.dumps(payload, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        if not lines:
            return
        with FileLock(self.path):
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write("".join(lines))

    def __len__(self) -> int:
        return len(self._entries)


def resolve_cache_path(explicit: str | None = None) -> str | None:
    """Explicit path, else the SAWLAB_CACHE environment variable."""
    if explicit:
        return explicit
    return os.environ.get(CACHE_ENV_VAR) or None


# ---------------------------------------------------------------------------
# walk corpus (binary)

CORPUS_MAGIC = b"SAWC"
CORPUS_VERSION = 1
_HEADER = struct.Struct("<4sBQ")
_RECORD_HEAD = struct.Struct("<BI")


class CorpusWriter:
    """Streaming writer; the record count in the header is patched on close."""

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "wb")
        self._count = 0
        self._fh.write(_HEADER.pack(CORPUS_MAGIC, CORPUS_VERSION, 0))

    def write(self, walk: Path) -> None:
        self._fh.write(_RECORD_HEAD.pack(walk.dimension, len(walk)))
        self._fh.write(walk.steps)
        self._count += 1

    def close(self) -> None:
        if self._fh.closed:
            return
        self._fh.seek(0)
        self._fh.write(_HEADER.pack(CORPUS_MAGIC, CORPUS_VERSION, self._count))
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class CorpusReader:
    """Streaming reader; yields validated walks.

    Raises ``TruncatedRecordError`` on a short record, and on bytes past the
    header's record count, which a writer that died before ``close`` leaves.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "rb")
        header = self._fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            self._fh.close()
            raise BadMagicError(f"{path}: truncated header")
        magic, version, count = _HEADER.unpack(header)
        if magic != CORPUS_MAGIC:
            self._fh.close()
            raise BadMagicError(f"{path}: bad magic {magic!r}")
        self.version = version
        self.count = count

    def __iter__(self) -> Iterator[Path]:
        for _ in range(self.count):
            head = self._fh.read(_RECORD_HEAD.size)
            if len(head) < _RECORD_HEAD.size:
                raise TruncatedRecordError(f"{self.path}: truncated record header")
            dimension, length = _RECORD_HEAD.unpack(head)
            body = self._fh.read(length)
            if len(body) < length:
                raise TruncatedRecordError(f"{self.path}: truncated record body")
            yield validate(body, dimension)
        trailing = os.fstat(self._fh.fileno()).st_size - self._fh.tell()
        self._fh.close()
        if trailing:
            raise TruncatedRecordError(
                f"{self.path}: {trailing} bytes after {self.count} records")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# ---------------------------------------------------------------------------
# artifacts


class ArtifactWriter:
    """Versioned, append-only artifact files plus a timestamp sidecar.

    The main artifact is byte-deterministic for a given payload; volatile
    metadata goes to ``<name>.meta.json``: the wall-clock time, plus any
    ``meta`` mapping a write is given (run telemetry such as a sampler's
    per-level dimerization counts).
    """

    def __init__(self, outdir: str):
        self.outdir = outdir
        os.makedirs(outdir, exist_ok=True)

    def _versioned(self, stem: str, suffix: str) -> str:
        """Create the first free ``stem-NNNN`` file; exclusive creation gives
        concurrent writers distinct numbers."""
        for k in range(1, 10000):
            candidate = os.path.join(self.outdir, f"{stem}-{k:04d}{suffix}")
            try:
                os.close(os.open(candidate, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644))
                return candidate
            except FileExistsError:
                continue
        raise RuntimeError("too many artifact versions")

    def _sidecar(self, path: str, meta: dict | None = None) -> None:
        meta = {
            "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            **(meta or {}),
        }
        with open(path + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2)

    def write_json(self, stem: str, payload, meta: dict | None = None) -> str:
        path = self._versioned(stem, ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self._sidecar(path, meta)
        return path

    def write_jsonl(self, stem: str, records, meta: dict | None = None) -> str:
        path = self._versioned(stem, ".jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        self._sidecar(path, meta)
        return path

    def write_csv(self, stem: str, rows, meta: dict | None = None) -> str:
        path = self._versioned(stem, ".csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerows(rows)
        self._sidecar(path, meta)
        return path

    def reserve(self, stem: str, suffix: str) -> str:
        """Versioned path for a file the caller writes itself."""
        return self._versioned(stem, suffix)

    def finalize(self, path: str, meta: dict | None = None) -> None:
        """Write the metadata sidecar for a reserved path."""
        self._sidecar(path, meta)


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Budgets, seeding and paths for a command-line run.

    Read from a flat key=value config file (``load_config``); flags given
    on the command line override file values.  It holds no dimension:
    every command takes ``-d``.
    """

    seed: int = 0
    stream_id: int = 0
    workers: int = 1
    node_budget: int | None = None
    max_rejections: int = 10 ** 6
    max_matrix_paths: int = 20000
    base_length: int | None = None
    outdir: str = "artifacts"
    cache_path: str | None = None

    def __post_init__(self):
        for name in ("workers", "max_rejections", "max_matrix_paths"):
            if getattr(self, name) is not None and getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValueError("node_budget must be positive")

    def replace(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)


# a key outside these sections, such as the ``dimension`` of older files, is
# ignored
_CONFIG_SECTIONS = {
    "run": ("seed", "stream_id", "workers", "outdir"),
    "budgets": ("node_budget", "max_rejections", "max_matrix_paths"),
    "sampling": ("base_length",),
    "cache": ("cache_path",),
}
_INT_FIELDS = {"seed", "stream_id", "workers", "node_budget",
               "max_rejections", "max_matrix_paths", "base_length"}


def load_config(path: str) -> RunConfig:
    import configparser  # only --config reads one

    parser = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ValueError(f"bad config file {path}: {exc}") from exc
    values = {}
    for section, names in _CONFIG_SECTIONS.items():
        if not parser.has_section(section):
            continue
        for name in names:
            if parser.has_option(section, name):
                raw = parser.get(section, name)
                if raw == "":
                    values[name] = None
                elif name in _INT_FIELDS:
                    values[name] = int(raw)
                else:
                    values[name] = raw
    return RunConfig(**values)
