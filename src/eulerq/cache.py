"""Persistent text cache with per-entry checksums.

Entries are small JSON files named by a digest of their key (kind,
parameters, basis, value cap).  The payload is a canonical text rendering
that re-parses to the cached value.  A format tag and a sha256 checksum
guard against layout drift and corruption: anything that fails validation
is treated as missing, so callers recompute and overwrite instead of
trusting a bad file.  Writers hold a per-key lock and land the file with an
atomic replace, which keeps concurrent readers safe without read locks.
"""

import hashlib
import json
import os

FORMAT_TAG = "eulerq-cache-1"
ENV_VAR = "EULERQ_CACHE_DIR"


def default_cache_dir():
    return os.environ.get(ENV_VAR) or os.path.join(
        os.path.expanduser("~"), ".cache", "eulerq")


def _checksum(payload):
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CacheEntry:
    """A cached rendering plus the key fields identifying it."""

    __slots__ = ("kind", "params", "basis", "cap", "payload")

    def __init__(self, kind, params, basis, cap, payload):
        self.kind = kind
        self.params = list(params)
        self.basis = basis
        self.cap = cap
        self.payload = payload

    def key(self):
        return [self.kind, self.params, self.basis, self.cap]

    def digest(self):
        blob = json.dumps(self.key(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]

    def filename(self):
        return f"{self.kind}-{self.digest()}.json"

    def to_jsonable(self):
        return {
            "format": FORMAT_TAG,
            "kind": self.kind,
            "params": self.params,
            "basis": self.basis,
            "cap": self.cap,
            "payload": self.payload,
            "checksum": _checksum(self.payload),
        }


def entry_key(kind, params, basis=None, cap=None):
    return CacheEntry(kind, params, basis, cap, "")


def store(directory, entry):
    """Write an entry atomically under a per-key exclusive lock."""
    # only a writer needs these, so a read loads neither
    import fcntl
    import tempfile
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, entry.filename())
    text = json.dumps(entry.to_jsonable(), sort_keys=True, indent=1) + "\n"
    with open(path + ".lock", "w") as lockf:
        fcntl.flock(lockf, fcntl.LOCK_EX)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return path


def _validate(data, kind, params, basis, cap):
    if not isinstance(data, dict) or data.get("format") != FORMAT_TAG:
        return None
    if (data.get("kind"), data.get("params"), data.get("basis"),
            data.get("cap")) != (kind, list(params), basis, cap):
        return None
    payload = data.get("payload")
    if not isinstance(payload, str):
        return None
    if data.get("checksum") != _checksum(payload):
        return None
    return payload


def load(directory, kind, params, basis=None, cap=None):
    """The cached payload, or None when absent or invalid."""
    path = os.path.join(directory, entry_key(kind, params, basis, cap).filename())
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    return _validate(data, kind, params, basis, cap)


def fetch(directory, kind, params, basis, cap, compute):
    """Cached payload if valid, else compute(), store, and return fresh.  A
    store that cannot be written still returns the fresh payload."""
    hit = load(directory, kind, params, basis, cap)
    if hit is not None:
        return hit, True
    payload = compute()
    try:
        store(directory, CacheEntry(kind, params, basis, cap, payload))
    except OSError:
        pass
    return payload, False


def list_entries(directory):
    """Sorted (kind, params, basis, cap, valid) tuples for every cache file."""
    out = []
    if not os.path.isdir(directory):
        return out
    for name in os.listdir(directory):
        if not name.endswith(".json"):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            out.append((name, None, None, None, False))
            continue
        ok = (isinstance(data, dict) and data.get("format") == FORMAT_TAG
              and isinstance(data.get("payload"), str)
              and data.get("checksum") == _checksum(data["payload"]))
        out.append((data.get("kind"), data.get("params"), data.get("basis"),
                    data.get("cap"), ok) if isinstance(data, dict)
                   else (name, None, None, None, False))
    out.sort(key=lambda row: json.dumps(row[:4], sort_keys=True, default=str))
    return out


def clear(directory):
    """Remove every cache file; the number removed."""
    removed = 0
    if not os.path.isdir(directory):
        return removed
    for name in os.listdir(directory):
        if name.endswith(".json") or name.endswith(".lock") or name.endswith(".tmp"):
            os.unlink(os.path.join(directory, name))
            if name.endswith(".json"):
                removed += 1
    return removed
