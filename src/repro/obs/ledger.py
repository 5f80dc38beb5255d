"""Append-only, content-addressed run ledger.

Every sweep/fuzz/run invocation appends one JSONL record to the
ledger, keyed by the **canonical SHA-256 of its request** — the same
canonicalize-then-hash discipline as :func:`repro.sim.sweep.derive_seed`
(there over a seed path string, here over a canonical-JSON request
object).  The request deliberately contains only what determines the
*result* (program/test identity, model, techniques, seeds, oracle
configuration) and not execution shape (``--jobs``, chunk size), so the
hash is exactly the key a future content-addressed result cache would
look up: two invocations with the same hash must produce the same
outcome, and a repeated hash in the ledger is a **dedupe hit** — work
the cache could have skipped.  ``ledger stats`` reports that hit rate
today, sizing the cache's win before it exists.

Records carry provenance (git sha, host, schema version, UTC stamp),
an outcome digest, throughput (wall seconds, items, items/s), and
artifact paths, so ``python -m repro.obs ledger list|show|stats|
trajectory`` can answer fleet-level questions — what ran, at what
throughput, trending which way — from the ledger alone.

The file format is JSONL because append is atomic enough for the
single-host case (one ``write()`` of one line) and the reader is
tolerant: unparseable or schema-invalid lines are counted and skipped,
never fatal, so a torn write cannot poison the history.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import threading
from datetime import datetime, timezone
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: bump when the record layout changes incompatibly
LEDGER_SCHEMA = "repro-ledger/1"

#: record kinds the CLI offers as ``--kind`` filters; records of any
#: other kind (an old ledger's ``"bench"``) still read and summarize
KNOWN_KINDS = ("fuzz", "sweep", "run", "breakdown", "serve")

#: default ledger location, relative to the working directory;
#: overridable with the REPRO_LEDGER environment variable
DEFAULT_LEDGER = os.path.join(".repro", "ledger.jsonl")

#: elapsed times below this are treated as zero in rate divisions
_MIN_WALL = 1e-9


def default_ledger_path() -> str:
    return os.environ.get("REPRO_LEDGER") or DEFAULT_LEDGER


def _canonicalize(obj: object) -> object:
    """Map non-finite floats to explicit string sentinels.

    ``json.dumps(allow_nan=False)`` raises on NaN/Infinity, and the
    permissive default emits bare ``NaN`` tokens that are not JSON at
    all — either way a single non-finite gauge (a NaN utilization on a
    zero-worker run, say) would kill the ledger append and any
    server-side request hashing built on it.  Canonicalization instead
    rewrites them to ``"NaN"`` / ``"Infinity"`` / ``"-Infinity"``:
    deterministic, round-trippable strings, so the hash stays stable
    and the write path always produces valid JSON.
    """
    if isinstance(obj, float):
        if math.isnan(obj):
            return "NaN"
        if math.isinf(obj):
            return "Infinity" if obj > 0 else "-Infinity"
        return obj
    if isinstance(obj, dict):
        return {key: _canonicalize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonicalize(value) for value in obj]
    return obj


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                           allow_nan=False).encode


def canonical_json(obj: object) -> str:
    """The canonical serialization the request hash is defined over:
    sorted keys, no whitespace, non-finite floats as string sentinels
    (see :func:`_canonicalize`)."""
    try:
        return _encode(obj)
    except ValueError:
        # a non-finite float somewhere inside: the one input the
        # encoder refuses and the only one the rewrite changes
        return _encode(_canonicalize(obj))


def request_hash(request: Mapping[str, object]) -> str:
    """SHA-256 hex digest of the canonical request serialization."""
    return hashlib.sha256(canonical_json(request).encode()).hexdigest()


def digest_outcome(outcome: Mapping[str, object]) -> str:
    """Short content digest of an outcome summary (for quick equality
    checks across ledger records sharing a request hash)."""
    return hashlib.sha256(canonical_json(outcome).encode()).hexdigest()[:16]


#: memoized (found, sha) — a server appending one record per request
#: must not pay a ``git rev-parse`` subprocess per request
_GIT_SHA_CACHE: Optional[Tuple[Optional[str]]] = None


def _git_sha() -> Optional[str]:
    global _GIT_SHA_CACHE
    if _GIT_SHA_CACHE is None:
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            sha = out.stdout.strip() if out.returncode == 0 else ""
        except (OSError, subprocess.SubprocessError):  # pragma: no cover
            sha = ""
        _GIT_SHA_CACHE = (sha or None,)
    return _GIT_SHA_CACHE[0]


#: what the platform module answers is fixed for the life of a process
_HOST_INFO: Optional[Dict[str, object]] = None


def _host_info() -> Dict[str, object]:
    """This host, asked once per process; every caller gets a dict of
    its own, so a record that edits its ``host`` edits no other."""
    global _HOST_INFO
    if _HOST_INFO is None:
        _HOST_INFO = {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count() or 0,
        }
    return dict(_HOST_INFO)


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def make_record(kind: str,
                request: Mapping[str, object],
                outcome: Mapping[str, object],
                wall_seconds: float,
                items: int = 0,
                artifacts: Optional[Mapping[str, str]] = None,
                ) -> Dict[str, object]:
    """Assemble one schema-versioned ledger record.

    ``request`` must already be canonicalizable JSON (plain dicts,
    lists, strings, numbers); ``outcome`` is a small summary of what
    happened (counts, exit status, digests) — never bulk data.
    """
    if not isinstance(kind, str) or not kind:
        raise ValueError(f"kind must be a non-empty string, got {kind!r}")
    wall = max(0.0, float(wall_seconds))
    record: Dict[str, object] = {
        "schema": LEDGER_SCHEMA,
        "kind": kind,
        "request_sha256": request_hash(request),
        "request": dict(request),
        "outcome": dict(outcome),
        "outcome_digest": digest_outcome(outcome),
        "created_utc": utc_timestamp(),
        "git_sha": _git_sha(),
        "host": _host_info(),
        "wall_seconds": round(wall, 6),
        "items": int(items),
        "items_per_second": round(items / wall, 3) if wall > _MIN_WALL else 0.0,
    }
    if artifacts:
        record["artifacts"] = dict(artifacts)
    return record


#: how many append descriptors a process holds open at most
_MAX_HELD = 8

#: path -> (descriptor, its ``(st_dev, st_ino)``), oldest first
_held: Dict[str, Tuple[int, Tuple[int, int]]] = {}

#: appenders may be threads: looking a descriptor up, dropping one and
#: writing through one must not interleave with a close
_held_lock = threading.Lock()


def _fresh_lock_in_child() -> None:
    # a fork while another thread is mid-append copies the lock held;
    # the descriptors themselves are as good in the child
    global _held_lock
    _held_lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock_in_child)


def _held_descriptor(path: str) -> int:
    """The ``O_APPEND`` descriptor for ``path``, opened on first use and
    kept.  One ``os.stat`` per call checks that the path still names
    the file the descriptor has open; after an unlink, a rename or a
    replacement (log rotation) it does not, and the path is opened
    afresh, parents and all, so the line lands where a reader of
    ``path`` will look.  Call with :data:`_held_lock` held."""
    held = _held.get(path)
    if held is not None:
        try:
            st = os.stat(path)
            if (st.st_dev, st.st_ino) == held[1]:
                return held[0]
        except FileNotFoundError:
            pass
        del _held[path]
        os.close(held[0])
    elif len(_held) >= _MAX_HELD:
        os.close(_held.pop(next(iter(_held)))[0])
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    st = os.fstat(fd)
    _held[path] = (fd, (st.st_dev, st.st_ino))
    return fd


def append_jsonl(obj: object, path: str) -> str:
    """Append one object as one JSONL line with a single ``os.write``.

    The file is opened ``O_APPEND`` and the whole line (including the
    trailing newline) goes down in one ``write(2)``, so concurrent
    appenders — a server handling many requests, parallel campaigns
    sharing one ledger — never interleave mid-line.  A buffered
    ``fh.write`` gives no such guarantee: the stdio layer may flush a
    line in several syscalls, and two processes' fragments can then
    interleave into garbage the tolerant reader has to skip.

    The descriptor stays open between appends (at most
    :data:`_MAX_HELD` per process, see :func:`_held_descriptor`): a
    server that logs two lines per request must not pay two
    ``makedirs`` + ``open`` + ``close`` for them.
    """
    data = (canonical_json(obj) + "\n").encode()
    with _held_lock:
        os.write(_held_descriptor(path), data)
    return path


def append_record(record: Mapping[str, object],
                  path: Optional[str] = None) -> str:
    """Append one record to the ledger (one line, one atomic write);
    returns the ledger path."""
    return append_jsonl(record, path or default_ledger_path())


def validate_record(record: object) -> List[str]:
    """Structural schema check; returns a list of problems (empty = ok)."""
    errors: List[str] = []
    if not isinstance(record, dict):
        return [f"record must be an object, got {type(record).__name__}"]
    if record.get("schema") != LEDGER_SCHEMA:
        errors.append(f"schema must be {LEDGER_SCHEMA!r}, "
                      f"got {record.get('schema')!r}")
    for key, kind in (("kind", str), ("request_sha256", str),
                      ("request", dict), ("outcome", dict),
                      ("outcome_digest", str), ("created_utc", str),
                      ("host", dict), ("items", int)):
        if not isinstance(record.get(key), kind):
            errors.append(f"{key} must be {kind.__name__}")
    for key in ("wall_seconds", "items_per_second"):
        value = record.get(key)
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or value < 0):
            errors.append(f"{key} must be a non-negative number")
    sha = record.get("request_sha256")
    if isinstance(sha, str) and len(sha) != 64:
        errors.append("request_sha256 must be a 64-hex-digit digest")
    if isinstance(sha, str) and isinstance(record.get("request"), dict):
        if request_hash(record["request"]) != sha:
            errors.append("request_sha256 does not match the request body")
    git = record.get("git_sha")
    if git is not None and not isinstance(git, str):
        errors.append("git_sha must be a string or null")
    return errors


def read_ledger(path: Optional[str] = None,
                ) -> Tuple[List[Dict[str, object]], int]:
    """Read every valid record, oldest first; returns
    ``(records, skipped)`` where ``skipped`` counts unparseable or
    schema-invalid lines (a torn write must never poison the history).
    """
    ledger_path = path or default_ledger_path()
    if not os.path.exists(ledger_path):
        return [], 0
    records: List[Dict[str, object]] = []
    skipped = 0
    with open(ledger_path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                skipped += 1
                continue
            if validate_record(record):
                skipped += 1
                continue
            records.append(record)
    return records, skipped


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------

def find_records(records: Sequence[Mapping[str, object]],
                 hash_prefix: str) -> List[Mapping[str, object]]:
    """All records whose request hash starts with ``hash_prefix``."""
    return [r for r in records
            if str(r.get("request_sha256", "")).startswith(hash_prefix)]


def ledger_stats(records: Sequence[Mapping[str, object]]
                 ) -> Dict[str, object]:
    """Fleet-level summary: per-kind counts/walls and the dedupe-hit
    rate a content-addressed result cache would have achieved.

    A record is a *dedupe hit* when its request hash already appeared
    earlier in the ledger — the exact invocations a cache keyed on
    ``request_sha256`` could have answered without running anything.
    ``inconsistent_hits`` counts hits whose outcome digest differs from
    the first occurrence's: for deterministic requests that is a red
    flag (nondeterminism or an environment change), so it is surfaced
    rather than folded into the hit count silently.
    """
    kinds: Dict[str, Dict[str, float]] = {}
    first_outcome: Dict[str, str] = {}
    hits = 0
    inconsistent = 0
    for record in records:
        kind = str(record.get("kind", "?"))
        bucket = kinds.setdefault(kind, {"records": 0, "wall_seconds": 0.0,
                                         "items": 0, "dedupe_hits": 0})
        bucket["records"] += 1
        bucket["wall_seconds"] += float(record.get("wall_seconds", 0.0))
        bucket["items"] += int(record.get("items", 0))
        sha = str(record.get("request_sha256", ""))
        digest = str(record.get("outcome_digest", ""))
        if sha in first_outcome:
            hits += 1
            bucket["dedupe_hits"] += 1
            if digest != first_outcome[sha]:
                inconsistent += 1
        else:
            first_outcome[sha] = digest
    total = len(records)
    for bucket in kinds.values():
        bucket["wall_seconds"] = round(bucket["wall_seconds"], 3)
    return {
        "records": total,
        "unique_requests": len(first_outcome),
        "dedupe_hits": hits,
        "dedupe_hit_rate": round(hits / total, 4) if total else 0.0,
        "inconsistent_hits": inconsistent,
        "kinds": {k: kinds[k] for k in sorted(kinds)},
    }


def ledger_trajectory(records: Sequence[Mapping[str, object]],
                      kind: str = "fuzz") -> List[Dict[str, object]]:
    """Throughput trajectory of one record kind, oldest first — the
    fuzz legs/s trend straight from the ledger."""
    out: List[Dict[str, object]] = []
    for record in records:
        if record.get("kind") != kind:
            continue
        out.append({
            "created_utc": record.get("created_utc"),
            "git_sha": record.get("git_sha"),
            "request_sha256": str(record.get("request_sha256", ""))[:12],
            "wall_seconds": record.get("wall_seconds"),
            "items": record.get("items"),
            "items_per_second": record.get("items_per_second"),
            "outcome_digest": record.get("outcome_digest"),
        })
    return out


# ----------------------------------------------------------------------
# Rendering (the obs CLI's ledger subcommands)
# ----------------------------------------------------------------------

def render_list(records: Sequence[Mapping[str, object]],
                limit: int = 20) -> str:
    """Aligned one-line-per-record listing (newest last)."""
    if not records:
        return "ledger is empty"
    shown = records[-limit:] if limit > 0 else list(records)
    header = (f"{'created (UTC)':<21} {'kind':<10} {'request':<14} "
              f"{'wall s':>9} {'items':>8} {'items/s':>9}  outcome")
    lines = [header, "-" * len(header)]
    for r in shown:
        lines.append(
            f"{str(r.get('created_utc', '?')):<21} "
            f"{str(r.get('kind', '?')):<10} "
            f"{str(r.get('request_sha256', ''))[:12] + '..':<14} "
            f"{float(r.get('wall_seconds', 0.0)):>9.3f} "
            f"{int(r.get('items', 0)):>8} "
            f"{float(r.get('items_per_second', 0.0)):>9.1f}  "
            f"{str(r.get('outcome_digest', ''))}")
    if limit > 0 and len(records) > limit:
        lines.append(f"... {len(records) - limit} older record(s) "
                     f"(raise --limit)")
    return "\n".join(lines)


def render_stats(stats: Mapping[str, object]) -> str:
    lines = [
        f"records:          {stats['records']}",
        f"unique requests:  {stats['unique_requests']}",
        f"dedupe hits:      {stats['dedupe_hits']} "
        f"(hit rate {float(stats['dedupe_hit_rate']) * 100:.1f}% — work a "
        f"content-addressed result cache would have skipped)",
    ]
    if stats.get("inconsistent_hits"):
        lines.append(f"INCONSISTENT:     {stats['inconsistent_hits']} "
                     f"repeated request(s) produced a different outcome "
                     f"digest — investigate nondeterminism")
    kinds: Mapping[str, Mapping[str, object]] = stats["kinds"]  # type: ignore[assignment]
    if kinds:
        header = (f"  {'kind':<10} {'records':>8} {'wall s':>10} "
                  f"{'items':>10} {'dedupe':>7}")
        lines += ["", header, "  " + "-" * (len(header) - 2)]
        for kind, b in kinds.items():
            lines.append(f"  {kind:<10} {int(b['records']):>8} "
                         f"{float(b['wall_seconds']):>10.3f} "
                         f"{int(b['items']):>10} {int(b['dedupe_hits']):>7}")
    return "\n".join(lines)


def render_trajectory(points: Sequence[Mapping[str, object]],
                      kind: str) -> str:
    if not points:
        return f"no {kind!r} records in the ledger"
    header = (f"{'created (UTC)':<21} {'sha':<10} {'request':<14} "
              f"{'wall s':>9} {'items':>8} {'items/s':>9}")
    lines = [header, "-" * len(header)]
    for p in points:
        sha = p.get("git_sha")
        lines.append(
            f"{str(p.get('created_utc', '?')):<21} "
            f"{(str(sha)[:8] if sha else '?'):<10} "
            f"{str(p.get('request_sha256', '')) + '..':<14} "
            f"{float(p.get('wall_seconds', 0.0)):>9.3f} "
            f"{int(p.get('items', 0)):>8} "
            f"{float(p.get('items_per_second', 0.0)):>9.1f}")
    rates = [float(p.get("items_per_second", 0.0)) for p in points]
    if len(rates) >= 2 and rates[0] > 0:
        lines.append(f"trend: {rates[0]:.1f} -> {rates[-1]:.1f} items/s "
                     f"({(rates[-1] / rates[0] - 1) * 100:+.1f}% over "
                     f"{len(rates)} record(s))")
    return "\n".join(lines)


__all__ = [
    "DEFAULT_LEDGER",
    "KNOWN_KINDS",
    "LEDGER_SCHEMA",
    "append_jsonl",
    "append_record",
    "canonical_json",
    "default_ledger_path",
    "digest_outcome",
    "find_records",
    "ledger_stats",
    "ledger_trajectory",
    "make_record",
    "read_ledger",
    "render_list",
    "render_stats",
    "render_trajectory",
    "request_hash",
    "utc_timestamp",
    "validate_record",
]
