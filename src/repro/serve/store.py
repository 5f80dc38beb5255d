"""Persistent content-addressed result store.

Each completed job is written once, keyed by its canonical request
hash, under ``root/objects/<sha[:2]>/<sha>.json`` — the git-style
two-level fan-out keeps directories small at millions of entries.
Entries are written atomically (temp file + ``os.replace`` in the same
directory), so a crashed server can never leave a half-written entry
a later lookup would trust.

Reads are paranoid the same way the run ledger is tolerant: an entry
whose stored ``request_sha256`` does not match its filename, whose
JSON does not parse, or whose ``outcome_digest`` no longer matches a
recomputed digest of its ``result`` is **poisoned** — counted,
quarantined out of the hit path (the job simply re-executes and the
fresh result overwrites the bad entry), never returned.  Because the
simulator is deterministic (the serial==parallel and scalar==batched
differential suites pin it), a stored result never expires: the store
has no eviction, only verification.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Mapping, Optional

from ..obs.ledger import digest_outcome

#: bump when the entry layout changes incompatibly, or when the same
#: request would now compute a different result (``/2``: litmus legs
#: start from the test's initial memory, and the machine waits on
#: events instead of polling; ``/3``: a skew is the cycle a CPU starts
#: at, not a chain of adds in front of its program) — an older entry
#: then reads as a miss
STORE_SCHEMA = "repro-serve-result/3"


class ResultStore:
    """Content-addressed persistence for job results."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.objects_dir = os.path.join(root, "objects")
        os.makedirs(self.objects_dir, exist_ok=True)
        # what this store object has seen since it was created
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.poisoned = 0

    def _path(self, sha: str) -> str:
        return os.path.join(self.objects_dir, sha[:2], f"{sha}.json")

    # -- lookup ---------------------------------------------------------

    def get(self, sha: str) -> Optional[Dict[str, object]]:
        """The stored result for a request hash, or ``None``.

        Never raises on a bad entry: corruption counts as ``poisoned``
        and reads as a miss, so the job re-executes and heals the store.
        """
        path = self._path(sha)
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            self.poisoned += 1
            self.misses += 1
            return None
        problems = self.validate_entry(entry, sha)
        if problems:
            self.poisoned += 1
            self.misses += 1
            return None
        self.hits += 1
        return entry["result"]

    @staticmethod
    def validate_entry(entry: object, sha: str) -> list:
        """Why an entry is untrustworthy (empty = ok).

        The ``outcome_digest`` check is the poisoned-entry detector: it
        recomputes the digest over the stored ``result`` with the same
        canonicalization the ledger uses, so any bit flipped in the
        result since it was written — manual edit, partial write that
        somehow parsed, disk corruption — disqualifies the entry.
        """
        if not isinstance(entry, dict):
            return ["entry must be an object"]
        problems = []
        if entry.get("schema") != STORE_SCHEMA:
            problems.append(f"schema must be {STORE_SCHEMA!r}")
        if entry.get("request_sha256") != sha:
            problems.append("request_sha256 does not match the address")
        result = entry.get("result")
        if not isinstance(result, dict):
            problems.append("result must be an object")
        elif digest_outcome(result) != entry.get("outcome_digest"):
            problems.append("outcome_digest does not match the result")
        return problems

    def contains(self, sha: str) -> bool:
        return os.path.exists(self._path(sha))

    # -- write ----------------------------------------------------------

    def put(self, sha: str, request: Mapping[str, object],
            result: Mapping[str, object]) -> str:
        """Store one result atomically; returns the entry path."""
        entry = {
            "schema": STORE_SCHEMA,
            "request_sha256": sha,
            "request": dict(request),
            "result": dict(result),
            "outcome_digest": digest_outcome(result),
        }
        path = self._path(sha)
        parent = os.path.dirname(path)
        os.makedirs(parent, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".put-", dir=parent)
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh, sort_keys=True, separators=(",", ":"))
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.puts += 1
        return path

    # -- accounting -----------------------------------------------------

    def object_count(self) -> int:
        count = 0
        for _dirpath, _dirs, files in os.walk(self.objects_dir):
            count += sum(1 for name in files if name.endswith(".json"))
        return count

    def clear(self) -> int:
        """Delete every stored object (bench cold-cache repeats);
        returns how many entries were removed."""
        removed = 0
        for dirpath, _dirs, files in os.walk(self.objects_dir):
            for name in files:
                if name.endswith(".json"):
                    os.unlink(os.path.join(dirpath, name))
                    removed += 1
        return removed

    def describe(self) -> Dict[str, object]:
        return {
            "root": self.root,
            "objects": self.object_count(),
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "poisoned": self.poisoned,
        }


__all__ = ["STORE_SCHEMA", "ResultStore"]
