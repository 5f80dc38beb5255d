"""Content-addressed run ledger: hashing, round-trip, query CLI.

The ledger's request hash is the future result-cache key, so the tests
pin down what the cache contract needs: canonicalization that is
insensitive to dict insertion order, bit-identical hashes for repeated
identical requests, dedupe/inconsistency accounting, and a reader that
survives a corrupted line without losing the rest of the file.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import ledger

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")


def _record(kind="fuzz", budget=10, seed=1, status=0, wall=1.0):
    return ledger.make_record(
        kind=kind,
        request={"budget": budget, "master_seed": seed, "oracle": "all"},
        outcome={"status": status, "tests": budget},
        wall_seconds=wall,
        items=budget * 64,
        artifacts={"corpus": "corpus.jsonl"},
    )


class TestCanonicalHashing:
    def test_insertion_order_does_not_matter(self):
        a = {"budget": 5, "master_seed": 7, "gen": {"ncpu": 2, "ops": 8}}
        b = {"gen": {"ops": 8, "ncpu": 2}, "master_seed": 7, "budget": 5}
        assert ledger.canonical_json(a) == ledger.canonical_json(b)
        assert ledger.request_hash(a) == ledger.request_hash(b)

    def test_distinct_requests_get_distinct_hashes(self):
        assert ledger.request_hash({"budget": 5}) != \
            ledger.request_hash({"budget": 6})

    def test_hash_is_sha256_hex(self):
        h = ledger.request_hash({"x": 1})
        assert len(h) == 64 and set(h) <= set("0123456789abcdef")

    def test_non_finite_floats_map_to_sentinels(self):
        # geomeans over empty sets, 0/0 speedups and the like must not
        # crash the write path (they used to raise ValueError here)
        text = ledger.canonical_json({"g": float("nan"),
                                      "hi": float("inf"),
                                      "lo": float("-inf")})
        assert json.loads(text) == {"g": "NaN", "hi": "Infinity",
                                    "lo": "-Infinity"}

    def test_non_finite_hash_is_stable(self):
        assert ledger.request_hash({"g": float("nan")}) == \
            ledger.request_hash({"g": float("nan")})
        # the sentinel aliases the literal string by design: the
        # canonical form *is* the sentinel
        assert ledger.request_hash({"g": float("nan")}) == \
            ledger.request_hash({"g": "NaN"})

    def test_non_finite_nested_containers(self):
        text = ledger.canonical_json(
            {"a": [float("inf"), {"b": (float("nan"), 1.5)}]})
        assert json.loads(text) == {"a": ["Infinity", {"b": ["NaN", 1.5]}]}

    def test_finite_floats_unchanged(self):
        assert ledger.canonical_json({"x": 1.5}) == '{"x":1.5}'

    def test_repeated_invocation_is_bit_identical(self):
        first = _record()
        second = _record()
        assert first["request_sha256"] == second["request_sha256"]
        assert first["outcome_digest"] == second["outcome_digest"]


class TestRoundTrip:
    def test_append_then_read(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        rec = _record()
        assert ledger.append_record(rec, path) == path
        records, skipped = ledger.read_ledger(path)
        assert skipped == 0
        assert len(records) == 1
        assert records[0]["request_sha256"] == rec["request_sha256"]
        assert ledger.validate_record(records[0]) == []

    def test_validate_catches_tampered_request(self):
        rec = _record()
        rec["request"]["budget"] = 999  # hash no longer matches
        assert any("does not match" in e
                   for e in ledger.validate_record(rec))

    def test_reader_skips_garbage_lines(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger.append_record(_record(budget=1), path)
        with open(path, "a") as fh:
            fh.write("{not json at all\n")
            fh.write('{"schema": "wrong/0"}\n')
        ledger.append_record(_record(budget=2), path)
        records, skipped = ledger.read_ledger(path)
        assert len(records) == 2
        assert skipped == 2

    def test_missing_ledger_reads_empty(self, tmp_path):
        records, skipped = ledger.read_ledger(str(tmp_path / "nope.jsonl"))
        assert records == [] and skipped == 0

    def test_non_finite_outcome_round_trips(self, tmp_path):
        # the write path survives non-finite floats end to end: the
        # stored record re-reads, re-validates, and re-hashes cleanly
        path = str(tmp_path / "ledger.jsonl")
        rec = ledger.make_record(
            kind="fuzz",
            request={"geomean": float("nan"), "bound": float("inf")},
            outcome={"speedup": float("-inf"), "ok": True},
            wall_seconds=0.5,
        )
        ledger.append_record(rec, path)
        records, skipped = ledger.read_ledger(path)
        assert skipped == 0 and len(records) == 1
        assert ledger.validate_record(records[0]) == []
        assert records[0]["request_sha256"] == rec["request_sha256"]
        assert records[0]["request"] == {"geomean": "NaN",
                                         "bound": "Infinity"}


def _hammer_appends(path, worker_id, count):
    # module-level so multiprocessing can pickle it
    for i in range(count):
        ledger.append_jsonl({"worker": worker_id, "i": i,
                             "pad": "x" * (40 + (i * 7) % 400)}, path)


class TestAtomicAppends:
    def test_interleaved_writers_leave_no_torn_lines(self, tmp_path):
        import multiprocessing

        path = str(tmp_path / "ledger.jsonl")
        workers, per_worker = 4, 50
        ctx = multiprocessing.get_context("spawn" if sys.platform == "win32"
                                          else "fork")
        procs = [ctx.Process(target=_hammer_appends,
                             args=(path, w, per_worker))
                 for w in range(workers)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(60)
            assert proc.exitcode == 0
        seen = set()
        with open(path) as fh:
            for line in fh:
                obj = json.loads(line)  # a torn line would raise here
                seen.add((obj["worker"], obj["i"]))
        assert len(seen) == workers * per_worker

    def test_append_jsonl_creates_parents(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "log.jsonl")
        ledger.append_jsonl({"a": 1}, path)
        ledger.append_jsonl({"a": 2}, path)
        with open(path) as fh:
            assert [json.loads(l)["a"] for l in fh] == [1, 2]


class TestStats:
    def test_dedupe_hits_counted(self):
        records = [_record(budget=5), _record(budget=5), _record(budget=9)]
        stats = ledger.ledger_stats(records)
        assert stats["records"] == 3
        assert stats["unique_requests"] == 2
        assert stats["dedupe_hits"] == 1
        assert stats["dedupe_hit_rate"] == pytest.approx(1 / 3, abs=1e-3)
        assert stats["inconsistent_hits"] == 0

    def test_inconsistent_outcomes_flagged(self):
        # same request, different outcome digest: nondeterminism signal
        records = [_record(budget=5, status=0), _record(budget=5, status=1)]
        stats = ledger.ledger_stats(records)
        assert stats["dedupe_hits"] == 1
        assert stats["inconsistent_hits"] == 1

    def test_find_records_by_prefix(self):
        records = [_record(budget=5), _record(budget=9)]
        prefix = records[0]["request_sha256"][:12]
        matches = ledger.find_records(records, prefix)
        assert [m["request_sha256"] for m in matches] == \
            [records[0]["request_sha256"]]

    def test_trajectory_filters_kind(self):
        records = [_record(kind="fuzz", wall=2.0),
                   _record(kind="sweep", wall=1.0),
                   _record(kind="fuzz", wall=1.5)]
        points = ledger.ledger_trajectory(records, kind="fuzz")
        assert [p["wall_seconds"] for p in points] == [2.0, 1.5]
        assert all(p["items_per_second"] > 0 for p in points)


class TestLedgerCLI:
    def _run(self, *argv, ledger_path):
        return subprocess.run(
            [sys.executable, "-m", "repro.obs", *argv,
             "--ledger", ledger_path],
            capture_output=True, text=True, cwd=str(REPO_ROOT),
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})

    @pytest.fixture()
    def seeded(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger.append_record(_record(budget=5), path)
        ledger.append_record(_record(budget=5), path)
        ledger.append_record(_record(kind="sweep", budget=9), path)
        return path

    def test_list(self, seeded):
        proc = self._run("ledger", "list", ledger_path=seeded)
        assert proc.returncode == 0, proc.stderr
        assert "fuzz" in proc.stdout and "sweep" in proc.stdout

    def test_show_by_prefix(self, seeded):
        records, _ = ledger.read_ledger(seeded)
        prefix = records[0]["request_sha256"][:10]
        proc = self._run("ledger", "show", prefix, ledger_path=seeded)
        assert proc.returncode == 0, proc.stderr
        assert records[0]["request_sha256"] in proc.stdout

    def test_show_unknown_hash_fails(self, seeded):
        proc = self._run("ledger", "show", "f" * 12, ledger_path=seeded)
        assert proc.returncode == 1

    def test_stats_reports_dedupe(self, seeded):
        proc = self._run("ledger", "stats", "--json", ledger_path=seeded)
        assert proc.returncode == 0, proc.stderr
        stats = json.loads(proc.stdout)
        assert stats["records"] == 3
        assert stats["dedupe_hits"] == 1

    def test_trajectory(self, seeded):
        proc = self._run("ledger", "trajectory", "--kind", "sweep",
                         "--json", ledger_path=seeded)
        assert proc.returncode == 0, proc.stderr
        points = json.loads(proc.stdout)
        assert len(points) == 1
        assert points[0]["wall_seconds"] == pytest.approx(1.0)

    def test_retired_bench_kind_still_reads(self, seeded):
        # ledgers written before the `bench` subcommand was removed
        # carry kind="bench" records; they must keep listing and
        # summarizing, only the --kind filter no longer offers them
        ledger.append_record(_record(kind="bench", budget=3), seeded)
        proc = self._run("ledger", "stats", ledger_path=seeded)
        assert proc.returncode == 0, proc.stderr
        assert "bench" in proc.stdout
        proc = self._run("ledger", "trajectory", ledger_path=seeded)
        assert proc.returncode == 0, proc.stderr
        assert "2 record(s)" in proc.stdout  # default kind is fuzz
