"""Content-addressed run ledger: hashing, round-trip, query CLI.

The ledger's request hash is the future result-cache key, so the tests
pin down what the cache contract needs: canonicalization that is
insensitive to dict insertion order, bit-identical hashes for repeated
identical requests, dedupe/inconsistency accounting, and a reader that
survives a corrupted line without losing the rest of the file.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import ledger
from tests.conftest import child_env

REPO_ROOT = Path(__file__).resolve().parent.parent


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


def _reference_json(obj):
    """``canonical_json`` as it was written before it tried the encoder
    first: rewrite the whole tree, then encode."""
    return json.dumps(ledger._canonicalize(obj), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


_LEAVES = (st.none() | st.booleans() | st.integers() | st.text(max_size=8)
           | st.floats(allow_nan=True, allow_infinity=True))
_TREES = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=25)

#: taken at the parent of the PR that made ``canonical_json`` one
#: encoder pass (``fef63ef``), before any edit
PINNED_MIX_JOBS = {
    # test: (request_hash(make_job(test))[:16], digest_outcome(result))
    "SB": ("16846fb94060e1cc", "6c7ed1849d63af17"),
    "MP": ("c53dadef94720100", "b044c1f52dad1109"),
    "LB": ("777421a4dc0ac060", "2f564b9a8710ada6"),
    "coherence": ("a73374037560d177", "50f16965783b141b"),
    "SB+sync": ("7007b4d3eaa7d504", "6c7ed1849d63af17"),
    "MP+sync": ("8a0f9ccb16bb7c7c", "b044c1f52dad1109"),
    "IRIW": ("a7a34bbfe65686e9", "52dcb53c1056b1dc"),
    "WRC": ("50c9f92b6d60cd65", "bfd10decbcb5d57d"),
}
#: what ``run_fuzz(budget=2, seed=0)`` asks the ledger to hash
FUZZ_BUDGET_2_REQUEST = {
    "backend": "scalar", "budget": 2, "fault": None,
    "generator": {"addr_pool": ["x", "y", "data", "flag"], "max_addrs": 3,
                  "max_cpus": 4, "max_ops_per_thread": 4, "max_total_ops": 9,
                  "max_value": 3, "min_cpus": 2, "min_ops_per_thread": 1,
                  "op_weights": [4.0, 4.0, 1.0, 1.0],
                  "sync_probability": 0.25},
    "kind": "fuzz", "master_seed": 0, "oracle": "all"}


class TestByteIdentity:
    """The hashes are cache keys and the lines are on disk: the fast
    path of ``canonical_json`` must give the reference's bytes."""

    @settings(max_examples=300, deadline=None)
    @given(_TREES)
    @example({"a": ({"b": [1.5, (float("-inf"),)]}, 2), "c": ()})
    def test_encoder_first_equals_rewrite_first(self, tree):
        assert ledger.canonical_json(tree) == _reference_json(tree)

    def test_mix_job_hashes_and_outcome_digests_pinned(self):
        from repro.serve import make_job
        from repro.serve.executors import execute_job
        from repro.serve.loadgen import MIX_TESTS

        assert set(MIX_TESTS) == set(PINNED_MIX_JOBS)
        taken = {}
        for name in MIX_TESTS:
            job = make_job(test={"name": name})
            taken[name] = (ledger.request_hash(job)[:16],
                           ledger.digest_outcome(execute_job(job)))
        assert taken == PINNED_MIX_JOBS

    def test_fuzz_request_hash_pinned(self):
        # the key PR 16 pinned through a whole campaign
        # (test_verify.py::TestCanonicalRequest), here on the request
        assert ledger.request_hash(FUZZ_BUDGET_2_REQUEST) == (
            "fa4dcdee35a172305f5c5afa4f9b16c58af78992c752fb1693768103aeead517")


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


def _lines(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


class TestHeldDescriptors:
    """``append_jsonl`` keeps its descriptor; the path, not the
    descriptor, says where a line belongs."""

    def test_unlinked_file_is_recreated(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        ledger.append_jsonl({"n": 1}, path)
        os.unlink(path)
        ledger.append_jsonl({"n": 2}, path)
        assert _lines(path) == [{"n": 2}]

    def test_rotated_file_keeps_its_lines_and_a_new_one_starts(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        rotated = str(tmp_path / "log.jsonl.1")
        ledger.append_jsonl({"n": 1}, path)
        os.rename(path, rotated)
        ledger.append_jsonl({"n": 2}, path)
        ledger.append_jsonl({"n": 3}, path)
        assert _lines(rotated) == [{"n": 1}]
        assert _lines(path) == [{"n": 2}, {"n": 3}]

    def test_replaced_file_gets_the_next_line(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        ledger.append_jsonl({"n": 1}, path)
        fresh = tmp_path / "fresh"
        fresh.write_text('{"n": 0}\n')
        os.replace(fresh, path)
        ledger.append_jsonl({"n": 2}, path)
        assert _lines(path) == [{"n": 0}, {"n": 2}]

    def test_removed_directory_is_recreated(self, tmp_path):
        path = str(tmp_path / "deep" / "log.jsonl")
        ledger.append_jsonl({"n": 1}, path)
        os.unlink(path)
        os.rmdir(tmp_path / "deep")
        ledger.append_jsonl({"n": 2}, path)
        assert _lines(path) == [{"n": 2}]

    def test_more_paths_than_the_table_holds(self, tmp_path):
        paths = [str(tmp_path / f"log{i}.jsonl")
                 for i in range(3 * ledger._MAX_HELD)]
        for n in range(3):
            for path in paths:
                ledger.append_jsonl({"path": path, "n": n}, path)
            assert len(ledger._held) <= ledger._MAX_HELD
        for path in paths:
            assert _lines(path) == [{"path": path, "n": n} for n in range(3)]
        # nothing leaked: every descriptor the table names is open
        for fd, _identity in ledger._held.values():
            os.fstat(fd)

    def test_threads_evicting_each_other_misplace_nothing(self, tmp_path,
                                                          monkeypatch):
        # a table of one and two paths: every append closes the
        # descriptor the other path's appenders are about to write
        # through, and the next open reuses its number
        monkeypatch.setattr(ledger, "_MAX_HELD", 1)
        paths = [str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
        workers, rounds = 4, 4000
        failures = []

        def hammer(worker):
            path = paths[worker % 2]
            try:
                for n in range(rounds):
                    ledger.append_jsonl({"to": path, "w": worker, "n": n},
                                        path)
            except Exception as exc:  # noqa: BLE001 - asserted on below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(w,))
                       for w in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not failures
        for path in paths:
            lines = _lines(path)
            assert {line["to"] for line in lines} == {path}
            assert len(lines) == workers // 2 * rounds

    def test_each_record_owns_its_host(self):
        first = _record()
        first["host"]["cpu_count"] = -1
        assert _record()["host"]["cpu_count"] != -1


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
            env=child_env())

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
