"""Simulation-as-a-service: protocol, store, server, client, loadgen.

The stack's contract has three load-bearing claims, each pinned here:

1. **bit-identical**: a served result equals a direct
   ``run_workload``-based check, whatever executor runs it and whether
   it came from the cache;
2. **content-addressed**: identical requests hit the cache (a full
   resubmit is 100% hits with zero simulator invocations) and the run
   ledger's dedupe stats agree;
3. **paranoid reads**: a poisoned store entry is detected by its
   outcome digest, served as a miss, and healed by re-execution.
"""

import asyncio
import contextlib
import dataclasses
import json
import multiprocessing
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.obs import ledger
from repro.serve import (
    ResultStore,
    ServeClient,
    ServeServer,
    ServerThread,
    build_job_mix,
    job_hash,
    make_executor,
    make_job,
    normalize_job,
    run_closed_loop,
    run_open_loop,
)
from repro.serve.client import parse_endpoint
from repro.serve.executors import execute_job
from repro.serve.loadgen import percentile
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_message,
    encode_message,
)
from repro.serve.store import STORE_SCHEMA
from repro.verify.harness import RunConfig, observed_outcome
from tests.conftest import child_env
from tests.test_verify import mistyped_values


@pytest.fixture
def server(tmp_path):
    """One live in-process server (serial executor) per test."""
    srv = ServeServer(store=ResultStore(str(tmp_path / "store")),
                      executor_kind="serial",
                      ledger_path=str(tmp_path / "ledger.jsonl"))
    handle = ServerThread(srv)
    host, port = handle.start()
    yield srv, host, port
    handle.stop()


def _client(server):
    _, host, port = server
    return ServeClient(host, port)


@contextlib.contextmanager
def _live_server(root, kind):
    """A live server of one executor kind (``pool``: 2 workers)."""
    srv = ServeServer(store=ResultStore(str(root / f"store-{kind}")),
                      executor_kind=kind, executor_jobs=2,
                      ledger=False, request_log=False)
    handle = ServerThread(srv)
    host, port = handle.start()
    try:
        yield srv, host, port
    finally:
        handle.stop()


class _RawConnection:
    """The wire as a client that is not ``ServeClient`` sees it."""

    def __init__(self, server, timeout=60):
        _, host, port = server
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._fh = self._sock.makefile("rwb")

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self._fh.close()
        self._sock.close()

    def send(self, *frames):
        """Every frame (a message, or bytes as they are) in one write."""
        self._fh.write(b"".join(
            frame if isinstance(frame, bytes) else encode_message(frame)
            for frame in frames))
        self._fh.flush()

    def read(self, count):
        return [json.loads(self._fh.readline()) for _ in range(count)]


def _line_count(path):
    if not os.path.exists(path):
        return 0
    with open(path) as fh:
        return sum(1 for _ in fh)


def _worker_pids():
    return {child.pid for child in multiprocessing.active_children()}


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------

def _inline_mp(initial=None, **change):
    """Message passing as an inline job, ``change`` applied to the op
    each key of it belongs to (the flag write or the flag read)."""
    producer = [{"op": "W", "addr": "data", "value": 1},
                {"op": "W", "addr": "flag", "value": 1, "release": True}]
    consumer = [{"op": "R", "addr": "flag", "reg": "r0", "acquire": True},
                {"op": "R", "addr": "data", "reg": "r1"}]
    for key, value in change.items():
        (consumer[0] if key in ("acquire", "reg") else producer[1])[key] = \
            value
    return {"test": {"litmus": {"name": "mp", "threads": [producer, consumer],
                                "initial": initial or {}}}}


def _mistyped_run_configs():
    """Each field of :class:`RunConfig`'s wire form, quoted (a list
    field's element first, then the list): generated, so a field added
    to ``RunConfig`` is refused by name with no row written for it."""
    rows = []
    for field in dataclasses.fields(RunConfig):
        if field.name == "name":
            continue
        where = f"run_config.{field.name}"
        if isinstance(field.default, tuple):
            rows.append(({"test": {"name": "SB"}, "run_config": {
                field.name: [*field.default, 2.9]}},
                f"{where}[{len(field.default)}]"))
        rows.append(({"test": {"name": "SB"}, "run_config": {
            field.name: json.dumps(field.default)}}, where))
    return rows


#: a job whose one field has the wrong JSON type, and that field: the
#: server refuses it rather than coerce it into a job nobody asked for
MISTYPED_JOBS = [
    ({"test": {"name": "SB"}, "prefetch": "false"}, "prefetch"),
    ({"test": {"name": "SB"}, "speculation": 1}, "speculation"),
    *_mistyped_run_configs(),
    ({"test": {"seed": "7"}}, "test.seed"),
    # an inline litmus test's op fields, initial values and addresses
    (_inline_mp(release="no"), "release"),
    (_inline_mp(acquire="no"), "acquire"),
    (_inline_mp(value=2.5), "value"),
    (_inline_mp(value=True), "value"),
    (_inline_mp(value="1"), "value"),
    (_inline_mp(addr=7), "addr"),
    (_inline_mp(reg=5), "reg"),
    (_inline_mp(addr="zz"), "test.litmus address 'zz'"),
    (_inline_mp(initial={"data": "1"}), "initial['data']"),
    # a generator config the generator would only trip over at execute
    ({"test": {"seed": 7, "generator": {"addr_pool": ["zz", "x"]}}},
     "test.generator.addr_pool 'zz'"),
    ({"test": {"seed": 7, "generator": {"op_weights": [0, 0, 0, 0]}}},
     "op_weights"),
    ({"test": {"seed": 7, "generator": {"op_weights": [4, 4, 1]}}},
     "op_weights"),
    ({"test": {"seed": 7, "generator": {"sync_probability": "0.5"}}},
     "sync_probability"),
    ({"test": {"seed": 7, "generator": {"max_value": 2.5}}}, "max_value"),
]

#: inline tests that used to escape ``normalize_job`` as a bare
#: ``ConfigurationError``, leaving the submit unanswered
UNANSWERED_JOBS = [
    {"test": {"litmus": {"threads": [[{"op": "Q", "addr": "x"}]]}}},
    {"test": {"litmus": {"threads": [
        [{"op": "W", "addr": "x", "value": 1}] * 7,
        [{"op": "R", "addr": "x", "reg": f"r{i}"} for i in range(6)]]}}},
]


class TestProtocol:
    def test_normalize_fills_defaults(self):
        spec = normalize_job({"test": {"name": "SB"}})
        assert spec["model"] == "SC"
        assert spec["prefetch"] is False and spec["speculation"] is False
        assert spec["run_config"]["miss_latency"] == RunConfig("x").miss_latency

    def test_equivalent_jobs_hash_identically(self):
        defaults = RunConfig("x")
        sparse = {"test": {"name": "MP"}, "model": "WC"}
        explicit = {"schema": "repro-serve-job/1",
                    "test": {"name": "MP"}, "model": "WC",
                    "prefetch": False, "speculation": False,
                    "run_config": {"miss_latency": defaults.miss_latency,
                                   "skew": list(defaults.skew)}}
        assert job_hash(sparse) == job_hash(explicit)

    def test_result_determining_knobs_split_the_hash(self):
        base = {"test": {"name": "SB"}}
        assert job_hash(base) != job_hash({**base, "model": "RC"})
        assert job_hash(base) != job_hash({**base, "prefetch": True})
        assert job_hash(base) != job_hash(
            {**base, "run_config": {"miss_latency": 7}})

    def test_run_config_name_never_splits_the_cache(self):
        a = make_job(test={"name": "SB"}, run_config={"name": "warm"})
        b = make_job(test={"name": "SB"}, run_config={"name": "cold"})
        assert job_hash(a) == job_hash(b)

    def test_inline_litmus_and_seed_specs(self):
        from repro.consistency.litmus import STANDARD_TESTS
        from repro.verify.corpus import litmus_to_dict

        inline = normalize_job(
            {"test": {"litmus": litmus_to_dict(STANDARD_TESTS["SB"]())}})
        assert "litmus" in inline["test"]
        seeded = normalize_job({"test": {"seed": 7}})
        assert seeded["test"]["seed"] == 7
        assert "max_cpus" in seeded["test"]["generator"]

    @pytest.mark.parametrize("bad", [
        {"test": {"name": "nope"}},
        {"test": {"name": "SB", "seed": 1}},
        {"test": {}},
        {"test": {"name": "SB"}, "model": "XYZ"},
        {"test": {"name": "SB"}, "run_config": {"typo_key": 1}},
        {"test": {"name": "SB"}, "run_config": {"skew": []}},
        {"test": {"name": "SB"}, "run_config": {"miss_latency": 0}},
        {"test": {"name": "SB"}, "unknown_top": 1},
        "not an object",
        # the machine refuses a miss latency below 3 cycles
        {"test": {"name": "SB"}, "run_config": {"miss_latency": 2}},
        # a thread that starts past max_cycles never runs
        {"test": {"name": "SB"},
         "run_config": {"skew": [1000000], "max_cycles": 50}},
        # a cycle budget bounds a job's run: one past MAX_JOB_CYCLES
        # is refused
        {"test": {"name": "SB"},
         "run_config": {"max_cycles": 4_000_001}},
    ] + [job for job, _field in MISTYPED_JOBS] + UNANSWERED_JOBS)
    def test_bad_jobs_rejected(self, bad):
        with pytest.raises(ProtocolError):
            normalize_job(bad)

    @pytest.mark.parametrize("bad,field", MISTYPED_JOBS)
    def test_a_mistyped_field_is_named(self, bad, field):
        with pytest.raises(ProtocolError, match=re.escape(field)):
            normalize_job(bad)

    @pytest.mark.parametrize("field", [field for field in
                                       dataclasses.fields(RunConfig)
                                       if field.name != "name"],
                             ids=lambda field: field.name)
    def test_every_wrong_json_type_of_a_run_config_field_is_named(self, field):
        # past the table's one quoted value per field: a boolean for an
        # integer, a float, null, a list, an object
        for value in mistyped_values(field.default):
            with pytest.raises(ProtocolError,
                               match=re.escape(f"run_config.{field.name}")):
                normalize_job({"test": {"name": "SB"},
                               "run_config": {field.name: value}})

    def test_valid_inline_jobs_hash_as_before(self):
        # the typed fields refuse nothing a valid job holds: the hash of
        # an inline MP job is the one it had before they were typed
        assert job_hash(_inline_mp()) == (
            "01f2e84a9e97666774e0dc8dcbcab30e30fefc6ee1f591f6b6ae78e24c0343b2")

    def test_ndjson_framing_round_trips(self):
        msg = {"op": "submit", "id": 3, "job": {"x": [1, 2]}}
        line = encode_message(msg)
        assert line.endswith(b"\n") and b"\n" not in line[:-1]
        assert decode_message(line) == msg

    def test_oversized_frame_rejected(self):
        from repro.serve.protocol import MAX_FRAME_BYTES

        with pytest.raises(ProtocolError):
            decode_message(b"x" * (MAX_FRAME_BYTES + 1))

    def test_parse_endpoint(self):
        assert parse_endpoint("somehost:7719") == ("somehost", 7719)
        assert parse_endpoint("7719") == ("127.0.0.1", 7719)
        with pytest.raises(Exception):
            parse_endpoint("nope")


# ----------------------------------------------------------------------
# Result store
# ----------------------------------------------------------------------

class TestResultStore:
    def _sha(self, i=0):
        return job_hash(make_job(test={"name": "SB"},
                                 run_config={"skew": [0, i]}))

    def test_miss_then_put_then_hit(self, tmp_path):
        store = ResultStore(str(tmp_path))
        sha = self._sha()
        assert store.get(sha) is None
        store.put(sha, {"r": 1}, {"outcome": [["r0", 1]], "cycles": 5})
        assert store.get(sha) == {"outcome": [["r0", 1]], "cycles": 5}
        assert store.describe()["hits"] == 1
        assert store.describe()["misses"] == 1

    def test_persistence_across_restarts(self, tmp_path):
        sha = self._sha()
        ResultStore(str(tmp_path)).put(sha, {"r": 1},
                                       {"outcome": [], "cycles": 9})
        # a brand-new store object over the same root: same entry
        reopened = ResultStore(str(tmp_path))
        assert reopened.get(sha) == {"outcome": [], "cycles": 9}
        assert reopened.object_count() == 1

    def test_poisoned_entry_detected_and_healed(self, tmp_path):
        store = ResultStore(str(tmp_path))
        sha = self._sha()
        path = store.put(sha, {"r": 1}, {"outcome": [["r0", 1]], "cycles": 5})
        entry = json.loads(open(path).read())
        entry["result"]["cycles"] = 9999  # flip a bit; digest now stale
        with open(path, "w") as fh:
            json.dump(entry, fh)
        assert store.get(sha) is None  # read as a miss, not served
        assert store.poisoned == 1
        # re-execution heals: the fresh put overwrites the bad entry
        store.put(sha, {"r": 1}, {"outcome": [["r0", 1]], "cycles": 5})
        assert store.get(sha) == {"outcome": [["r0", 1]], "cycles": 5}

    def test_unparseable_entry_is_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        sha = self._sha()
        path = store.put(sha, {}, {"outcome": [], "cycles": 1})
        with open(path, "w") as fh:
            fh.write("{torn")
        assert store.get(sha) is None
        assert store.poisoned == 1

    def test_validate_entry_checks(self):
        result = {"outcome": [["r0", 1]], "cycles": 5}
        good = {"schema": STORE_SCHEMA, "request_sha256": "ab",
                "request": {}, "result": result,
                "outcome_digest": ledger.digest_outcome(result)}
        assert ResultStore.validate_entry(good, "ab") == []
        assert ResultStore.validate_entry(good, "cd") != []  # wrong address
        assert ResultStore.validate_entry({**good, "schema": "x"}, "ab") != []
        assert ResultStore.validate_entry("junk", "ab") != []

    def test_an_entry_of_the_previous_schema_is_a_miss(self, tmp_path):
        # a /2 entry was computed by a machine that ran a skew as a
        # chain of adds in front of the thread: the same request may now
        # compute another result, so it re-executes
        store = ResultStore(str(tmp_path))
        sha = self._sha()
        result = {"outcome": [["r0", 1]], "cycles": 5}
        path = store.put(sha, {"r": 1}, result)
        entry = json.loads(open(path).read())
        assert entry["schema"] == STORE_SCHEMA == "repro-serve-result/3"
        with open(path, "w") as fh:
            json.dump({**entry, "schema": "repro-serve-result/2"}, fh)
        assert store.get(sha) is None
        assert (store.hits, store.misses) == (0, 1)

    def test_clear_removes_everything(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for i in range(3):
            store.put(self._sha(i), {}, {"outcome": [], "cycles": i})
        assert store.clear() == 3
        assert store.object_count() == 0


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------

class TestExecutors:
    def test_all_executors_agree_with_direct_run(self, tmp_path):
        jobs = build_job_mix(6, seed=3)
        direct = [execute_job(job) for job in jobs]
        for kind in ("serial", "pool"):
            with _live_server(tmp_path, kind) as server:
                with _client(server) as client:
                    served = client.submit_many(jobs)
            assert [r.result for r in served] == direct, kind

    def test_executors_contain_per_item_failures(self, tmp_path):
        good = make_job(test={"name": "SB"})
        # a valid job whose run cannot finish inside its cycle budget:
        # it fails in the executor, not in normalize_job
        bad = make_job(test={"name": "SB"}, run_config={"max_cycles": 1})
        other_good = make_job(test={"name": "MP"})
        for kind in ("serial", "pool"):
            with _live_server(tmp_path, kind) as server:
                with _client(server) as client:
                    first, failed, last = client.submit_many(
                        [good, bad, other_good])
                    stats = client.stats()
            assert first.ok and last.ok and not failed.ok, kind
            assert failed.error["type"] == "DeadlockError", kind
            assert first.result == execute_job(good)
            assert last.result == execute_job(other_good)
            # the failure is reported and never stored
            assert stats["store"]["objects"] == 2, kind
            assert stats["counters"]["errors"] == 1, kind
            assert stats["counters"]["executed"] == 2, kind

    def test_retired_batched_kind_is_rejected_by_name(self):
        with pytest.raises(ProtocolError, match=r"'serial', 'pool'"):
            make_executor("batched")


# ----------------------------------------------------------------------
# Server end-to-end
# ----------------------------------------------------------------------

class TestServerEndToEnd:
    def test_served_result_bit_identical_to_direct_run(self, server):
        srv, _, _ = server
        job = make_job(test={"name": "MP"}, model="WC", speculation=True)
        with _client(server) as client:
            served = client.submit(job)
        spec = normalize_job(job)
        from repro.consistency.litmus import STANDARD_TESTS

        direct = observed_outcome(STANDARD_TESTS["MP"](), "WC", False, True,
                                  RunConfig.from_spec(spec["run_config"]))
        assert served.outcome() == direct
        # and a cache hit serves the very same bytes
        with _client(server) as client:
            again = client.submit(job)
        assert again.cached and again.result == served.result

    def test_full_resubmit_is_all_hits_with_zero_simulations(self, server):
        srv, _, _ = server
        jobs = build_job_mix(10, seed=5)
        with _client(server) as client:
            first = client.submit_many(jobs)
            assert all(r.ok for r in first)
            simulations = srv.metrics.counter("serve/simulations")
            sims_after_first = simulations.value
            assert sims_after_first == len({job_hash(j) for j in jobs})
            second = client.submit_many(jobs)
        assert all(r.cached for r in second)
        assert [r.result for r in second] == [r.result for r in first]
        # zero simulator invocations on the resubmit
        assert simulations.value == sims_after_first
        assert srv.counters["cache_hits"] >= len(jobs)

    def test_two_concurrent_clients_with_overlapping_sets(self, server):
        srv, host, port = server
        # overlapping mixes: same seed window shifted, plus identical tail
        jobs_a = build_job_mix(8, seed=11)
        jobs_b = build_job_mix(8, seed=11)  # fully overlapping set
        results = {}

        def worker(name, jobs):
            with ServeClient(host, port) as client:
                results[name] = client.submit_many(jobs)

        threads = [threading.Thread(target=worker, args=("a", jobs_a)),
                   threading.Thread(target=worker, args=("b", jobs_b))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r.ok for r in results["a"] + results["b"])
        # identical requests must get identical results, whichever
        # client ran first and whichever path (exec/cache/coalesce)
        for ra, rb in zip(results["a"], results["b"]):
            assert ra.request_sha256 == rb.request_sha256
            assert ra.result == rb.result
        # the overlap was served without re-execution: every unique
        # request simulated at most once
        unique = len({r.request_sha256 for r in results["a"]})
        assert srv.counters["executed"] == unique
        assert (srv.counters["cache_hits"] + srv.counters["coalesced"]) >= \
            len(jobs_b)

    def test_ledger_reports_server_dedupe(self, server, tmp_path):
        srv, _, _ = server
        jobs = build_job_mix(6, seed=9)
        with _client(server) as client:
            client.submit_many(jobs)
            client.submit_many(jobs)
        records, skipped = ledger.read_ledger(srv.ledger_path)
        assert skipped == 0
        stats = ledger.ledger_stats(records)
        assert stats["records"] == 2 * len(jobs)
        assert stats["dedupe_hits"] == len(jobs)
        # the determinism sentinel: a cache hit must never look like a
        # nondeterministic re-run
        assert stats["inconsistent_hits"] == 0

    def test_request_log_captures_and_replays(self, server):
        srv, _, _ = server
        jobs = build_job_mix(4, seed=2)
        with _client(server) as client:
            client.submit_many(jobs)
        with open(srv.request_log_path) as fh:
            logged = [json.loads(line) for line in fh]
        assert len(logged) == 4
        assert all("request_sha256" in entry and "job" in entry
                   for entry in logged)
        # replaying the log is a full resubmit: all hits
        with _client(server) as client:
            replayed = client.submit_many([e["job"] for e in logged])
        assert all(r.cached for r in replayed)

    def test_bad_submit_gets_error_without_closing_connection(self, server):
        with _client(server) as client:
            bad, good = client.submit_many([
                {"test": {"name": "definitely-not-a-test"}},
                make_job(test={"name": "SB"})])
            assert not bad.ok and "unknown litmus test" in \
                str(bad.error["message"])
            assert good.ok
            # connection still healthy
            assert client.ping() == "repro-serve/1"

    def test_an_unbuildable_inline_test_is_answered(self, server):
        with _RawConnection(server, timeout=10) as raw:
            raw.send(*[{"op": "submit", "id": n, "job": job}
                       for n, job in enumerate(UNANSWERED_JOBS)])
            replies = raw.read(len(UNANSWERED_JOBS))
            raw.send({"op": "ping", "id": "after"})
            (pong,) = raw.read(1)
        assert sorted(reply["id"] for reply in replies) == [0, 1]
        assert not any(reply["ok"] for reply in replies)
        assert (pong["event"], pong["id"]) == ("pong", "after")

    def test_hit_miss_and_coalesced_each_answer_accepted_then_result(
            self, server):
        job = make_job(test={"name": "LB"}, model="PC")
        with _RawConnection(server) as raw:
            # two identical submits in one segment: the second finds the
            # first in flight
            raw.send({"op": "submit", "id": "miss", "job": job},
                     {"op": "submit", "id": "merged", "job": job})
            frames = raw.read(4)
            raw.send({"op": "submit", "id": "hit", "job": job})
            frames += raw.read(2)
        by_id = {}
        for frame in frames:
            by_id.setdefault(frame["id"], []).append(frame)
        assert sorted(by_id) == ["hit", "merged", "miss"]
        for msg_id, (accepted, result) in by_id.items():
            assert accepted["event"] == "accepted", msg_id
            assert result["event"] == "result" and result["ok"], msg_id
            assert accepted["request_sha256"] == result["request_sha256"] \
                == job_hash(job)
        flags = {msg_id: (pair[1]["cached"], pair[1]["coalesced"])
                 for msg_id, pair in by_id.items()}
        assert flags == {"miss": (False, False), "merged": (False, True),
                         "hit": (True, False)}
        assert len({json.dumps(pair[1]["result"], sort_keys=True)
                    for pair in by_id.values()}) == 1

    def test_every_hit_lands_one_log_line_and_one_ledger_record(self, server):
        srv, _, _ = server
        job = make_job(test={"name": "WRC"})
        hits = 25
        with _RawConnection(server) as raw:
            raw.send({"op": "submit", "id": 0, "job": job})
            raw.read(2)
            before = (_line_count(srv.ledger_path),
                      _line_count(srv.request_log_path))
            for n in range(1, hits + 1):
                raw.send({"op": "submit", "id": n, "job": job})
                accepted, result = raw.read(2)
                assert (accepted["event"], accepted["id"]) == ("accepted", n)
                assert (result["event"], result["id"]) == ("result", n)
                assert result["cached"]
        assert before == (1, 1)
        assert _line_count(srv.ledger_path) == 1 + hits
        assert _line_count(srv.request_log_path) == 1 + hits
        records, skipped = ledger.read_ledger(srv.ledger_path)
        assert skipped == 0 and len(records) == 1 + hits

    def test_logs_survive_rotation_under_a_live_server(self, server):
        srv, _, _ = server
        job = make_job(test={"name": "MP"})
        with _client(server) as client:
            client.submit(job)
            for path in (srv.ledger_path, srv.request_log_path):
                os.rename(path, path + ".1")
            client.submit(job)
            client.submit(job)
        for path in (srv.ledger_path, srv.request_log_path):
            assert (_line_count(path + ".1"), _line_count(path)) == (1, 2)

    def test_a_hit_shares_one_write_and_a_miss_is_accepted_at_once(
            self, tmp_path):
        srv = ServeServer(store=ResultStore(str(tmp_path / "store")),
                          ledger=False, request_log=False)
        writes = []

        async def send(*messages):
            writes.append([(m["event"], m["id"]) for m in messages])

        async def submit(msg_id):
            await srv._handle_submit(
                {"op": "submit", "id": msg_id,
                 "job": make_job(test={"name": "SB"})}, send)

        async def body():
            await asyncio.gather(submit("miss"), submit("merged"))
            await submit("hit")

        try:
            asyncio.run(body())
        finally:
            srv.executor.shutdown()
        assert writes == [
            [("accepted", "miss")], [("accepted", "merged")],
            [("result", "miss")], [("result", "merged")],
            [("accepted", "hit"), ("result", "hit")]]

    def test_frame_above_the_asyncio_default_is_served(self, server):
        # 100 KiB: over StreamReader's default 64 KiB limit, far under
        # MAX_FRAME_BYTES; the handler used to die on it
        srv, _, _ = server
        with _RawConnection(server) as raw:
            raw.send({"op": "submit", "id": "big", "pad": "x" * 100 * 1024,
                      "job": make_job(test={"name": "SB"})})
            accepted, result = raw.read(2)
            raw.send({"op": "ping", "id": "after"})
            (pong,) = raw.read(1)
        assert (accepted["event"], result["event"]) == ("accepted", "result")
        assert result["ok"] and result["id"] == "big"
        assert (pong["event"], pong["id"]) == ("pong", "after")
        assert srv.counters["bad_requests"] == 0

    @pytest.mark.parametrize("excess", [3, 300 * 1024])
    def test_oversized_frame_is_a_typed_error_on_a_usable_connection(
            self, server, excess):
        # a few bytes over (the newline is in the buffer when the limit
        # trips) and several socket reads over (it is not)
        srv, _, _ = server
        with _RawConnection(server) as raw:
            raw.send(b'{"op":"ping","pad":"'
                     + b"x" * (MAX_FRAME_BYTES + excess) + b'"}\n',
                     {"op": "ping", "id": "after"})
            error, pong = raw.read(2)
        assert error == {"ok": False,
                         "error": f"frame exceeds {MAX_FRAME_BYTES} bytes"}
        assert (pong["event"], pong["id"]) == ("pong", "after")
        assert srv.counters["bad_requests"] == 1

    def test_stats_and_metrics_ops(self, server):
        with _client(server) as client:
            client.submit(make_job(test={"name": "SB"}))
            stats = client.stats()
            assert stats["counters"]["requests"] == 1
            assert stats["store"]["objects"] == 1
            prom = client.metrics().splitlines()
        # a server's metrics are its own: the same registry stats() reads
        assert "repro_serve_requests_total 1" in prom
        assert "repro_serve_cache_misses_total 1" in prom
        assert "repro_serve_simulations_total 1" in prom
        assert "repro_serve_store_puts_total 1" in prom
        assert "repro_serve_job_ms_count 1" in prom
        assert 'repro_serve_job_ms_bucket{le="+Inf"} 1' in prom

    def test_two_servers_in_one_process_count_only_their_own(self, tmp_path):
        """``metrics`` and ``stats`` are two views of the server's own
        registry, which no other server in the process counts into."""
        def counter_lines(client):
            counters = client.stats()["counters"]
            prom = client.metrics().splitlines()
            for name, value in counters.items():
                assert f"repro_serve_{name}_total {value}" in prom
            return counters

        handles = [ServerThread(ServeServer(
            store=ResultStore(str(tmp_path / f"store-{tag}")),
            ledger=False, request_log=False)) for tag in "ab"]
        (host_a, port_a), (host_b, port_b) = [h.start() for h in handles]
        try:
            with ServeClient(host_a, port_a) as a, \
                    ServeClient(host_b, port_b) as b:
                assert a.submit(make_job(test={"name": "SB"})).ok
                assert counter_lines(a)["requests"] == 1
                assert counter_lines(b)["requests"] == 0
                handles.pop(0).stop()
                # stopping one leaves the other counting
                for name in ("MP", "LB"):
                    assert b.submit(make_job(test={"name": name})).ok
                counts = counter_lines(b)
                assert (counts["requests"], counts["executed"]) == (2, 2)
        finally:
            for handle in handles:
                handle.stop()

    def test_server_restart_serves_from_persisted_store(self, tmp_path):
        job = make_job(test={"name": "LB"}, model="PC")
        store_root = str(tmp_path / "store")

        def one_server_pass():
            srv = ServeServer(store=ResultStore(store_root), ledger=False)
            handle = ServerThread(srv)
            host, port = handle.start()
            try:
                with ServeClient(host, port) as client:
                    return client.submit(job), srv.counters["executed"]
            finally:
                handle.stop()

        first, executed_first = one_server_pass()
        second, executed_second = one_server_pass()
        assert executed_first == 1 and executed_second == 0
        assert second.cached and second.result == first.result


# ----------------------------------------------------------------------
# verify --server
# ----------------------------------------------------------------------

class TestVerifyThroughServer:
    def test_suite_leg_checks_pass_through_server(self, server):
        from repro.verify.harness import HarnessConfig, check_test
        from repro.consistency.litmus import STANDARD_TESTS

        _, host, port = server
        config = HarnessConfig(models=("SC", "WC"),
                               techniques=((False, False), (True, True)),
                               server=f"{host}:{port}")
        result = check_test(STANDARD_TESTS["SB"](), config)
        assert result.ok
        assert result.num_runs == 2 * 2 * len(config.run_configs)

    def test_fault_with_server_rejected(self, server):
        from repro.sim.errors import ConfigurationError
        from repro.verify.harness import HarnessConfig, check_test
        from repro.consistency.litmus import STANDARD_TESTS

        _, host, port = server
        config = HarnessConfig(server=f"{host}:{port}", fault="slb-deaf")
        with pytest.raises(ConfigurationError):
            check_test(STANDARD_TESTS["SB"](), config)


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------

class TestLoadgen:
    def test_job_mix_is_deterministic(self):
        assert build_job_mix(10, seed=1) == build_job_mix(10, seed=1)
        assert build_job_mix(10, seed=1) != build_job_mix(10, seed=2)

    def test_unique_mix_has_distinct_cache_keys(self):
        shas = [job_hash(j) for j in build_job_mix(40, seed=0, unique=True)]
        assert len(set(shas)) == 40

    def test_percentile(self):
        assert percentile([5.0], 50) == 5.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_closed_loop_reports(self, server):
        _, host, port = server
        report = run_closed_loop(host, port, build_job_mix(8, seed=6),
                                 clients=2)
        assert report.completed == 8 and report.errors == 0
        pcts = report.latency_percentiles()
        assert 0 < pcts["p50"] <= pcts["p90"] <= pcts["p99"] <= pcts["max"]
        assert report.to_dict()["mode"] == "closed"

    def test_open_loop_reports(self, server):
        _, host, port = server
        report = run_open_loop(host, port, build_job_mix(6, seed=6),
                               rate=500.0)
        assert report.completed == 6 and report.errors == 0
        assert report.latencies and report.to_dict()["mode"] == "open"

    def test_warm_cache_p50_at_least_10x_below_cold(self, server):
        # the acceptance bar for the whole serving stack: answering
        # from the content-addressed store must be an order of
        # magnitude faster than simulating — simulating what the mix
        # stands for, sweep legs of a few thousand cycles (the comment
        # on MIX_RUN_CONFIG).  Both p50s are the server's own time per
        # job, ``wall_seconds`` on each result frame: a simulation takes
        # a few milliseconds, and the loopback and client cost of a
        # request, the same for both passes, would blur the comparison
        srv, host, port = server
        jobs = [make_job(test=job["test"], model=job["model"],
                         prefetch=job["prefetch"],
                         speculation=job["speculation"],
                         run_config={**job["run_config"], "skew": [0, 1500]})
                for job in build_job_mix(12, seed=8)]

        def server_p50(cached):
            with ServeClient(host, port) as client:
                results = [client.submit(job) for job in jobs]
            assert all(r.ok and r.cached is cached for r in results)
            return percentile([r.wall_seconds for r in results], 50)

        cold_p50 = server_p50(cached=False)
        warm_p50 = server_p50(cached=True)
        assert warm_p50 * 10 <= cold_p50, (
            f"warm p50 {warm_p50:.6f}s not 10x below cold p50 "
            f"{cold_p50:.6f}s")


# ----------------------------------------------------------------------
# Executor lifetime
# ----------------------------------------------------------------------

class TestExecutorLifetime:
    def test_one_pool_serves_every_submission(self, tmp_path):
        jobs = build_job_mix(12, seed=4, unique=True)
        with _live_server(tmp_path, "pool") as server:
            with _client(server) as client:
                assert all(r.ok for r in client.submit_many(jobs[:6]))
                workers = _worker_pids()
                assert len(workers) == 2
                assert all(r.ok for r in client.submit_many(jobs[6:]))
                assert _worker_pids() == workers
        assert _worker_pids() == set()

    def test_pool_that_lost_a_worker_is_replaced(self, tmp_path):
        first, second = build_job_mix(2, seed=4, unique=True)
        with _live_server(tmp_path, "pool") as server:
            with _client(server) as client:
                assert client.submit(first).ok
                workers = _worker_pids()
                os.kill(min(workers), signal.SIGKILL)
                # the pool notices, gives up and reaps its other worker
                deadline = time.monotonic() + 30.0
                while _worker_pids() & workers:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                served = client.submit(second)
                assert served.ok and served.result == execute_job(second)
                assert not _worker_pids() & workers

    def test_stop_is_quiet(self, tmp_path, caplog):
        for round_ in range(20):
            with _live_server(tmp_path, "serial") as server:
                client = _client(server)
                assert client.ping() == "repro-serve/1"
                if round_ % 2:
                    client.close()  # else: still connected when it stops
            client.close()
        assert [r.getMessage() for r in caplog.records
                if r.name == "asyncio"] == []


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------

class TestServeCli:
    def test_jobs_picks_the_executor_and_the_pool_serves(self, tmp_path):
        # the worker count alone picks the executor kind
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "serve", "--port", "0",
             "--jobs", "2", "--store", str(tmp_path / "store"),
             "--no-ledger"],
            stdout=subprocess.PIPE, text=True,
            env=child_env())
        try:
            banner = proc.stdout.readline()
            match = re.match(r"serving on (\S+):(\d+) \(executor=(\w+),",
                             banner)
            assert match and match.group(3) == "pool", banner
            with ServeClient(match.group(1), int(match.group(2))) as client:
                results = client.submit_many(build_job_mix(4, seed=2))
                assert all(r.ok for r in results)
                client.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            proc.kill()
            proc.stdout.close()
            proc.wait(timeout=30)

    @pytest.mark.parametrize("command", [
        ["stats"], ["metrics"], ["shutdown"],
        ["submit", "--connect-timeout", "0.2"],
        ["replay", "LOG", "--connect-timeout", "0.2"],
        ["loadgen", "--count", "2"],
        ["loadgen", "--mode", "open", "--count", "2"],
    ])
    def test_unreachable_server_exits_2(self, command, tmp_path, capsys):
        import socket

        from repro.serve.cli import main

        log = tmp_path / "requests.jsonl"
        log.write_text(json.dumps({"job": make_job(test={"name": "SB"})}))
        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        argv = [str(log) if arg == "LOG" else arg for arg in command]
        assert main(argv + ["--port", str(port)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_executor_flag_is_gone(self, capsys):
        from repro.serve.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--executor", "pool"])
        assert "--executor" in capsys.readouterr().err
        args = build_parser().parse_args(["serve"])
        assert args.jobs == 1
