"""The namespaced store, and that no HTTP route reads or writes it."""

import json

import pytest

from repro.api import Session
from repro.engine.keys import SCHEMA_VERSION
from repro.serve import LocalBackend, ServeClient, check_namespace
from repro.workloads import benchmark_programs

KEY_A = "a" * 64
KEY_B = "b" * 64


@pytest.mark.parametrize("bad", ["", "..", ".", "a/b", "x" * 65, "a b",
                                 "../../etc"])
def test_check_namespace_rejects_hostile_names(bad):
    with pytest.raises(ValueError):
        check_namespace(bad)


def test_check_namespace_accepts_sane_names():
    for name in ("default", "alice", "team-7", "a.b_c"):
        assert check_namespace(name) == name


def test_local_namespaces_are_isolated(tmp_path):
    backend = LocalBackend(tmp_path)
    backend.put("alice", KEY_A, {"who": "alice"})
    backend.put("bob", KEY_A, {"who": "bob"})
    assert backend.get("alice", KEY_A) == {"who": "alice"}
    assert backend.get("bob", KEY_A) == {"who": "bob"}
    assert backend.get("carol", KEY_A) is None


def test_default_namespace_is_the_plain_root(tmp_path):
    # A pre-service .repro-cache/ root keeps working verbatim as the
    # "default" namespace.
    backend = LocalBackend(tmp_path)
    backend.put("default", KEY_A, {"x": 1})
    shard = tmp_path / KEY_A[:2] / f"{KEY_A}.json"
    assert shard.is_file()
    assert backend.get("default", KEY_A) == {"x": 1}


def test_stats_break_down_per_namespace(tmp_path):
    backend = LocalBackend(tmp_path)
    backend.put("alice", KEY_A, {"x": 1})
    backend.put("alice", KEY_B, {"x": 2})
    backend.put("bob", KEY_A, {"x": 3})
    stats = backend.stats()
    assert stats["namespaces"]["alice"]["entries"] == 2
    assert stats["namespaces"]["bob"]["entries"] == 1
    assert stats["entries"] == 3
    assert stats["total_bytes"] > 0


def test_corrupted_namespace_entry_reads_as_miss(tmp_path):
    backend = LocalBackend(tmp_path)
    backend.put("alice", KEY_A, {"x": 1})
    path = backend.namespace_root("alice") / KEY_A[:2] / f"{KEY_A}.json"
    path.write_text(json.dumps({"schema": -1, "key": KEY_A,
                                "payload": {}}))
    assert backend.get("alice", KEY_A) is None


def test_no_route_writes_a_tenant_namespace(server, tmp_path):
    """Only the worker fleet writes a tenant namespace: another client
    can neither read an entry by key nor overwrite it, so a later
    identical run reports what the first one did."""
    grep = {"grep": benchmark_programs(0.02)["grep"]}

    def run() -> dict:
        with Session(remote=server.url, tenant="alice", cache=None) as s:
            runs = s.run_suite(0.02, benchmarks=grep)
        return {name: run.to_dict() for name, run in runs.items()}

    first = run()
    namespace = tmp_path / "cache" / "ns" / "alice"
    before = {path: path.read_bytes()
              for path in sorted(namespace.glob("??/*.json"))}
    assert len(before) == 5                         # one entry per scheme

    mallory = ServeClient(server.url, tenant="mallory")
    for path, raw in before.items():
        entry = json.loads(raw)
        key = entry["key"]
        status, _ = mallory._request("GET", f"/v1/cache/alice/{key}")
        assert status == 404
        forged = entry["payload"]
        forged["stats"]["cycles"] //= 2             # doubles the IPC
        status, _ = mallory._request(
            "PUT", f"/v1/cache/alice/{key}",
            {"schema": SCHEMA_VERSION, "key": key, "payload": forged})
        assert not 200 <= status < 300

    after = {path: path.read_bytes()
             for path in sorted(namespace.glob("??/*.json"))}
    assert after == before
    assert run() == first
