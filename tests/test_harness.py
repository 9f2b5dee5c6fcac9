"""Sweep harness: every claim confirms at reduced scale, reports are stable."""

import json
import os
from dataclasses import fields, replace

import pytest

from pelltuples import harness
from pelltuples.harness import (
    CLAIM_OPTIONS,
    CLAIMS,
    CONFIRMED,
    ClaimReport,
    SweepConfig,
    deep_dec,
    fifumi_b_values,
    odd_primes_upto,
    run_claim,
)


def test_odd_primes_upto():
    assert odd_primes_upto(20) == [3, 5, 7, 11, 13, 17, 19]
    assert odd_primes_upto(2) == []


def test_deep_dec():
    assert deep_dec(5) == "5"
    assert deep_dec(True) is True
    assert deep_dec({"a": [1, (2, 3)]}) == {"a": ["1", ["2", "3"]]}
    assert deep_dec({"a": [1, 2]}) == {"a": ["1", "2"]}
    assert deep_dec("x") == "x"


def test_fifumi_b_values():
    vals = fifumi_b_values(200)
    assert set(vals) >= {5, 10, 17, 26, 37, 50, 82, 101, 122, 170, 197}
    for b in vals:
        assert b <= 200


def test_claims_registry_complete():
    assert set(CLAIMS) == {
        "tm1", "p2-prop", "fujita", "dubo", "worley", "lemma3", "prop26",
        "fifumi-desk", "tm-ii-1-desk", "tm-ii-2", "pairs",
    }
    assert set(CLAIM_OPTIONS) == set(CLAIMS)
    names = {f.name for f in fields(SweepConfig)}
    assert all(set(opts) <= names for opts in CLAIM_OPTIONS.values())


SMALL = {
    "tm1": SweepConfig(p_max=7, k_max=1),
    "p2-prop": SweepConfig(),
    "fujita": SweepConfig(limit=10),
    "dubo": SweepConfig(samples=50, seed=1),
    "worley": SweepConfig(seed=1),
    "lemma3": SweepConfig(samples=100, seed=1),
    "prop26": SweepConfig(n_max=4, j_max=2),
    "fifumi-desk": SweepConfig(c_max=500),
    "tm-ii-1-desk": SweepConfig(limit=20),
    "tm-ii-2": SweepConfig(),
    "pairs": SweepConfig(limit=50),
}


@pytest.mark.parametrize("claim_id", sorted(CLAIMS))
def test_claim_confirms_small(claim_id):
    rep = run_claim(claim_id, SMALL[claim_id])
    assert isinstance(rep, ClaimReport)
    assert rep.status == CONFIRMED, rep.body()
    assert rep.evidence, claim_id


@pytest.mark.parametrize("claim_id", sorted(CLAIMS))
def test_claim_reads_no_other_option(claim_id):
    # verify rejects every option outside CLAIM_OPTIONS, so none may change a
    # body (workers never does, so it is not varied here)
    base = SMALL[claim_id]
    body = run_claim(claim_id, base).body()
    for f in fields(SweepConfig):
        if f.name not in CLAIM_OPTIONS[claim_id] and f.name != "workers":
            varied = replace(base, **{f.name: 7})
            assert run_claim(claim_id, varied).body() == body, (claim_id, f.name)


def test_report_json_shape():
    rep = run_claim("pairs", SweepConfig(limit=50))
    doc = json.loads(rep.to_json())
    assert set(doc) >= {"claim_id", "status", "config", "header", "evidence"}
    assert doc["header"]["version"]
    # elapsed lives in the header only; the body is elapsed-free.
    assert "elapsed" not in json.dumps(rep.body())


def test_evidence_replays():
    rep = run_claim("tm-ii-2", SweepConfig())
    for rec in rep.evidence:
        assert rec.get("status") in (None, "ok") or rec.get("ok") in (None, True)


def test_pool_capped_by_items_and_cpus(monkeypatch):
    # the fork start method launches every worker up front, so --workers 5000
    # must not ask for 5000 processes; a serial fake stands in for the pool
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    items = list(range(-15, 0))
    for cpus, expect in ((4, [4]), (64, [15]), (None, []), (1, [])):
        asked.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert harness._map_ordered(abs, items, 5000) == list(range(15, 0, -1))
        assert asked == expect, cpus
