"""Sweep harness: every claim confirms at reduced scale, reports are stable."""

import json

import pytest

from pelltuples.harness import (
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
