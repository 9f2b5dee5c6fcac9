"""Sweep harness: every claim confirms at reduced scale, reports are stable."""

import ast
import hashlib
import inspect
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelltuples import contfrac, harness, pellian
from pelltuples.cli import main
from pelltuples.harness import (
    CLAIM_OPTIONS,
    CLAIMS,
    CONFIRMED,
    VIOLATED,
    ClaimReport,
    SweepConfig,
    dump_json,
    fifumi_b_values,
    odd_primes_upto,
    run_claim,
)


def test_odd_primes_upto():
    assert odd_primes_upto(20) == [3, 5, 7, 11, 13, 17, 19]
    assert odd_primes_upto(2) == []


def test_deep_dec():
    # the writer's own rules: a bool stays a bool, an int becomes a string, a
    # tuple or other iterator an array, and a str stays as it is
    assert dump_json(5, True) == '"5"'
    assert dump_json(True, True) == "true"
    assert dump_json({"a": [1, (2, 3)]}, True) == '{"a":["1",["2","3"]]}'
    assert dump_json({"a": [1, 2]}, False) == '{\n  "a": [\n    "1",\n    "2"\n  ]\n}'
    assert dump_json({"a": iter([1, 2])}, False) == dump_json({"a": [1, 2]}, False)
    assert dump_json({"a": iter(()), "b": {}}, False) == '{\n  "a": [],\n  "b": {}\n}'
    assert dump_json("x", True) == '"x"'


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
    names = set(SweepConfig._fields)
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
def test_claim_reads_no_other_option(claim_id, monkeypatch):
    # a set option outside CLAIM_OPTIONS raises before the sweep starts: the
    # claim function is swapped for one that raises if called.  Each option
    # the claim reads reaches it, alone and all together.
    read = CLAIM_OPTIONS[claim_id]
    unread = [name for name in SweepConfig._fields if name not in read]

    def no_sweep(**given):
        raise AssertionError(f"{claim_id} swept with {given}")

    monkeypatch.setitem(CLAIMS, claim_id, no_sweep)
    for name in unread:
        with pytest.raises(ValueError, match=f"^{claim_id} does not read {name}$"):
            run_claim(claim_id, SMALL[claim_id]._replace(**{name: 1}))
    with pytest.raises(ValueError, match=f"^{claim_id} does not read {', '.join(unread)}$"):
        run_claim(claim_id, SweepConfig(**dict.fromkeys(SweepConfig._fields, 1)))
    swept = []

    def record(**given):
        swept.append(given)
        return ClaimReport(claim_id, CONFIRMED, given, [])

    monkeypatch.setitem(CLAIMS, claim_id, record)
    for name in read:
        run_claim(claim_id, SweepConfig(**{name: 1}))
    run_claim(claim_id, SweepConfig(**dict.fromkeys(read, 2)))
    run_claim(claim_id, SweepConfig())
    assert swept == [*({name: 1} for name in read), dict.fromkeys(read, 2), {}]


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

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    items = list(range(-15, 0))
    for cpus, expect in ((4, [4]), (64, [15]), (None, []), (1, [])):
        asked.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert harness._map_ordered(abs, items, 5000) == list(range(15, 0, -1))
        assert asked == expect, cpus


def test_pool_modules_load_only_when_a_sweep_runs_a_pool():
    # a fresh interpreter: importing the package and its CLI leaves the pool's
    # modules unloaded; a two-worker sweep loads them (cpu_count is pinned to 2
    # so that a one-CPU host still runs the pool)
    code = ("import json, os, sys\n"
            "bare = set(sys.modules)\n"
            "import pelltuples, pelltuples.cli\n"
            "pool = ['multiprocessing', 'concurrent.futures']\n"
            "cold = [m for m in pool if m in sys.modules and m not in bare]\n"
            "from pelltuples.harness import SweepConfig, run_claim\n"
            "os.cpu_count = lambda: 2\n"
            "rep = run_claim('fujita', SweepConfig(limit=12, workers=2))\n"
            "print(json.dumps([cold, rep.status,"
            " 'concurrent.futures.process' in sys.modules]))\n")
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert json.loads(out) == [[], CONFIRMED, True]


def _cold_import(code: str, *flags: str):
    """The JSON that a fresh interpreter, started with flags, prints when it
    has imported the package and its CLI (and json and sys) and then runs code."""
    code = f"import json, sys\nimport pelltuples, pelltuples.cli\n{code}"
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, *flags, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return json.loads(out)


def test_fraction_modules_load_only_when_worley_runs():
    # a fresh interpreter: importing the package and its CLI leaves fractions
    # and the modules it brings unloaded; the worley sweep, the one claim with
    # a rational value, loads them
    code = ("exact = ['fractions', 'decimal', 'numbers']\n"
            "cold = [m for m in exact if m in sys.modules]\n"
            "from pelltuples.harness import SweepConfig, run_claim\n"
            "rep = run_claim('worley', SweepConfig())\n"
            "print(json.dumps([cold, rep.status,"
            " [m for m in exact if m in sys.modules]]))\n")
    assert _cold_import(code) == [[], CONFIRMED, ["fractions", "decimal", "numbers"]]


def test_cold_import_loads_no_dataclasses_or_inspect():
    # every record is a namedtuple or a slotted class; typing and random are
    # pinned only under -S below, since a site hook may load them before any
    # user code
    loaded = _cold_import("print(json.dumps([m for m in ('dataclasses', 'inspect')"
                          " if m in sys.modules]))")
    assert loaded == []


def test_cold_import_without_site_loads_no_random():
    # python -S runs no site hook, so nothing else loads random: the sampled
    # claims import it when they run, and the dubo sweep loads it
    code = ("cold = 'random' in sys.modules\n"
            "from pelltuples.harness import SweepConfig, run_claim\n"
            "rep = run_claim('dubo', SweepConfig(samples=5))\n"
            "print(json.dumps([cold, rep.status, 'random' in sys.modules]))\n")
    assert _cold_import(code, "-S") == [False, CONFIRMED, True]


def test_cold_import_without_site_loads_no_typing():
    # every record is a collections.namedtuple or a slotted class, so nothing
    # the package and its CLI import at start-up loads typing
    assert _cold_import("print(json.dumps('typing' in sys.modules))", "-S") is False


def test_no_module_imports_typing():
    # read off the source, so it holds on a host whose site preloads typing
    src = os.path.dirname(harness.__file__)
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "typing" for m in modules), (name, node.lineno)


def test_import_keeps_the_int_str_limit():
    # only the CLI's main() lifts the limit: importing the library changes no
    # process-wide setting
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no int-str conversion limit in this Python")
    code = "import sys; print(sys.get_int_max_str_digits())"
    fresh = subprocess.run([sys.executable, "-c", code], check=True,
                           capture_output=True, text=True, timeout=60).stdout
    assert _cold_import(code) == int(fresh) > 0


def test_claim_options_are_sweep_fields():
    # a claim's options are its keyword parameters; each is a SweepConfig field
    # with an int default, and no field is a knob that no claim reads
    names = set(SweepConfig._fields)
    read = set()
    for claim_id, fn in CLAIMS.items():
        params = inspect.signature(fn).parameters
        for name, par in params.items():
            assert name in names, (claim_id, name)
            assert type(par.default) is int, (claim_id, name)
            read.add(name)
        assert CLAIM_OPTIONS[claim_id] == {n: par.default for n, par in params.items()}
    assert read == names


def test_claim_options_are_keyword_only():
    # CLAIM_OPTIONS reads __kwdefaults__, which a positional parameter is
    # missing from: its option would drop out of SweepConfig and verify
    for claim_id, fn in CLAIMS.items():
        for name, par in inspect.signature(fn).parameters.items():
            assert par.kind is inspect.Parameter.KEYWORD_ONLY, (claim_id, name)


def test_sweep_config_pickles():
    # a process pool pickles what it is sent; namedtuple names the module
    cfg = SweepConfig(p_max=7)
    assert SweepConfig.__module__ == "pelltuples.harness"
    assert pickle.loads(pickle.dumps(cfg)) == cfg


#: SHA-256 of dump_json(body, compact=True) for every claim at its defaults:
#: the behaviour contract a refactor must keep byte for byte
BODY_SHA256 = {
    "dubo": "6efb651959bab96915654834f1159e8939f68388c348d30062f904321b7bb2e5",
    "fifumi-desk": "035121ba3e824b252ca979791cd78ba2c973b88373834b11a1d804cc8bbd10dd",
    "fujita": "cbd7132964306697f49a2da39e2e2b963c1de17008bdec0ffc9956fea5f66078",
    "lemma3": "1784b93c11c03263b449c408716b038485de7aa6ee360af7fad52e79ea53312f",
    "p2-prop": "7b224e5b501958c6d8da30161e3173597f7ace568846d8d25da40c4e948a0a35",
    "pairs": "ae517cd10ecb88b96d3c77e982bd10b89b7a4519bf16fea51c713486a39881cf",
    "prop26": "e96edf830268da924d2edc39609654f4669ef1541f0c7f13aff9ab279b5e5ff4",
    "tm-ii-1-desk": "671e2ae2f6e0181f22e1a8b80ee3592b3ddcd5d681926edeacfd213f6d277075",
    "tm-ii-2": "c79d7bd0559aa65d2b8375635959885927352feb01225377da7db529805cf4a4",
    "tm1": "400fd8f0478d738abed9035c19e66cdcaee84ff9874976a6ef4523b568f7f6c3",
    "worley": "11147b2560871fc2751e42496426f4996f632e1aa65af536c53e4ae8c32eb756",
}


@pytest.mark.parametrize("claim_id", sorted(CLAIMS))
def test_default_body_pinned(claim_id):
    body = dump_json(run_claim(claim_id, SweepConfig()).body(), compact=True)
    assert hashlib.sha256(body.encode()).hexdigest() == BODY_SHA256[claim_id]


#: the same for the two quadruple searches at c_max = 10^8, from the search
#: that scanned every x <= isqrt(c_max - 1)
C_MAX_BODY_SHA256 = {
    "fifumi-desk": "8ef5ac7a2da918a88037fe92845549ca3c28fc8a8966d63b2c55b9f2ae0b70fe",
    "tm-ii-1-desk": "671e2ae2f6e0181f22e1a8b80ee3592b3ddcd5d681926edeacfd213f6d277075",
}


@pytest.mark.parametrize("claim_id", sorted(C_MAX_BODY_SHA256))
def test_c_max_body_pinned(claim_id):
    body = dump_json(run_claim(claim_id, SweepConfig(c_max=10**8)).body(), compact=True)
    assert hashlib.sha256(body.encode()).hexdigest() == C_MAX_BODY_SHA256[claim_id]


def test_dubo_body_pinned_at_2000_samples():
    # computed while lemma_db_check expanded sqrt(alpha*beta)/beta a second time
    body = dump_json(run_claim("dubo", SweepConfig(samples=2000)).body(), compact=True)
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "e329ddcb3fd7de64980372ab1ae57ebed595a2900fc42515ef011f478218c902")


def test_tm1_body_pinned_at_p300_k5():
    # computed while square roots mod p^e were lifted one power of p at a time
    body = dump_json(run_claim("tm1", SweepConfig(p_max=300, k_max=5)).body(), compact=True)
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "dc2dfeb28a86c82736092d37eb47241a9a52b95aab96f16bdebd7055bd8cfe1d")


def test_dubo_expands_each_sample_once(monkeypatch):
    calls = []
    expand = contfrac.expand

    def counting_expand(alpha):
        calls.append(alpha)
        return expand(alpha)

    monkeypatch.setattr(harness, "expand", counting_expand)
    monkeypatch.setattr(contfrac, "expand", counting_expand)
    assert run_claim("dubo", SweepConfig(samples=50)).status == CONFIRMED
    assert len(calls) == 50


def test_tm1_runs_each_residue_check_once():
    # 14 odd primes p <= 50 and k <= 3: the sweep's own residue record misses,
    # and the decider's residue and descent routes hit (0, 1, 1, 2 per k)
    pellian.case2_residue_search.cache_clear()
    run_claim("tm1", SweepConfig())
    info = pellian.case2_residue_search.cache_info()
    assert (info.misses, info.hits) == (56, 56)
    pellian.case2_residue_search.cache_clear()


def test_tm1_workers_merge_order_matches_serial(monkeypatch):
    # each pool worker keeps its own walk memo and residue-check cache, both
    # cleared first so that no worker starts warm; the merged body is the
    # serial one
    # (cpu_count is pinned to 2 so that a one-CPU host still runs the pool)
    import concurrent.futures

    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pellian.case2_residue_search.cache_clear()
    pellian._pqa_first_hit.cache_clear()
    parallel = run_claim("tm1", SweepConfig(p_max=23, k_max=2, workers=2))
    serial = run_claim("tm1", SweepConfig(p_max=23, k_max=2, workers=1))
    assert pools == [2] and serial.status == CONFIRMED
    assert serial.body() == parallel.body()


def test_tm1_reports_residue_hit(monkeypatch):
    # a Case 2 hit at (p, k) = (3, 1) would make the decider raise for l = 1:
    # the sweep records the hit, skips the decider at that k and goes on
    residue_hits = pellian._residue_hits
    monkeypatch.setattr(pellian, "_residue_hits", lambda p, k, targets: (
        ((1, 0, 0, 1),) if (p, k) == (3, 1) else residue_hits(p, k, targets)))
    pellian.case2_residue_search.cache_clear()
    try:
        report = run_claim("tm1", SweepConfig())
        code = main(["verify", "tm1"])
    finally:
        pellian.case2_residue_search.cache_clear()
    assert report.status == VIOLATED and code == 1
    bad = [rec for rec in report.evidence if not rec["ok"]]
    assert bad == [{"p": 3, "k": 1, "kind": "residue-search",
                    "hits": [(1, 0, 0, 1)], "ok": False}]
    decided = [rec["k"] for rec in report.evidence if rec["p"] == 3 and rec["kind"] == "decision"]
    assert decided == [0, 2, 2, 2, 3, 3, 3, 3]


def test_worley_expands_each_irrational_once(monkeypatch):
    # 10 irrationals; worley_candidates reads the claim's expansion
    calls = []
    expand = contfrac.expand

    def counting_expand(alpha):
        calls.append(alpha)
        return expand(alpha)

    monkeypatch.setattr(harness, "expand", counting_expand)
    monkeypatch.setattr(contfrac, "expand", counting_expand)
    assert harness.claim_worley().status == CONFIRMED
    assert len(calls) == 10


def test_prop26_rechecks_only_proper_subrings(monkeypatch):
    # prop_family(n, j, 1) has checked t = n^2 already; the claim re-checks each
    # verified quadruple (second element n^2 + 1) in Z[m*i] for m | n, m < n only
    ts = []
    check_tuple = harness.check_tuple

    def counting_check_tuple(elems, n, t):
        ts.append((elems[1] - 1, t))
        return check_tuple(elems, n, t)

    monkeypatch.setattr(harness, "check_tuple", counting_check_tuple)
    assert run_claim("prop26", SweepConfig()).status == CONFIRMED
    assert len(ts) == 414
    assert all(t < n_sq for n_sq, t in ts)


# Each claim's failure path, planted: the status and the record that explains it.


def test_prop26_reports_subring_failure(monkeypatch):
    # Z[i] (m = 1) turned against every quadruple: each branch of n >= 2 fails
    check_tuple = harness.check_tuple

    def failing_at_t_1(elems, n, t):
        rep = check_tuple(elems, n, t)
        return rep._replace(verified=False) if t == 1 else rep

    monkeypatch.setattr(harness, "check_tuple", failing_at_t_1)
    report = harness.claim_prop26()
    assert report.status == VIOLATED
    failed = [rec for rec in report.evidence if "subring_failures" in rec]
    assert failed[0]["n"] == 2 and all(rec["subring_failures"] == [1] for rec in failed)
    assert failed == [rec for rec in report.evidence if rec["verified"] and rec["n"] >= 2]
    assert main(["verify", "prop26"]) == 1


def test_prop26_reports_every_failing_subring(monkeypatch):
    # every subring check fails: a branch lists each divisor m < n, in order
    check_tuple = harness.check_tuple
    monkeypatch.setattr(harness, "check_tuple",
                        lambda elems, n, t: check_tuple(elems, n, t)._replace(verified=False))
    report = harness.claim_prop26(n_max=6, j_max=1)
    assert report.status == VIOLATED
    failed = [(rec["n"], rec["subring_failures"]) for rec in report.evidence
              if "subring_failures" in rec]
    assert failed == [(2, [1]), (3, [1]), (4, [1, 2]), (5, [1]), (6, [1, 2, 3])]


def _prop_family_planted(monkeypatch, planted_at, **fields):
    """harness.prop_family with fields replaced in each branch (n, j, sign)
    that planted_at(n, j, sign) picks."""
    prop_family = harness.prop_family

    def planted(n, j, m):
        return tuple(rep._replace(**fields) if planted_at(n, j, sign) else rep
                     for rep, sign in zip(prop_family(n, j, m), "+-"))

    monkeypatch.setattr(harness, "prop_family", planted)


def test_prop26_reports_missing_required(monkeypatch):
    _prop_family_planted(monkeypatch, lambda n, j, sign: n == 2,
                         verified=False, degenerate=True)
    report = harness.claim_prop26()
    assert report.status == VIOLATED
    assert [rec for rec in report.evidence if "missing_required" in rec] == [
        {"missing_required": [1, 5, -3, 65]}]


def test_prop26_reports_unverified_branch(monkeypatch):
    # neither verified nor degenerate: a failed check, not a skipped branch
    _prop_family_planted(monkeypatch, lambda *branch: branch == (4, 1, "+"), verified=False)
    report = harness.claim_prop26()
    assert report.status == VIOLATED
    failed = [rec for rec in report.evidence if not (rec["verified"] or rec["degenerate"])]
    assert [(rec["n"], rec["j"], rec["branch"]) for rec in failed] == [(4, 1, "+")]
    assert all("subring_failures" not in rec and "missing_required" not in rec
               for rec in report.evidence)


def test_pairs_reports_missing(monkeypatch):
    find_admissible_pairs = harness.find_admissible_pairs
    monkeypatch.setattr(harness, "find_admissible_pairs", lambda limit: [
        t for t in find_admissible_pairs(limit) if t != (5, 1, 3, 1)])
    report = harness.claim_pairs()
    assert report.status == VIOLATED
    assert report.evidence[-1] == {"missing": [[5, 1, 3, 1]]}


def test_fujita_reports_violation(monkeypatch):
    fujita_fast_path = harness.fujita_fast_path
    monkeypatch.setattr(harness, "fujita_fast_path", lambda k, n: (
        None if (k, n) == (3, -2) else fujita_fast_path(k, n)))
    report = harness.claim_fujita(limit=4)
    assert report.status == VIOLATED
    assert [rec["violations"] for rec in report.evidence] == [
        [], [{"n": -2, "certified": False, "primitive": False, "witnesses": []}], []]
    # certified, but with a witness taken for primitive: (8, 2) of N = -4 at K = 4
    monkeypatch.setattr(harness, "fujita_fast_path", fujita_fast_path)
    monkeypatch.setattr(harness, "has_primitive_solution", lambda oc: oc.witnesses == ((8, 2),))
    report = harness.claim_fujita(limit=4)
    assert report.status == VIOLATED
    assert [rec["violations"] for rec in report.evidence] == [
        [], [], [{"n": -4, "certified": True, "primitive": True, "witnesses": [(8, 2)]}]]


@pytest.mark.parametrize("claim_id, checker, failed_fields", [
    ("dubo", "_lemma_db_sides", {"value": None, "ok": False}),
    ("lemma3", "lemma3_extend_data", {"error": "planted", "ok": False}),
])
@pytest.mark.parametrize("samples, fail_at", [
    (5, {0, 3}),
    # past the first 10 records, a failing one is still kept
    (15, {12}),
])
def test_sampled_claims_keep_every_failing_record(monkeypatch, claim_id, checker,
                                                  failed_fields, samples, fail_at):
    check, calls = getattr(harness, checker), []

    def planted(*args):
        calls.append(args)
        if len(calls) - 1 in fail_at:
            raise AssertionError("planted")
        return check(*args)

    monkeypatch.setattr(harness, checker, planted)
    report = CLAIMS[claim_id](samples=samples)
    assert report.status == VIOLATED
    *records, summary = report.evidence
    assert summary == {"samples": samples, "all_ok": False}
    kept = [i for i in range(samples) if i < 10 or i in fail_at]
    assert len(records) == len(kept)
    for i, rec in zip(kept, records):
        assert rec["ok"] == (i not in fail_at)
        if i in fail_at:
            assert {key: rec[key] for key in failed_fields} == failed_fields


def test_decider_raises_on_residue_hit(monkeypatch):
    # at l = k the decider's residue route reads the search: a hit is fatal
    monkeypatch.setattr(pellian, "_residue_hits", lambda p, k, targets: ((1, 0, 0, 1),))
    pellian.case2_residue_search.cache_clear()
    try:
        with pytest.raises(RuntimeError) as exc:
            pellian.decide_paper_equation(3, 2, 2)
    finally:
        pellian.case2_residue_search.cache_clear()
    assert "residue search found unexpected hits: ((1, 0, 0, 1),)" in str(exc.value)


def _deep_dec(obj):
    """The report format stated apart from the writer: a copy of obj with every
    int that is not a bool as its decimal string, tuples as lists, keys as str."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_deep_dec(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _deep_dec(v) for k, v in obj.items()}
    return obj


def _old_dump_json(doc, compact):
    """The writer's oracle: a _deep_dec copy through json.dumps."""
    if compact:
        return json.dumps(_deep_dec(doc), sort_keys=True, separators=(",", ":"))
    return json.dumps(_deep_dec(doc), sort_keys=True, indent=2)


@pytest.mark.parametrize("claim_id", sorted(CLAIMS))
def test_to_json_matches_deep_dec_path(claim_id):
    report = run_claim(claim_id, SweepConfig())._replace(elapsed=0.1234567)
    # the raw body, so that the oracle and not the writer converts the ints
    doc = {**report._raw_body(), "header": {"elapsed": 0.123457, "version": harness.__version__}}
    for compact in (False, True):
        assert report.to_json(compact) == _old_dump_json(doc, compact), compact
    assert report.body() == _deep_dec(report._raw_body())


class _Pair(NamedTuple):
    left: object
    right: object


_SCALARS = (st.integers() | st.integers(min_value=-10**40, max_value=10**40)
            | st.booleans() | st.none() | st.floats() | st.text()
            | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é 😀", ""]))
# int, bool and str keys that stay distinct under str(): no str key spells an int or bool
_KEYS = st.integers() | st.booleans() | st.text().filter(
    lambda s: s not in ("True", "False") and not s.lstrip("-").isdigit())


def _containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.builds(_Pair, children, children)
            | st.dictionaries(_KEYS, children, max_size=4).filter(
                lambda d: len({str(k) for k in d}) == len(d)))


@settings(max_examples=300, deadline=None)
@given(st.recursive(_SCALARS, _containers, max_leaves=30), st.booleans())
def test_dump_json_matches_deep_dec_path(doc, compact):
    assert dump_json(doc, compact) == _old_dump_json(doc, compact)


def test_dump_json_nests_deeply_and_rejects_what_json_cannot_hold():
    doc = {"a": [(1, {2: [_Pair(-3, [])]}, {}), True, None, float("nan")]}  # depth 6
    for compact in (False, True):
        assert dump_json(doc, compact) == _old_dump_json(doc, compact)
        with pytest.raises(TypeError):
            dump_json({"x": [Fraction(1, 2)]}, compact)
