"""Tests for the benchmark's references and checkers.

    python3 -m pytest perfbench/test_checks.py
"""
import dataclasses
import json
import math
import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def test_is_prime_matches_sieve():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 2000):
        if sieve[i]:
            for j in range(i * i, 2000, i):
                sieve[j] = False
    assert [n for n in range(2000) if checks.is_prime(n)] == [n for n in range(2000) if sieve[n]]
    assert checks.is_prime(2**61 - 1) and not checks.is_prime((2**31 - 1) * (2**19 - 1) * 1_000_003)


def test_same_class_criterion():
    # x^2 - 2y^2 = 7: (3, 1) and (5, 3) are conjugate classes; (3, 1)*(3+2sqrt2) = (13, 9)
    assert checks.same_class(2, 7, (3, 1), (13, 9))
    assert not checks.same_class(2, 7, (3, 1), (5, 3))
    assert checks.same_class(2, 7, (3, 1), (5, -3))


def test_pell_outcome_rejects_wrong_verdict_and_witness():
    assert checks.check_pell_outcome(2, 7, "SOLVABLE", [(3, 1)], "S") is None
    assert "reference" in checks.check_pell_outcome(2, 7, "UNSOLVABLE", [], "S")
    assert "does not satisfy" in checks.check_pell_outcome(2, 7, "SOLVABLE", [(3, 2)], "?")
    assert "witnesses" in checks.check_pell_outcome(2, 3, "SOLVABLE", [], "?")


def test_pell_grid_table_matches_known_values():
    table = checks.load_pell_grid_table()
    assert len(table) == 18_600
    assert table[(2, 7)] == "S" and table[(2, -1)] == "S" and table[(3, -1)] == "U"
    assert table[(5, 4)] == "S"  # y = 0 solution of a square N


def test_planted_and_obstructed_certificates():
    rng = random.Random(5)
    for n in (3, -3, 401, -99991, 4_999_999):
        d, (x0, y0) = workloads.planted_query(rng, n)
        assert x0 * x0 - d * y0 * y0 == n and workloads._long_period(d)
        assert checks.check_planted(d, n, (x0, y0), "SOLVABLE", [(x0, y0)]) is None
        d, p = workloads.obstructed_query(rng, n)
        assert checks.obstruction_holds(d, n, p) and workloads._long_period(d)
    assert [workloads.cf_period(d) for d in (2, 7, 13, 94)] == [1, 4, 5, 16]
    period = workloads.cf_period(31_622**2 + 3)
    assert workloads.cf_period(31_622**2 + 3, period - 1) > period - 1
    # x^2 - 2y^2 = 119: (13, 5) is in neither the class of (11, 1) nor of (11, -1)
    assert checks.check_planted(2, 119, (11, 1), "SOLVABLE", [(11, 1), (13, 5)]) is None
    assert "missing" in checks.check_planted(2, 119, (11, 1), "SOLVABLE", [(13, 5)])
    with pytest.raises(ValueError):
        checks.check_obstructed(6, 1, 3, "UNSOLVABLE", [])  # 1 is a residue mod 3


def test_sqrt_and_tuple_checks():
    assert checks.check_sqrt(3 * 3 - 5 * 2 * 2, 12, 5, [(3, 2)], (-3, -2)) is None
    assert "expected" in checks.check_sqrt(-11, 12, 5, [(3, 2), (-3, -2)], (3, 2))
    assert checks.check_sqrt(1, 2, 3, [], None) is None  # norm 13
    assert "non-square" in checks.check_sqrt(1, 2, 3, [(1, 1)], None)
    # {1, 5, -3, 65} is the D(-1)-quadruple in Z[2i] from prop_family(2, 1, 1)
    assert checks.quadruple(2, 1, 1) == (1, 5, -3, 65)
    for n in (1, 2, 3, 6):
        for j in (1, 2, 3):
            x, y = checks.pell_minus_one(n, j)
            assert y * y - (n * n + 1) * x * x == -1


def test_run_pass_counts_wrong_verdict_and_bad_witness():
    """A wrong verdict and a bad witness are each counted as a failure."""
    wl = workloads.pell_wide(3)
    planted = [c for c in wl.cases if c[2] == "planted"][:2]
    obstructed = [c for c in wl.cases if c[2] == "obstructed"][:1]

    def fake(case):
        d, n, kind, cert = case
        if case is planted[0]:  # wrong verdict
            doc = {"verdict": "UNSOLVABLE", "witnesses": []}
        elif case is planted[1]:  # witness that does not satisfy the equation
            x0, y0 = cert
            doc = {"verdict": "SOLVABLE", "witnesses": [[str(abs(x0) + 1), str(abs(y0))]]}
        elif kind == "planted":
            doc = {"verdict": "SOLVABLE", "witnesses": [[str(abs(cert[0])), str(abs(cert[1]))]]}
        else:
            doc = {"verdict": "UNSOLVABLE", "witnesses": []}
        return 0, json.dumps({"D": str(d), "N": str(n), **doc})

    wl = dataclasses.replace(wl, cases=planted + obstructed, call=fake)
    summary = workloads.run_pass(wl)
    assert summary["failed"] == 2 and summary["wrong"] == 2
    assert summary["lat_ms"][-2:] == [float("inf")] * 2
    kinds = {f["case"]: f["detail"] for f in summary["failures"]}
    assert "reference SOLVABLE" in kinds[wl.key(planted[0])]
    assert "does not satisfy" in kinds[wl.key(planted[1])]


def test_run_pass_counts_exceptions():
    wl = workloads.ring_tuples(1)
    wl = dataclasses.replace(wl, cases=wl.cases[:3], call=lambda c: 1 / 0)
    summary = workloads.run_pass(wl)
    assert summary["failed"] == 3 and summary["wrong"] == 0


def _plain_period(d: int) -> int:
    a0 = math.isqrt(d)
    m, q, a, n = 0, 1, a0, 0
    while True:
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        n += 1
        if q == 1:
            return n


def test_cf_period_stops_at_the_centre_of_the_period():
    rng = random.Random(3)
    for d in list(range(2, 3000)) + [rng.randint(10**5, 10**6) for _ in range(300)]:
        if not checks.is_square(d):
            assert workloads.cf_period(d) == _plain_period(d)


def test_long_period_table_matches_cf_period():
    lo, hi = workloads.WIDE_PERIOD
    for d in range(workloads.WIDE_D_MIN, workloads.WIDE_D_MIN + 20_000):
        in_band = not checks.is_square(d) and lo <= workloads.cf_period(d, hi) <= hi
        assert workloads._long_period(d) == in_band


def test_sampler_leaves_out_inner_slices_and_scales():
    sampler = speed.Sampler()
    sampler.starts = [0, 100, 200, 300, 400]
    sampler.spent = [10] * 5
    sampler.slices = [2 * speed.REF_SLICE_S] * 5
    raw, scaled = sampler.call_time(150, 350)  # slices at 200 and 300 ran inside
    assert raw == 180 / 1e9
    assert scaled == pytest.approx(raw / 2)


def test_sampler_samples_inside_a_call():
    with speed.Sampler() as sampler:
        t0 = time.perf_counter_ns()
        end = time.perf_counter() + 6 * speed.SAMPLE_EVERY_S
        while time.perf_counter() < end:
            pass
        t1 = time.perf_counter_ns()
    inner = [spent for start, spent in zip(sampler.starts, sampler.spent) if t0 <= start < t1]
    assert len(inner) >= 3
    assert sampler.call_time(t0, t1)[0] == (t1 - t0 - sum(inner)) / 1e9


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    make = workloads.WORKLOADS[name]
    if name == "pell-grid":
        assert sorted(make(1).cases) == sorted(make(2).cases)
    assert make(7).cases == make(7).cases


def test_tm1_report_check():
    residue, decision = checks.tm1_expected_keys(50, 3)
    assert len(residue) + len(decision) == 196
    ev = [{"kind": "residue-search", "p": str(p), "k": str(k), "hits": []} for p, k in residue]
    ev += [{"kind": "decision", "p": str(p), "k": str(k), "l": str(l), "verdict": "UNSOLVABLE"}
           for p, k, l in decision]
    assert checks.check_tm1_report({"status": "CONFIRMED", "evidence": ev}, 50, 3) is None
    assert "records" in checks.check_tm1_report({"status": "CONFIRMED", "evidence": ev[1:]}, 50, 3)
    ev[-1] = {**ev[-1], "verdict": "SOLVABLE"}
    assert "verdict" in checks.check_tm1_report({"status": "CONFIRMED", "evidence": ev}, 50, 3)
