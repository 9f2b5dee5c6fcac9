"""Acceptance suite: ten end-to-end criteria, one PASS/FAIL line each.

Each test prints a single `criterion N: PASS|FAIL (elapsed)` line and
asserts both the mathematical content and the stated time budget.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from pelltuples.arith import is_perfect_square, is_prime
from pelltuples.contfrac import QuadIrr, expand, lemma_db_check
from pelltuples.harness import odd_primes_upto
from pelltuples.pellian import (
    SOLVABLE,
    UNSOLVABLE,
    PellianProblem,
    case2_residue_search,
    class_bound,
    decide_paper_equation,
    has_primitive_solution,
    p2_family_witness,
    solve_brute,
    solve_complete,
)
from pelltuples.zring import (
    EXISTS_INFINITE,
    NONE,
    check_tuple,
    find_admissible_pairs,
    integer_quadruple_search,
    prop_family,
    theorem3_classify,
)


#: one "criterion N: PASS|FAIL" line per criterion, echoed in the
#: terminal summary by conftest.py
RESULTS = []


def _report(num, ok, t0, budget):
    elapsed = time.monotonic() - t0
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)"
    RESULTS.append(line)
    print(line)
    assert ok, f"criterion {num} failed"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s budget ({elapsed:.1f}s)"


def test_criterion_01_cf_structure():
    """sqrt(p^(2k+2)+1) = [p^(k+1); 2p^(k+1)] for odd primes p <= 50, k <= 5."""
    t0 = time.monotonic()
    ok = True
    for p in odd_primes_upto(50):
        for k in range(6):
            a0 = p ** (k + 1)
            e = expand(QuadIrr(a0 * a0 + 1, 0, 1))
            ok &= e.quotients == [a0, 2 * a0]
            ok &= (e.preperiod_len, e.period_len) == (1, 1)
    _report(1, ok, t0, 5)


def test_criterion_02_dubo_identity():
    """500 randomized exact instances of the convergent-product identity."""
    t0 = time.monotonic()
    rng = random.Random(2024)
    ok = True
    count = 0
    while count < 500:
        alpha = rng.randrange(1, 10_001)
        beta = rng.randrange(1, 10_001)
        if is_perfect_square(alpha * beta) is not None:
            continue
        exp = expand(QuadIrr(alpha * beta, 0, beta))
        n = rng.randrange(0, exp.preperiod_len + exp.period_len + 5)
        r = rng.randrange(0, 101)
        u = rng.randrange(0, 101)
        try:
            lemma_db_check(alpha, beta, n, r, u)
        except AssertionError:
            ok = False
        count += 1
    _report(2, ok, t0, 30)


def test_criterion_03_theorem_tm1():
    """decide_paper_equation UNSOLVABLE on the full (p <= 50, k <= 3) grid."""
    t0 = time.monotonic()
    ok = True
    for p in odd_primes_upto(50):
        for k in range(4):
            ok &= case2_residue_search(p, k) == ()
            for l in range(k + 1):
                out = decide_paper_equation(p, k, l)
                ok &= out.verdict == UNSOLVABLE
                # decide_paper_equation raises if solve_complete ever disagrees;
                # re-check the easy instances explicitly anyway.
                if p ** (2 * k + 2) < 10**8:
                    d = p ** (2 * k + 2) + 1
                    direct = solve_complete(PellianProblem(d, -(p ** (2 * l + 1))))
                    ok &= direct.verdict == UNSOLVABLE
    _report(3, ok, t0, 600)


def test_criterion_04_fujita_sweep():
    """No primitive solutions of x^2 - (K^2+1) y^2 = N for 1 < |N| <= K <= 60."""
    t0 = time.monotonic()
    ok = True
    for bigk in range(2, 61):
        d = bigk * bigk + 1
        for n in range(-bigk, bigk + 1):
            if abs(n) <= 1:
                continue
            ok &= not has_primitive_solution(solve_complete(PellianProblem(d, n)))
    _report(4, ok, t0, 300)


def test_criterion_05_p2_proposition():
    """Family witness for odd k, mod-5 unsolvability certificate for even k."""
    t0 = time.monotonic()
    ok = True
    for k in range(1, 10, 2):
        for l in range(k // 2 + 1, k + 1):
            out = decide_paper_equation(2, k, l)
            ok &= out.verdict == SOLVABLE and out.method == "paper-family"
            x, y = out.certificate["family_witness"]
            ok &= (x, y) == p2_family_witness(k, l)
            d = 2 ** (2 * k + 2) + 1
            ok &= x * x - d * y * y == -(2 ** (2 * l + 1))
    for k in range(0, 9, 2):
        d = 2 ** (2 * k + 2) + 1
        for l in range(k + 1):
            out = decide_paper_equation(2, k, l)
            ok &= out.verdict == UNSOLVABLE
            ok &= out.certificate is not None and out.certificate.get("modulus") == 5
            ok &= solve_complete(PellianProblem(d, -(2 ** (2 * l + 1)))).verdict == UNSOLVABLE
    _report(5, ok, t0, 60)


def test_criterion_06_prop_family():
    """Generated quadruples verify in the full ring and in every subring."""
    t0 = time.monotonic()
    ok = True
    inventory = set()
    for n in range(1, 21):
        divisors_of_n = [m for m in range(1, n + 1) if n % m == 0]
        for j in range(1, 6):
            plus, minus = prop_family(n, j, 1)
            for rep in (plus, minus):
                if rep.degenerate:
                    continue
                ok &= rep.verified
                ints = tuple(e.re for e in rep.elements)
                inventory.add(ints)
                for m in divisors_of_n:
                    ok &= check_tuple(ints, -1, t=m * m).verified
    ok &= (1, 5, -3, 65) in inventory
    ok &= (1, 10, -8, 325) in inventory
    _report(6, ok, t0, 120)


def test_criterion_07_fifumi_search():
    """No integer quadruple extends {1, b} for the lemma's b-forms, b <= 200."""
    t0 = time.monotonic()
    ok = True
    for b in range(2, 201):
        r2 = is_perfect_square(b - 1)
        if r2 is None or r2 == 0:
            continue
        r = r2

        # b = p (prime), b = 2p^k, r = p^k, r = 2p^k
        def _is_prime_power(v):
            if v < 2:
                return False
            for p in range(2, v + 1):
                if v % p == 0:
                    w = v
                    while w % p == 0:
                        w //= p
                    return w == 1 and is_prime(p)
            return False

        qualifies = (
            is_prime(b)
            or (b % 2 == 0 and _is_prime_power(b // 2))
            or _is_prime_power(r)
            or (r % 2 == 0 and _is_prime_power(r // 2))
        )
        if not qualifies:
            continue
        ok &= integer_quadruple_search(b, 100_000) == []
    _report(7, ok, t0, 600)


def test_criterion_08_theorem3_instances():
    """Classification for (5,1,3,1) and (41,1,3,2) across powers of q and even t."""
    t0 = time.monotonic()
    ok = True
    for p, k, q, l_exp in ((5, 1, 3, 1), (41, 1, 3, 2)):
        for e in range(2 ** l_exp + 1):
            res = theorem3_classify(p, k, q, l_exp, q**e)
            if e % 2 == 0:
                ok &= res.status == EXISTS_INFINITE
                ok &= res.witness is not None and res.witness.verified
            else:
                ok &= res.status == NONE
                ok &= res.certificate is not None and res.certificate.verdict == UNSOLVABLE
        for t in (2, 4, 6, 8):
            ok &= theorem3_classify(p, k, q, l_exp, t).status == NONE
    _report(8, ok, t0, 60)


def test_criterion_09_admissible_pairs():
    """find_admissible_pairs(50) returns exactly the five listed tuples.

    Known red: (13, 1, 5, 1) also satisfies 2*13 = 5^2 + 1 with 13 and 5
    prime, so the faithful search returns six tuples.  The five required
    tuples are all present; the exact-five assertion is kept as stated.
    """
    t0 = time.monotonic()
    got = find_admissible_pairs(50)
    want = [(5, 1, 3, 1), (5, 2, 7, 1), (13, 4, 239, 1), (29, 2, 41, 1), (41, 1, 3, 2)]
    ok = sorted(got) == sorted(want)
    _report(9, ok, t0, 10)


def test_criterion_10_oracle_equivalence():
    """solve_complete vs bounded brute force for D <= 200, 0 < |N| <= 50."""
    t0 = time.monotonic()
    cap = 20_000
    ok = True
    for d in range(2, 201):
        if is_perfect_square(d) is not None:
            continue
        for n in range(-50, 51):
            if n == 0:
                continue
            prob = PellianProblem(d, n)
            bound = class_bound(d, n)
            y_max = min(bound, cap)
            brute = solve_brute(prob, y_max)
            out = solve_complete(prob)
            trivial = n > 0 and is_perfect_square(n) is not None
            if brute or trivial:
                ok &= out.verdict == SOLVABLE
            elif bound <= cap:
                ok &= out.verdict == UNSOLVABLE
            elif out.verdict == SOLVABLE:
                # Brute window is truncated: witnesses must check out by
                # substitution and lie beyond the searched window.
                ok &= all(x * x - d * y * y == n for x, y in out.witnesses)
                ok &= all(y == 0 or y > y_max for _, y in out.witnesses)
            if not ok:
                pytest.fail(f"oracle disagreement at D={d}, N={n}")
    _report(10, ok, t0, 600)
